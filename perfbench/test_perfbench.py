"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import twistcap as tc  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FAMILIES = ("torus", "klein")
SYSTEMS = ("constant", "orientation", "random-flat")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_relabelled_grids_are_closed_surfaces(family, n):
    cells = wl.relabelled_grid(family, n, wl.random.Random(n))
    cx = wl.grid_complex(family, n, cells)
    orientable, _ = tc.is_trivializable(tc.orientation_system(cx, tc.Z))
    assert orientable == (family == "torus")


def test_generators_are_deterministic_per_seed():
    for cls in (wl.DualityChecks, wl.MvChecks):
        a, b, c = cls(7), cls(7), cls(8)
        assert a.schedule == c.schedule
        assert [a.make_input(i) for i in range(40)] == \
            [b.make_input(i) for i in range(40)]
        assert a.make_input(3) != c.make_input(3)
    assert wl.corpus_argv_list(7) == wl.corpus_argv_list(7)
    other = wl.corpus_argv_list(8)
    assert other != wl.corpus_argv_list(7)
    assert sorted(a[0] for a in other) == sorted(a[0] for a in wl.corpus_argv_list(7))


@pytest.mark.parametrize("family", FAMILIES)
def test_two_bands_meet_in_two_annuli(family):
    n = 5
    cells = wl.relabelled_grid(family, n, wl.random.Random(1))
    cx = wl.grid_complex(family, n, cells)
    pair = wl.two_bands(cx, n, cells)
    inter = [len(pair.AB.faces(k)) for k in range(3)]
    assert inter == [4 * n, 8 * n, 4 * n]          # two strips of n cells
    assert inter[0] - inter[1] + inter[2] == 0


# -- expected tables against the library --------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ring_name", ("Z", "Z/3", "Z/10007", "Q"))
def test_duality_tables_on_smallest_grid(family, ring_name):
    cells = wl.relabelled_grid(family, 4, wl.random.Random(2))
    cx = wl.grid_complex(family, 4, cells)
    ring = tc.parse_ring(ring_name)
    for system in SYSTEMS:
        G = wl.make_system(cx, ring, system, 5)
        rows = tuple((r.degree, r.verdict, r.left.normal_form, r.right.normal_form)
                     for r in tc.verify_duality(cx, G, ring).rows)
        expected.check_duality_rows(family, system, wl.rank_of(system),
                                    wl.RING_KIND[ring_name], rows)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ring_name", ("Z", "Z/3"))
def test_mv_tables_on_smallest_grid(family, ring_name):
    cells = wl.relabelled_grid(family, 4, wl.random.Random(3))
    cx = wl.grid_complex(family, 4, cells)
    pair = wl.two_bands(cx, 4, cells)
    ring = tc.parse_ring(ring_name)
    for system in SYSTEMS:
        G = wl.make_system(cx, ring, system, 9)
        for report in (tc.mv_homology(pair, G), tc.mv_cohomology(pair, G)):
            expected.check_mv_report(
                family, system, wl.RING_KIND[ring_name], report.kind,
                report.exactness, tuple(m.normal_form for m in report.modules))


@pytest.mark.parametrize("name", wl.CORPUS)
def test_homology_tables_match_the_corpus(name):
    M = tc.corpus(name)
    for ring_name in ("Z", "Z/3", "Q"):
        ring = tc.parse_ring(ring_name)
        kind = wl.RING_KIND[ring_name]
        for system in ("constant", "orientation"):
            G = wl.make_system(M, ring, system, 0)
            got = tuple(tc.homology(M, G, k).module.normal_form
                        for k in range(M.dimension + 1))
            assert got == expected.homology(name, system, kind)
            got = tuple(tc.cohomology(M, G, k).module.normal_form
                        for k in range(M.dimension + 1))
            assert got == expected.cohomology(name, system, kind)


def test_one_corpus_pass_passes_its_checks():
    w = wl.CorpusCli(1)
    for i in range(len(w.schedule)):
        w.check(i)


def test_wrong_values_are_caught():
    with pytest.raises(expected.Mismatch):
        expected.check_duality_rows("klein", "constant", 1, "Z",
                                    ((0, True, (1, ()), (1, ())),
                                     (1, True, (1, ()), (1, ())),
                                     (2, True, (0, ()), (0, ()))))
    assert expected.parse_module("(Z/3)^2", "Z/3") == (2, ())
    assert expected.parse_module("Z^2 + Z/2", "Z") == (2, (2,))


# -- tracing ------------------------------------------------------------------

def test_tracer_rebinds_every_reference_and_keeps_outcomes():
    work = [(wl.DualityChecks(1), 10), (wl.MvChecks(1), 3), (wl.CorpusCli(1), 5)]
    plain = [w.check(i) for w, i in work]
    originals = {name: getattr(tc.matrices, name)
                 for name in ("smith_normal_form", "kernel_with_relations")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tc.fpmodules.smith_normal_form is not originals["smith_normal_form"]
        assert tc.cap.__dict__.get("homology_presentation") is \
            tc.fpmodules.homology_presentation
        traced = [w.check(i) for w, i in work]
    finally:
        tracer.uninstall()
    assert tc.fpmodules.smith_normal_form is originals["smith_normal_form"]
    assert traced == plain
    summary = tracer.summary()
    assert summary["calls"]["matrices.smith_normal_form"] > 0
    assert summary["calls"]["cli.main"] == 1
    metrics = tracing.layer_metrics(summary, 1.0, 1.5)
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    assert metrics["trace.overhead_ratio"][0] == pytest.approx(0.5)
    for i, end in enumerate(tracer.span_end):
        assert end >= tracer.span_start[i]
        parent = tracer.span_parent[i]
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert end <= tracer.span_end[parent]


# -- the command --------------------------------------------------------------

def test_tail_percentile():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_end_to_end_metrics_are_the_declared_ones():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "corpus-cli", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
