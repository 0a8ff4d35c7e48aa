import argparse
import functools
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from oracles import has_fail_row
from twistcap import acceptance, chains, cli, covers, fpmodules, mv
from twistcap.chains import NotAFundamentalCycle
from twistcap.cli import main
from twistcap.complexes import (BUILTIN_NAMES, MAX_FACES, SimplicialComplex,
                                _grid_klein, _grid_torus, dumps_complex,
                                named_complex, validate)
from twistcap.errors import CertificateFailed, TwistcapError
from twistcap.localsystems import constant_system
from twistcap.matrices import ExactMatrix


# modules a cold start must not load: `dataclasses` and what it imports,
# which a batch process would pay for in start-up time and memory
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def package_env():
    """The environment of a child Python that imports this checkout's
    package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return env


def test_importing_the_package_and_cli_loads_no_introspection_modules():
    env = package_env()
    probe = ("import sys, twistcap, twistcap.cli; "
             f"print(sorted(set({HEAVY_STDLIB!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_corpus_entry(capsys):
    code, out, _ = run(capsys, "validate", "--complex", "rp2")
    assert code == 0
    assert "# result=pass" in out
    assert "closed_pseudomanifold\tok" in out
    assert "complex_digest=" in out


def test_validate_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cx"
    bad.write_text("dim 1\nsimplex 1 0\n")
    code, _, err = run(capsys, "validate", "--complex", str(bad))
    assert code == 2
    assert "line 2" in err


def test_a_huge_vertex_label_exits_2_with_a_short_message(tmp_path, capsys):
    # the labels must cover 0..n-1, and the check that they do costs the
    # same whatever the largest label, so a twelve-digit one is refused at once
    path = tmp_path / "sparse.cx"
    path.write_text(f"dim 1\nsimplex 0 {10 ** 12}\n")
    code, out, err = run(capsys, "validate", "--complex", str(path))
    assert code == 2 and not out
    assert "vertices [1, 2, 3, 4, 5] and 999999999994 more lie in no " \
        "simplex" in err
    assert len(err) < 200


def test_the_boundary_of_the_26_simplex_exits_2_at_once(tmp_path):
    # 28 lines: 27 facets of 26 vertices each, and 2^27 - 2 faces; one facet
    # alone passes the bound, so the file is refused before any face is
    # listed.  The CLI runs in a process of its own under a 1 GiB address
    # space, so a build that did list them would fail there, not take the
    # machine's memory.
    path = tmp_path / "sphere25.cx"
    path.write_text("dim 25\n" + "".join(
        "simplex " + " ".join(map(str, facet)) + "\n"
        for facet in combinations(range(27), 26)))
    assert len(path.read_text().splitlines()) == 28
    env = package_env()
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from twistcap.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", probe, "validate",
                           "--complex", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"error: line 0: a 25-simplex has {2 ** 26 - 1} "
                           f"faces, over the bound of {MAX_FACES}\n")


def test_validate_open_surface_fails(tmp_path, capsys):
    disk = tmp_path / "disk.cx"
    disk.write_text("dim 2\nsimplex 0 1 2\n")
    code, out, _ = run(capsys, "validate", "--complex", str(disk))
    assert code == 1
    assert "# result=fail" in out
    assert "each_ridge_in_two_facets\tFAIL" in out


def test_two_disjoint_spheres_fail_connectivity(tmp_path, capsys):
    # every ridge lies in two facets and every link is a circle, so the
    # dual graph is the one test that fails
    spheres = SimplicialComplex(8, [tuple(v + shift for v in face)
                                    for shift in (0, 4)
                                    for face in combinations(range(4), 3)])
    report = validate(spheres)
    assert report.each_ridge_in_two_facets and report.links_validated
    assert not report.dual_graph_connected
    assert not report.closed_pseudomanifold
    path = tmp_path / "two_spheres.cx"
    path.write_text(dumps_complex(spheres))
    code, out, _ = run(capsys, "validate", "--complex", str(path))
    assert code == 1
    assert "# result=fail" in out
    assert "dual_graph_connected\tFAIL" in out
    assert "closed_pseudomanifold\tFAIL" in out


def test_unknown_names_exit_2(capsys):
    code, _, err = run(capsys, "validate", "--complex", "moebius")
    assert code == 2 and "unknown complex" in err
    code, _, err = run(capsys, "check-mv", "--complex", "torus",
                       "--cover", "hemispheres")
    assert code == 2


def test_verify_duality_table(capsys):
    code, out, _ = run(capsys, "verify-duality", "--complex", "rp2",
                       "--system", "orientation", "--ring", "Z")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].split("\t") == ["degree", "left", "right", "verdict",
                                    "certificate"]
    assert len(lines) == 4  # header + degrees 0..2
    assert all("iso" in ln for ln in lines[1:])


def test_byte_stable_reports(capsys):
    args = ("verify-duality", "--complex", "klein", "--system",
            "random-flat:3:2", "--ring", "Z/3", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_lemma_subcommands(capsys):
    code, out, _ = run(capsys, "lemma1", "--complex", "klein")
    assert code == 0 and "deck_reverses_orientation\tok" in out
    code, out, _ = run(capsys, "lemma2", "--complex", "rp2", "--ring", "Z/3")
    assert code == 0 and "K=vertex0\tok" in out
    code, out, _ = run(capsys, "phi-check", "--complex", "rp2")
    assert code == 0 and "phi_boundary_commutes" in out


def test_cap_identity_subcommand(capsys):
    code, out, _ = run(capsys, "cap-identity", "--complex", "torus",
                       "--system", "random-flat", "--ring", "Q",
                       "--trials", "10", "--seed", "4")
    assert code == 0
    assert "trials=10 failures=0" in out


def test_check_mv_and_diagram6(capsys):
    code, out, _ = run(capsys, "check-mv", "--complex", "torus",
                       "--cover", "cylinders", "--system", "constant",
                       "--ring", "Q")
    assert code == 0 and "homology_exact\tok" in out

    code, out, _ = run(capsys, "diagram6", "--config", "sphere")
    assert code == 0
    assert "cap-square-left\tok" in out
    assert "connecting\tok\t+1" in out


def test_fundamental_class_subcommand(capsys):
    code, out, _ = run(capsys, "fundamental-class", "--complex", "rp3")
    assert code == 0
    assert "via_cover_agrees\tok" in out
    code, out, _ = run(capsys, "fundamental-class", "--complex", "rp2",
                       "--ring", "Z/2")
    assert code == 0
    assert "skipped" in out  # cover route unavailable when 2 = 0


def test_orientation_subcommand(capsys):
    code, out, _ = run(capsys, "orientation", "--complex", "sphere3")
    assert code == 0
    assert "orientable\tTrue" in out
    assert "cover_components\t2" in out


@pytest.mark.parametrize("name, ring, orientable, components", [
    ("rp2", "Z/2", "True", "2"), ("klein", "Z/2", "True", "2"),
    ("rp2", "Z", "False", "1"), ("klein", "Z", "False", "1")])
def test_orientation_reports_the_rings_own_system(capsys, name, ring,
                                                  orientable, components):
    # a census of R-orientability: over Z/2 every complex is orientable,
    # and the cover of its constant orientation system is two copies
    code, out, _ = run(capsys, "orientation", "--complex", name,
                       "--ring", ring)
    assert code == 0
    assert f"orientable\t{orientable}" in out
    assert f"cover_components\t{components}" in out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("command", ["lemma1", "lemma2"])
def test_cover_lemmas_pass_over_z2(capsys, command, name):
    # the cover checks read the cover of the integer orientation character,
    # whatever the ring
    code, out, err = run(capsys, command, "--complex", name, "--ring", "Z/2")
    assert code == 0 and err == ""
    rows = [ln.split("\t") for ln in out.splitlines() if ln[0] != "#"]
    assert rows and all(row[1] == "ok" for row in rows)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_phi_check_skips_over_z2(capsys, name):
    # phi reads the +/- splitting, which needs 2 invertible: over Z/2 each
    # K choice is one skipped row, as fundamental-class skips its cover row
    code, out, err = run(capsys, "phi-check", "--complex", name,
                         "--ring", "Z/2")
    assert code == 0 and err == ""
    rows = [ln.split("\t") for ln in out.splitlines() if ln[0] != "#"]
    assert rows == [["K=all phi", "skipped", "ring has 2 = 0"],
                    ["K=vertex0 phi", "skipped", "ring has 2 = 0"]]
    assert out.endswith("# result=pass\n")


def test_complex_file_roundtrip_through_cli(tmp_path, capsys):
    from twistcap.complexes import corpus, dumps_complex
    path = tmp_path / "torus.cx"
    path.write_text(dumps_complex(corpus("torus")))
    code, out, _ = run(capsys, "validate", "--complex", str(path))
    assert code == 0 and "# result=pass" in out


def test_corpus_all_formatting(monkeypatch, capsys):
    # the battery itself runs in test_acceptance; here only the wiring
    from twistcap import acceptance, cli

    def fake_run_all(seed=0, trials=100):
        return [acceptance.CheckResult("alpha", True, "fine"),
                acceptance.CheckResult("beta", False, "broken")]

    monkeypatch.setattr(cli.acceptance, "run_all", fake_run_all)
    code, out, _ = run(capsys, "corpus-all", "--trials", "1")
    assert code == 1
    assert "alpha\tok\tfine" in out
    assert "beta\tFAIL\tbroken" in out
    assert "# result=fail" in out

    monkeypatch.setattr(cli.acceptance, "run_all",
                        lambda seed=0, trials=100: [
                            acceptance.CheckResult("alpha", True, "fine")])
    code, out, _ = run(capsys, "corpus-all")
    assert code == 0 and "# result=pass" in out


def test_system_file_through_cli(tmp_path, capsys):
    from twistcap.complexes import corpus
    from twistcap.localsystems import dumps_local_system, orientation_system
    from twistcap.rings import Z
    path = tmp_path / "orient.ls"
    path.write_text(dumps_local_system(orientation_system(corpus("rp2"), Z)))
    code, out, _ = run(capsys, "verify-duality", "--complex", "rp2",
                       "--system", str(path), "--ring", "Z")
    assert code == 0

    code, _, err = run(capsys, "verify-duality", "--complex", "rp2",
                       "--system", str(path), "--ring", "Q")
    assert code == 2 and "does not match" in err


# the last three have more fields than their kind takes: each kind takes
# its own and no more, so a field it would ignore never reaches a header
@pytest.mark.parametrize("spec", ["constant:abc", "random-flat:x",
                                  "orientation:xyz", "constant:1:junk",
                                  "random-flat:1:2:3"])
def test_malformed_system_spec_exits_2(capsys, spec):
    code, out, err = run(capsys, "verify-duality", "--complex", "circle",
                         "--system", spec)
    assert code == 2 and not out
    assert err.startswith("error: unknown system") and spec in err


@pytest.mark.parametrize("spec", ["random-flat:1:0", "random-flat:1:-1"])
def test_nonpositive_random_flat_rank_exits_2(capsys, spec):
    code, out, err = run(capsys, "verify-duality", "--complex", "circle",
                         "--system", spec)
    assert code == 2 and not out
    assert err == "error: rank must be positive\n"


def test_zero_denominator_in_system_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ls"
    path.write_text("ring Q\nrank 1\nedge 0 1\n1/0\n")
    code, _, err = run(capsys, "verify-duality", "--complex", "circle",
                       "--system", str(path), "--ring", "Q")
    assert code == 2
    assert err.startswith("error:") and "line 4" in err


_CIRCLE = "dim 1\nsimplex 0 1\nsimplex 1 2\nsimplex 0 2\n"


# every integer of the file formats and of a spec field is ASCII digits with
# an optional leading '-': int() alone takes each of these spellings
@pytest.mark.parametrize("text, line", [
    (_CIRCLE.replace("0 2", "0 \uff12"), 4),
    (_CIRCLE.replace("0 2", "0 +2"), 4),
    (_CIRCLE.replace("0 2", "0_0 2"), 4),
    (_CIRCLE.replace("dim 1", "dim \uff101"), 1)],
    ids=["full-width-vertex", "plus-vertex", "underscore-vertex",
         "full-width-dim"])
def test_a_non_ascii_or_decorated_integer_in_a_complex_exits_2(
        tmp_path, capsys, text, line):
    path = tmp_path / "circle.cx"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--complex", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("text, line", [
    ("ring Q\nrank 1\nedge 0 1\n1_0/3\n", 4),
    ("ring Q\nrank 1\nedge \uff10 1\n1\n", 3),
    ("ring Q\nrank \uff11\nedge 0 1\n1\n", 2)],
    ids=["underscore-entry", "full-width-edge", "full-width-rank"])
def test_a_non_ascii_or_decorated_integer_in_a_system_exits_2(
        tmp_path, capsys, text, line):
    path = tmp_path / "bad.ls"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify-duality", "--complex", "circle",
                         "--system", str(path), "--ring", "Q")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("spec", ["constant:\uff12", "constant:+2",
                                  "random-flat:1_0"])
def test_a_non_ascii_or_decorated_spec_field_exits_2(capsys, spec):
    code, out, err = run(capsys, "verify-duality", "--complex", "circle",
                         "--system", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown system {spec!r}: ")


def test_a_passing_report_exits_0_when_its_reader_closed_the_pipe():
    # the read end is closed before the child starts, so every write fails
    env = package_env()
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "twistcap.cli", "validate", "--complex",
             "rp3"], stdout=write, stderr=subprocess.PIPE, env=env,
            text=True, timeout=120)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (0, "")


def test_a_negative_seed_runs(capsys):
    code, out, err = run(capsys, "cap-identity", "--complex", "circle",
                         "--seed", "-5", "--trials", "2")
    assert (code, err) == (0, "")
    assert "seed=-5" in out


def test_negative_trials_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cap-identity", "--complex", "circle", "--trials", "-5"])
    assert exc.value.code == 2
    assert "error: argument --trials" in capsys.readouterr().err



# the options of every subcommand, in order: (flag, default, type, choices,
# required)
_COMPLEX = ("--complex", None, None, None, True)
_FORMAT = ("--format", "tsv", None, ("tsv", "plain"), False)
_RING = ("--ring", "Z", None, None, False)
_SEED = ("--seed", 0, "_integer", None, False)
_UNTWISTED = [_COMPLEX, _RING, _FORMAT]
_TWISTED = [_COMPLEX, ("--system", "constant", None, None, False), _RING,
            _SEED, _FORMAT]
OPTION_SURFACE = {
    "validate": [_COMPLEX, _FORMAT],
    "orientation": _UNTWISTED,
    "fundamental-class": _UNTWISTED,
    "lemma1": _UNTWISTED,
    "lemma2": _UNTWISTED,
    "phi-check": _UNTWISTED,
    "cap-identity": _TWISTED + [("--trials", 100, "_positive_int", None,
                                 False)],
    "verify-duality": _TWISTED,
    "check-mv": _TWISTED + [("--cover", None, None, None, True)],
    "diagram6": [("--config", None, None, ("torus", "sphere", "klein"),
                  True)] + _TWISTED[1:],
    "corpus-all": [_SEED, ("--trials", 100, "_positive_int", None, False),
                   _FORMAT],
}


def test_the_option_surface_is_unchanged():
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    built = {name: [(a.option_strings[0], a.default,
                     getattr(a.type, "__name__", None), a.choices, a.required)
                    for a in sub._actions if a.dest != "help"]
             for name, sub in commands.items()}
    assert built == OPTION_SURFACE
    assert list(built) == list(OPTION_SURFACE)


_TOP_USAGE = """usage: twistcap [-h]
                {validate,orientation,fundamental-class,lemma1,lemma2,\
phi-check,cap-identity,verify-duality,check-mv,diagram6,corpus-all}
                ...
"""
_CAP_USAGE = """\
usage: twistcap cap-identity [-h] --complex COMPLEX [--system SYSTEM]
                             [--ring RING] [--seed SEED]
                             [--format {tsv,plain}] [--trials TRIALS]
"""
_COMMAND_CHOICES = ("'validate', 'orientation', 'fundamental-class', "
                    "'lemma1', 'lemma2', 'phi-check', 'cap-identity', "
                    "'verify-duality', 'check-mv', 'diagram6', 'corpus-all'")


@pytest.mark.parametrize("argv, err", [
    (["validate"], """\
usage: twistcap validate [-h] --complex COMPLEX [--format {tsv,plain}]
twistcap validate: error: the following arguments are required: --complex
"""),
    (["validate", "--complex", "rp2", "--format", "xml"], """\
usage: twistcap validate [-h] --complex COMPLEX [--format {tsv,plain}]
twistcap validate: error: argument --format: invalid choice: 'xml' \
(choose from 'tsv', 'plain')
"""),
    (["cap-identity", "--complex", "circle", "--trials", "0"], _CAP_USAGE
     + "twistcap cap-identity: error: argument --trials: '0' is not a "
     "positive integer\n"),
    (["cap-identity", "--complex", "circle", "--trials", "\uff13"],
     _CAP_USAGE + "twistcap cap-identity: error: argument --trials: "
     "'\uff13' is not a positive integer\n"),
    (["cap-identity", "--complex", "circle", "--seed", "\uff12"], _CAP_USAGE
     + "twistcap cap-identity: error: argument --seed: '\uff12' is not an "
     "integer\n"),
    (["cap-identity", "--complex", "circle", "--seed", "+1"], _CAP_USAGE
     + "twistcap cap-identity: error: argument --seed: '+1' is not an "
     "integer\n"),
    (["corpus-all", "--seed", "1_0"], """\
usage: twistcap corpus-all [-h] [--seed SEED] [--trials TRIALS]
                           [--format {tsv,plain}]
twistcap corpus-all: error: argument --seed: '1_0' is not an integer
"""),
    (["nope"], _TOP_USAGE + "twistcap: error: argument command: invalid "
     f"choice: 'nope' (choose from {_COMMAND_CHOICES})\n"),
    (["diagram6", "--config", "nope"], """\
usage: twistcap diagram6 [-h] --config {torus,sphere,klein} [--system SYSTEM]
                         [--ring RING] [--seed SEED] [--format {tsv,plain}]
twistcap diagram6: error: argument --config: invalid choice: 'nope' \
(choose from 'torus', 'sphere', 'klein')
"""),
    (["check-mv", "--complex", "torus"], """\
usage: twistcap check-mv [-h] --complex COMPLEX [--system SYSTEM]
                         [--ring RING] [--seed SEED] [--format {tsv,plain}]
                         --cover COVER
twistcap check-mv: error: the following arguments are required: --cover
"""),
    (["validate", "--complex", "rp2", "--system", "constant"], _TOP_USAGE
     + "twistcap: error: unrecognized arguments: --system constant\n"),
    (["validate", "--complex", "rp2", "--ring", "Z/2"], _TOP_USAGE
     + "twistcap: error: unrecognized arguments: --ring Z/2\n"),
    (["lemma2", "--complex", "rp2", "--seed", "1"], _TOP_USAGE
     + "twistcap: error: unrecognized arguments: --seed 1\n"),
], ids=["no-complex", "format-xml", "trials-0", "trials-fullwidth",
        "seed-fullwidth", "seed-plus", "seed-underscore", "unknown-command",
        "config-nope", "no-cover", "system-on-validate", "ring-on-validate",
        "seed-on-lemma2"])
def test_malformed_command_lines_exit_2(monkeypatch, capsys, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # the width usage lines wrap at
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def _unreadable(tmp_path, kind):
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"dim 2\n# caf\xe9\n")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
@pytest.mark.parametrize("option", ["--complex", "--system"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, option, kind):
    path = _unreadable(tmp_path, kind)
    argv = {"--complex": ("verify-duality", "--complex", path),
            "--system": ("verify-duality", "--complex", "circle",
                         "--system", path)}[option]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error:") and "cannot read" in err


@pytest.mark.parametrize("command", ["validate", "orientation",
                                     "fundamental-class", "lemma1", "lemma2",
                                     "phi-check", "cap-identity",
                                     "verify-duality"])
def test_zero_dimensional_complex(tmp_path, capsys, command):
    path = tmp_path / "points.cx"
    path.write_text("dim 0\nsimplex 0\nsimplex 1\n")
    code, out, err = run(capsys, command, "--complex", str(path))
    if command == "validate":
        assert code == 1
        assert "each_ridge_in_two_facets\tFAIL" in out
        assert "closed_pseudomanifold\tFAIL" in out
    else:
        assert code == 2 and not out
        assert err.startswith("error:") and "closed" in err


def _pinched(build):
    """A 6x6 grid surface with vertices 0 and 21 identified: a closed
    pseudomanifold whose dual graph is connected, but whose vertex 0 has a
    star in two pieces."""
    grid = build(6, 6)
    relabel = [0 if v == 21 else v - (v > 21) for v in range(36)]
    cx = SimplicialComplex(35, [tuple(relabel[v] for v in f)
                                for f in grid.facets])
    assert validate(cx).closed_pseudomanifold
    return cx


def _suspension(cx):
    """The suspension of `cx`, with cone points n and n + 1 for n vertices."""
    n = cx.vertex_count
    return SimplicialComplex(n + 2, [f + (apex,) for f in cx.facets
                                     for apex in (n, n + 1)])


def _pinched_grid(tmp_path, build):
    path = tmp_path / "pinched.cx"
    path.write_text(dumps_complex(_pinched(build)))
    return str(path)


@pytest.mark.parametrize("build", [_grid_torus, _grid_klein],
                         ids=["torus", "klein"])
def test_pinched_vertex_fails_link_validation(build):
    # the pinch vertex's link is two circles; in the suspension, each apex
    # has the pinched surface as its link
    cx = _pinched(build)
    for complex_ in (cx, _suspension(cx)):
        report = validate(complex_)
        assert report.closed_pseudomanifold
        assert not report.links_validated


@pytest.mark.parametrize("command", ["orientation", "fundamental-class",
                                     "lemma1", "verify-duality"])
def test_an_inconsistent_vertex_star_exits_2(tmp_path, capsys, command):
    # in the suspension of RP^2 the star of each cone point is the cone on
    # RP^2, which no choice of facet signs orients
    path = tmp_path / "suspended_rp2.cx"
    path.write_text(dumps_complex(_suspension(named_complex("rp2"))))
    assert run(capsys, "validate", "--complex", str(path))[0] == 0
    code, out, err = run(capsys, command, "--complex", str(path))
    assert (code, out) == (2, "")
    assert err == "error: star of vertex 6 is not orientably consistent\n"


@pytest.mark.parametrize("ring", ["Z", "Z/3", "Q"])
def test_a_failing_duality_row_prints_its_witness_certificate(tmp_path,
                                                              capsys, ring):
    # the suspension of the 7-vertex torus is a closed pseudomanifold but no
    # homology manifold: H^1 = 0 against H_2 of rank 2, a cokernel witness,
    # and H^2 of rank 2 against H_1 = 0, a kernel witness
    path = tmp_path / "suspended_torus.cx"
    path.write_text(dumps_complex(_suspension(named_complex("torus"))))
    code, out, err = run(capsys, "verify-duality", "--complex", str(path),
                         "--ring", ring)
    assert (code, err) == (1, "")
    rows = [line.split("\t")[3:] for line in out.splitlines()[4:6]]
    assert rows == [["FAIL", "4f8887b738ef"], ["FAIL", "37ac1695b599"]]


@pytest.mark.parametrize("build", [_grid_torus, _grid_klein],
                         ids=["torus", "klein"])
@pytest.mark.parametrize("command", ["orientation", "fundamental-class",
                                     "lemma1", "lemma2", "phi-check",
                                     "verify-duality", "cap-identity"])
def test_pinched_surface_exits_2(tmp_path, capsys, command, build):
    path = _pinched_grid(tmp_path, build)
    code, out, err = run(capsys, command, "--complex", path)
    assert code == 2 and not out
    assert err == "error: star of vertex 0 is disconnected\n"


# -- check failures exit 1 with a FAIL line, not 2 ---------------------------

def assert_check_failure(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# twistcap 0.1.0"
    assert lines[1].startswith(f"# command={argv[0]} ")
    assert lines[-2].split("\t")[:2] == ["FAIL", name]
    assert lines[-1] == "# result=fail"


def test_fundamental_cycle_failure_exits_1(monkeypatch, capsys):
    # the direct construction over the constant system of a non-orientable
    # surface: the facet signs do not close up
    def direct_over_constant(cx, ring):
        return chains.fundamental_class_direct(cx, ring,
                                               constant_system(cx, ring))

    monkeypatch.setattr(acceptance, "fundamental_class_direct",
                        direct_over_constant)
    assert_check_failure(capsys, "NotAFundamentalCycle",
                         ["fundamental-class", "--complex", "rp2"])


def test_failed_inverse_certificate_exits_1(monkeypatch, capsys):
    # is_isomorphism verifies its inverse against a doubled identity
    class DoubledIdentity(ExactMatrix):
        @classmethod
        def identity(cls, ring, n):
            return ExactMatrix.identity(ring, n).scale(2)

    monkeypatch.setattr(fpmodules, "ExactMatrix", DoubledIdentity)
    assert_check_failure(capsys, "CertificateFailed",
                         ["verify-duality", "--complex", "torus"])


def test_escaping_connecting_chain_exits_1(monkeypatch, capsys):
    # the zig-zag takes the boundary of the first half of every chain
    # instead of its A-part
    def split_in_half(spaces, k):
        d = spaces.absolute.boundary(k)
        half = ExactMatrix._from_rows(d.ring, [
            {i: 1} if i < d.cols // 2 else {} for i in range(d.cols)], d.cols)
        return d @ half @ spaces.transfer(spaces.whole, spaces.absolute, k)

    monkeypatch.setattr(mv._MVSpaces, "zigzag", split_in_half)
    assert_check_failure(capsys, "ConnectingChainEscapes",
                         ["check-mv", "--complex", "torus",
                          "--cover", "cylinders"])


def _bump_first_row(matrix):
    """`matrix` with one unit added to every entry of its first row."""
    ring = matrix.ring
    first = {j: x for j in range(matrix.cols)
             if (x := ring.normalize(matrix.entry(0, j) + 1))}
    return ExactMatrix._from_rows(ring, (first,) + matrix.sparse_rows[1:],
                                  matrix.cols)


def test_connecting_image_not_a_cycle_exits_1(monkeypatch, capsys):
    # the homology zig-zag lands one unit off a cycle
    zig_zag = mv._connecting_chain
    monkeypatch.setattr(mv, "_connecting_chain", lambda spaces, k, cycles:
                        _bump_first_row(zig_zag(spaces, k, cycles)))
    assert_check_failure(capsys, "ConnectingImageNotCycle",
                         ["check-mv", "--complex", "torus",
                          "--cover", "cylinders"])


def test_connecting_image_not_a_cocycle_exits_1(monkeypatch, capsys):
    # the glued coboundary lands one unit off a cocycle
    glue = mv._glue_coboundary
    monkeypatch.setattr(mv, "_glue_coboundary", lambda spaces, k, cocycles:
                        _bump_first_row(glue(spaces, k, cocycles)))
    assert_check_failure(capsys, "ConnectingImageNotCycle",
                         ["check-mv", "--complex", "torus",
                          "--cover", "cylinders"])


def test_disagreeing_coboundaries_exit_1(monkeypatch, capsys):
    # the B half of the cochain splitting sends every basis cochain one
    # unit off in its first entry
    split = mv._MVSpaces.split

    def split_off_by_one(spaces, k):
        s_beta, s_gamma = split(spaces, k)
        return s_beta, _bump_first_row(s_gamma)

    monkeypatch.setattr(mv._MVSpaces, "split", split_off_by_one)
    assert_check_failure(capsys, "CoboundariesDisagree",
                         ["check-mv", "--complex", "torus",
                          "--cover", "cylinders"])


def _negate_first_column(matrix):
    ring = matrix.ring
    return ExactMatrix._from_rows(ring, [
        {j: ring.normalize(-x) if j == 0 else x for j, x in row.items()}
        for row in matrix.sparse_rows], matrix.cols)


@pytest.mark.parametrize("fault, sign", [
    (_bump_first_row, "+1"),                 # a route off the cycles
    (lambda zigzag: zigzag.scale(2), "+1"),  # neither weight matches
    (_negate_first_column, "n/a"),           # generators disagree on a sign
], ids=["off-the-cycles", "both-weights-fail", "signs-disagree"])
def test_a_faulty_connecting_route_fails_the_connecting_block(
        monkeypatch, capsys, fault, sign):
    # only in the block of degree 0, so each fault fails through one branch;
    # the block of degree 1 still reads the sign +1
    zig_zag = mv._connecting_chain
    monkeypatch.setattr(mv, "_connecting_chain", lambda spaces, k, cycles:
                        fault(zig_zag(spaces, k, cycles)) if k == 2
                        else zig_zag(spaces, k, cycles))
    code, out, err = run(capsys, "diagram6", "--config", "torus")
    assert (code, err) == (1, "")
    assert out.splitlines()[-4:] == ["cap-square-left\tok\t+1",
                                     "cap-square-right\tok\t+1",
                                     f"connecting\tFAIL\t{sign}",
                                     "# result=fail"]


def test_cap_rung_off_the_cycles_fails_both_cap_squares(monkeypatch, capsys):
    # the cap rung into U reverses its rows, so it sends cycles off the
    # cycles: both squares through H(U) fail, as rows, not as an error
    U = mv.named_diagram6("torus")["U"]
    cap = mv.cap_matrix

    def rows_reversed_into_u(cochain_pc, chain_pc, out_pc, k, n, a_vec):
        matrix = cap(cochain_pc, chain_pc, out_pc, k, n, a_vec)
        if out_pc.pool != U:
            return matrix
        return ExactMatrix._from_rows(matrix.ring, matrix.sparse_rows[::-1],
                                      matrix.cols)

    monkeypatch.setattr(mv, "cap_matrix", rows_reversed_into_u)
    code, out, err = run(capsys, "diagram6", "--config", "torus")
    assert code == 1 and err == ""
    assert "cap-square-left\tFAIL" in out
    assert "cap-square-right\tFAIL" in out
    assert "connecting\tok\t+1" in out
    assert out.splitlines()[-1] == "# result=fail"


def test_antisymmetric_inclusion_off_by_one_entry_fails_phi(monkeypatch,
                                                            capsys):
    # one entry of the degree-1 antisymmetric inclusion moves down a row
    split = covers.split_maps

    def moved_entry(cover, ring, K=None):
        maps = split(cover, ring, K)
        d = maps.degrees[1]
        rows = [dict(row) for row in d.incl_minus.sparse_rows]
        i = next(i for i, row in enumerate(rows) if row)
        j = next(iter(rows[i]))
        rows[(i + 1) % len(rows)][j] = rows[i].pop(j)
        moved = ExactMatrix._from_rows(d.incl_minus.ring, rows,
                                       d.incl_minus.cols)
        faulty = covers.DegreeSplit(d.sigma, d.delta, d.incl_plus, moved,
                                    d.orbit_bases)
        return covers.SplitMaps({**maps.degrees, 1: faulty})

    monkeypatch.setattr(covers, "split_maps", moved_entry)
    code, out, err = run(capsys, "phi-check", "--complex", "rp2")
    assert code == 1 and err == ""
    assert "K=all phi_boundary_commutes\tFAIL" in out
    assert "K=all phi_iso\tok" in out


CHECK_MV = ("check-mv", "--complex", "torus", "--cover", "cylinders")


@pytest.mark.parametrize("warm, fault", [
    (("verify-duality", "--complex", "torus"),
     test_failed_inverse_certificate_exits_1),
    (CHECK_MV, test_escaping_connecting_chain_exits_1),
    (CHECK_MV, test_connecting_image_not_a_cycle_exits_1),
    (CHECK_MV, test_connecting_image_not_a_cocycle_exits_1),
    (CHECK_MV, test_disagreeing_coboundaries_exit_1),
    (("diagram6", "--config", "torus"),
     test_cap_rung_off_the_cycles_fails_both_cap_squares),
], ids=lambda x: x.__name__ if callable(x) else x[0])
def test_a_fault_after_a_warm_run_still_fails(monkeypatch, capsys, warm,
                                              fault):
    # the same command has run and passed in this process, so its covers,
    # maps and image factorizations are memoized; the check paths run again
    # and the injected fault still gives its FAIL row and exit 1
    assert run(capsys, *warm)[0] == 0
    fault(monkeypatch, capsys)


# -- the exit code is a property of the rows ----------------------------------

def run_checking_rows(capsys, *argv):
    """`run`, asserting that the exit code is 1 exactly when a printed row
    has a FAIL cell."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code == 1) == has_fail_row(captured.out)
    return code, captured.out, captured.err


# every fault-injected CLI test above: each runs again below with a `run`
# that checks a contract of the exit code or of the report's shape
FAULTS = (
    test_corpus_all_formatting,
    test_fundamental_cycle_failure_exits_1,
    test_failed_inverse_certificate_exits_1,
    test_escaping_connecting_chain_exits_1,
    test_connecting_image_not_a_cycle_exits_1,
    test_connecting_image_not_a_cocycle_exits_1,
    test_disagreeing_coboundaries_exit_1,
    test_cap_rung_off_the_cycles_fails_both_cap_squares,
    test_antisymmetric_inclusion_off_by_one_entry_fails_phi,
)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_a_fault_exits_1_exactly_with_a_fail_row(monkeypatch, capsys, fault):
    # each fault-injected run again, its `run` checking the contract
    monkeypatch.setitem(globals(), "run", run_checking_rows)
    fault(monkeypatch, capsys)


@pytest.mark.parametrize("rows, body, code", [
    ([("FAIL", "x", "")], ["FAIL\tx\t"], 1),
    ([("a", False, "")], ["a\tFAIL\t"], 1),
    ([("a", True, "")], ["a\tok\t"], 0),
    ([("orientable", "False")], ["orientable\tFalse"], 0),
    ([("degree", "left"), (0, "Z")], ["degree\tleft", "0\tZ"], 0),
])
def test_report_rows_render_and_decide_the_exit_code(capsys, rows, body,
                                                     code):
    args = argparse.Namespace(command="rows", format="tsv")
    assert cli.render(args, iter([{"seed": 0}, *rows])) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# twistcap 0.1.0", "# command=rows seed=0"]
    assert lines[2:-1] == body
    assert lines[-1] == f"# result={'fail' if code else 'pass'}"


# -- one report shape: a check that raises is a FAIL row of its report --------

def test_a_driver_that_raises_ends_its_report_with_a_fail_row(monkeypatch,
                                                              capsys):
    def driver(cx, ring):
        yield "first", True, "computed"
        raise NotAFundamentalCycle("facet signs do not close up")

    text, options, _ = cli._COMMANDS["lemma1"]
    monkeypatch.setitem(cli._COMMANDS, "lemma1", (
        text, options, functools.partial(cli._cmd_rows, driver)))
    code, out, err = run(capsys, "lemma1", "--complex", "rp2")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# twistcap 0.1.0"
    assert lines[1].startswith("# command=lemma1 complex=rp2 ")
    assert lines[2:] == [
        "first\tok\tcomputed",
        "FAIL\tNotAFundamentalCycle\tfacet signs do not close up",
        "# result=fail"]


def test_an_input_error_after_the_header_exits_2_with_nothing_printed(
        monkeypatch, capsys):
    def refusing(args):
        yield dict(complex="x")
        yield "first", True, ""
        raise TwistcapError("refused")

    text, options, _ = cli._COMMANDS["validate"]
    monkeypatch.setitem(cli._COMMANDS, "validate", (text, options, refusing))
    code, out, err = run(capsys, "validate", "--complex", "rp2")
    assert (code, out, err) == (2, "", "error: refused\n")


def test_a_criterion_that_raises_keeps_the_rows_before_it(monkeypatch,
                                                          capsys):
    def uncertified(seed=0):
        raise CertificateFailed("inverse certificate failed verification")

    monkeypatch.setattr(acceptance, "check_duality", uncertified)
    code, out, err = run(capsys, "corpus-all", "--trials", "1")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["# twistcap 0.1.0",
                         "# command=corpus-all seed=0 trials=1"]
    assert [line.split("\t")[:2] for line in lines[2:-2]] == [
        [name, "ok"] for name in (
            "structural d2=0 delta2=0", "lemma 1 deck reversal",
            "lemma 2 pushforward vanishes", "splitting sequences and phi",
            "fundamental class agreement", "cap boundary identity")]
    assert lines[-2:] == [
        "FAIL\tCertificateFailed\tinverse certificate failed verification",
        "# result=fail"]


def run_checking_shape(capsys, *argv):
    """`run_checking_rows`, asserting also that an exit-1 report has its
    header and its result line, and that an exit-2 run prints nothing."""
    code, out, err = run_checking_rows(capsys, *argv)
    lines = out.splitlines()
    if code == 1:
        assert lines[0] == "# twistcap 0.1.0"
        assert lines[1].startswith(f"# command={argv[0]} ")
        assert lines[-1] == "# result=fail"
    elif code == 2:
        assert out == ""
    return code, out, err


@pytest.mark.parametrize("fault", FAULTS + (
    test_a_driver_that_raises_ends_its_report_with_a_fail_row,
    test_an_input_error_after_the_header_exits_2_with_nothing_printed,
    test_a_criterion_that_raises_keeps_the_rows_before_it,
), ids=lambda fault: fault.__name__)
def test_every_failing_report_has_one_shape(monkeypatch, capsys, fault):
    # each fault-injected run again, its `run` checking the report's shape
    monkeypatch.setitem(globals(), "run", run_checking_shape)
    fault(monkeypatch, capsys)
