"""Spans around the public functions of each twistcap module, from outside.

``Tracer.install`` wraps the functions named in ``SPANS`` and rebinds every
name that refers to them in every loaded ``twistcap`` module (a function
imported by name, such as ``smith_normal_form`` in ``fpmodules`` and
``cap``, is one more reference to rebind), so no call skips its span.
Methods are wrapped on their class.  ``COUNTED`` constructors only count.

Each span records its name, start, end, parent and check id in flat arrays
that stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; a child covers its own bookkeeping
too, so the tracer's cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute path, span name)
SPANS = (
    ("matrices", "smith_normal_form", "matrices.smith_normal_form"),
    ("matrices", "ExactMatrix.__matmul__", "matrices.matmul"),
    ("matrices", "kernel_with_relations", "matrices.kernel_with_relations"),
    ("rings", "RingSpec.unit_scaling_to_canonical",
     "rings.unit_scaling_to_canonical"),
    ("fpmodules", "homology_presentation", "fpmodules.homology_presentation"),
    ("fpmodules", "induced_map", "fpmodules.induced_map"),
    ("fpmodules", "is_isomorphism", "fpmodules.is_isomorphism"),
    ("fpmodules", "is_exact_at", "fpmodules.is_exact_at"),
    ("complexes", "SimplicialComplex.__init__", "complexes.SimplicialComplex"),
    ("complexes", "validate", "complexes.validate"),
    ("localsystems", "constant_system", "localsystems.constant_system"),
    ("localsystems", "orientation_system", "localsystems.orientation_system"),
    ("localsystems", "random_flat_system", "localsystems.random_flat_system"),
    ("localsystems", "tensor", "localsystems.tensor"),
    ("localsystems", "validate_flatness", "localsystems.validate_flatness"),
    ("chains", "pair_complex", "chains.pair_complex"),
    ("chains", "PairComplex.boundary", "chains.PairComplex.boundary"),
    ("chains", "PairComplex.coboundary", "chains.PairComplex.coboundary"),
    ("cap", "cap_vector", "cap.cap_vector"),
    ("cap", "cap_matrix", "cap.cap_matrix"),
    ("cap", "verify_duality", "cap.verify_duality"),
    ("covers", "build_double_cover", "covers.build_double_cover"),
    ("covers", "split_maps", "covers.split_maps"),
    ("covers", "check_split_exactness", "covers.check_split_exactness"),
    ("covers", "phi_identify", "covers.phi_identify"),
    ("mv", "mv_homology", "mv.mv_homology"),
    ("mv", "mv_cohomology", "mv.mv_cohomology"),
    ("mv", "mv_splitting", "mv.mv_splitting"),
    ("cli", "main", "cli.main"),
)

# (module, class, counter name): constructions counted, no span
COUNTED = (
    ("matrices", "SmithSolver", "matrices.SmithSolver.constructions"),
    ("fpmodules", "FPModule", "fpmodules.FPModule.constructions"),
    ("localsystems", "LocalSystem", "localsystems.LocalSystem.constructions"),
    ("chains", "PairComplex", "chains.PairComplex.constructions"),
)

SNF = "matrices.smith_normal_form"


def _max_bits(matrix):
    best = 0
    for row in matrix.data:
        if not row:
            continue
        if isinstance(row[0], Fraction):
            for x in row:
                if x:
                    best = max(best, x.numerator.bit_length(),
                               x.denominator.bit_length())
        else:
            best = max(best, max(row).bit_length(), min(row).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in SPANS]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.span_cover = array("d")   # time covered by child spans
        self.stack = []
        self.check_id = -1
        self.root_cover = 0.0
        self.counts = {name: 0 for _, _, name in COUNTED}
        self.snf_cells = 0
        self.snf_max_bits = 0
        self.snf_inputs = set()
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name_id, fn, after=None):
        clock = time.perf_counter
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, checks, cover = self.span_parent, self.span_check, self.span_cover

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else -1
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            checks.append(self.check_id)
            ends.append(0.0)
            cover.append(0.0)
            stack.append(idx)
            starts.append(clock())
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                ends[idx] = clock()
                stack.pop()
                if done and after is not None:
                    after(args, result)
                covered = clock() - t0
                if parent >= 0:
                    cover[parent] += covered
                else:
                    self.root_cover += covered
            return result

        return wrapper

    def _count(self, name, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return init(*args, **kwargs)

        return wrapper

    def _after_snf(self, args, result):
        A = args[0]
        self.snf_cells += A.rows * A.cols
        self.snf_inputs.add(hash(A))
        self.snf_max_bits = max(self.snf_max_bits, _max_bits(result.U),
                                _max_bits(result.V), _max_bits(result.D))

    def install(self):
        """Wrap every target and rebind all references to it; raises if a
        reference in a twistcap module was missed."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "twistcap" or name.startswith("twistcap.")]
        originals = []
        for name_id, (mod_name, path, name) in enumerate(SPANS):
            mod = importlib.import_module(f"twistcap.{mod_name}")
            after = self._after_snf if name == SNF else None
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, self._span(name_id, fn, after))
                continue
            fn = getattr(mod, path)
            wrapper = self._span(name_id, fn, after)
            originals.append(fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, attr, wrapper)
        for mod_name, cls_name, name in COUNTED:
            cls = getattr(importlib.import_module(f"twistcap.{mod_name}"), cls_name)
            self._set(cls, "__init__", self._count(name, cls.__dict__["__init__"]))
        for m in modules:
            for attr, value in vars(m).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{m.__name__}.{attr} escaped the tracer")

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Calls and self seconds per span name, plus the counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += (self.span_end[i] - self.span_start[i]
                                - self.span_cover[i])
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "counts": dict(self.counts),
            "snf_cells": self.snf_cells,
            "snf_max_bits": self.snf_max_bits,
            "snf_unique": len(self.snf_inputs),
            "root_cover_s": self.root_cover,
            "spans": len(self.span_name),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, untraced_s, traced_s):
    """The per-layer metrics of BENCHMARK.json from a traced run's summary.

    ``untraced_s`` and ``traced_s`` are the wall times of the same checks
    run without and with the tracer.
    """
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    snf_calls = calls[SNF]
    out = {
        f"{SNF}.calls": (snf_calls, "count"),
        f"{SNF}.self_s": (self_s[SNF], "s"),
        f"{SNF}.cells": (summary["snf_cells"], "cells"),
        f"{SNF}.max_bits": (summary["snf_max_bits"], "bits"),
        f"{SNF}.unique_ratio": (_ratio(summary["snf_unique"], snf_calls), "ratio"),
        "matrices.SmithSolver.constructions":
            (counts["matrices.SmithSolver.constructions"], "count"),
        "fpmodules.FPModule.constructions":
            (counts["fpmodules.FPModule.constructions"], "count"),
        "localsystems.LocalSystem.constructions":
            (counts["localsystems.LocalSystem.constructions"], "count"),
        "chains.pair_complex.hit_ratio": (
            1.0 - _ratio(counts["chains.PairComplex.constructions"],
                         calls["chains.pair_complex"])
            if calls["chains.pair_complex"] else 0.0, "ratio"),
    }
    for name in ("rings.unit_scaling_to_canonical", "localsystems.tensor",
                 "chains.pair_complex", "complexes.validate", "cap.cap_vector"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("matrices.matmul", "matrices.kernel_with_relations",
                 "rings.unit_scaling_to_canonical",
                 "fpmodules.homology_presentation", "fpmodules.induced_map",
                 "fpmodules.is_isomorphism", "fpmodules.is_exact_at",
                 "localsystems.validate_flatness",
                 "chains.PairComplex.boundary", "chains.PairComplex.coboundary",
                 "complexes.validate", "cap.cap_vector", "cap.cap_matrix",
                 "covers.build_double_cover", "covers.split_maps",
                 "covers.phi_identify", "mv.mv_homology", "mv.mv_cohomology",
                 "mv.mv_splitting", "cli.main"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    out["trace.uncovered_share"] = (
        max(0.0, 1.0 - _ratio(summary["root_cover_s"], traced_s)), "ratio")
    return out
