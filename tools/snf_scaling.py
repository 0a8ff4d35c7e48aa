"""Time duality verification on growing grid surfaces and fit its scaling.

For each n×n grid Klein bottle and torus built by twistcap.complexes,
n = 4…12, and each ring Z, Z/3 and Q, time one verify_duality call with
the constant system, then the Klein bottle over Z at n = 16 and 20.  The
Klein bottle over Z at n = 40 and 60 times only the complex layers, since
duality at those sizes takes minutes.  Each case runs in a fresh child
process (this script with --case), so no case shares a cache or inherits
memory from another.  The child times the duality call on a freshly built
complex, and then a second call on the same complex and system (repeat_s),
which finds every homology presentation memoized on the pair complexes of
the first; then, three times over and each time after a full garbage
collection, it builds the complex again, validates it and builds its
orientation system.  It reports the seconds of the two duality calls, the
number of Smith forms the first one makes (snf, one per elimination), the
least seconds of each of those three steps (build_s, validate_s,
orientation_s), its own peak RSS (ru_maxrss) and gc_freed, the number of
objects the cycle collector freed over the case, counting a last
collection after the case drops its complexes.  A memo refers to its owner
weakly, so a dropped complex is freed by reference counting and gc_freed
is 0.  One line is printed per case.
One `# fit` line per surface and ring gives the least-squares slope of
log(time) against log(number of simplices) over n = 4…12, and one per
complex-layer column does so for the Klein bottle over Z at n = 20…60.
A last table times check_split_exactness(split_maps(cover, Z)) on the
orientation double cover of the Klein bottle at n = 24 (the --split child:
simplices, seconds, peak RSS, verdict).  Another times the Mayer-Vietoris
steps on the Klein bottle at n = 24 over Z with the orientation system,
covered by the bands of columns 0..12 and 12..23,0 (the --mv child: the
seconds of a first mv_homology, a first mv_cohomology, splitting_holds and
the warm pair of both sequences again, peak RSS and the verdicts).  The
last checks diagram (6) on the Klein bottle of 24 x 16 squares over Z with
the orientation system, on the bands that mv._grid_bands lays across x
(the --diagram6 child, given the surface, the ring and NXxNY with NX a
multiple of 4: simplices, the seconds of a first diagram6_check, peak RSS
and the verdict; a shape the bands refuse exits 2 with its message).

Run from anywhere:  python3 tools/snf_scaling.py
"""

import argparse
import gc
import math
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from twistcap import matrices  # noqa: E402
from twistcap.cap import verify_duality  # noqa: E402
from twistcap.complexes import _grid_klein, _grid_torus, validate  # noqa: E402
from twistcap.covers import (check_split_exactness,  # noqa: E402
                             orientation_cover, split_maps)
from twistcap.localsystems import (constant_system,  # noqa: E402
                                   orientation_system)
from twistcap.errors import TwistcapError  # noqa: E402
from twistcap.mv import (CoverPair, _grid_bands, _strips,  # noqa: E402
                         diagram6_check, mv_cohomology, mv_homology,
                         splitting_holds)
from twistcap.rings import parse_ring  # noqa: E402

SURFACES = {"klein": _grid_klein, "torus": _grid_torus}
RINGS = ("Z", "Z/3", "Q")
SIDES = range(4, 13)
LARGE = (("klein", "Z", 16), ("klein", "Z", 20))
LAYERS_ONLY = (("klein", "Z", 40), ("klein", "Z", 60))
LAYER_FIT = (("klein", "Z", 20),) + LAYERS_ONLY
SPLIT = ("klein", "Z", 24)
MV = ("klein", "Z", 24)
DIAGRAM6 = ("klein", "Z", "24x16")


def loglog_slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


def _count_smith_forms():
    """A one-item list counting the Smith forms made from here on: each
    runs the integer elimination once."""
    count = [0]
    core = matrices._euclid_core

    def counted(*args):
        count[0] += 1
        return core(*args)

    matrices._euclid_core = counted
    return count


def run_case(surface, ring_name, n):
    """One case, in this process: print simplices, build, validate and
    orientation seconds, the seconds and Smith forms of the first duality
    call, the seconds of the repeated one, peak RSS in MB, the verdict and
    gc_freed, tab-separated; a case in LAYERS_ONLY prints "-" for the
    duality."""
    gc.collect()   # what start-up left, the argument parser's formatters
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append(info["collected"])
    gc.callbacks.append(count)
    build = SURFACES[surface]
    ring = parse_ring(ring_name)
    seconds = smith_forms = repeat = verified = "-"
    if (surface, ring_name, n) not in LAYERS_ONLY:
        cx = build(n, n)
        system = constant_system(cx, ring)
        made = _count_smith_forms()
        report, duality_s = _timed(verify_duality, cx, system, ring)
        smith_forms = made[0]
        again, repeat_s = _timed(verify_duality, cx, system, ring)
        seconds, repeat = f"{duality_s:.3f}", f"{repeat_s:.3f}"
        verified = report.all_verified and again.all_verified
    layers = []
    for _ in range(3):
        # a full collection first, so that no timed step pays for one
        gc.collect()
        cx, build_s = _timed(build, n, n)
        _, validate_s = _timed(validate, cx)
        _, orientation_s = _timed(orientation_system, cx, ring)
        layers.append((build_s, validate_s, orientation_s))
    build_s, validate_s, orientation_s = map(min, zip(*layers))
    simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cx = system = report = again = None   # the case drops its complexes
    gc.collect()
    print(f"{simplices}\t{build_s:.3f}\t{validate_s:.4f}\t"
          f"{orientation_s:.4f}\t{seconds}\t{smith_forms}\t{repeat}\t"
          f"{rss_mb:.1f}\t{verified}\t{sum(freed)}")


def run_split_case(surface, ring_name, n):
    """Split exactness of the orientation cover, in this process: print
    simplices, the seconds of check_split_exactness(split_maps(...)), peak
    RSS in MB and the verdict, tab-separated."""
    cx = SURFACES[surface](n, n)
    ring = parse_ring(ring_name)
    cover = orientation_cover(cx)
    verdicts, seconds = _timed(
        lambda: check_split_exactness(split_maps(cover, ring)))
    verified = all(v["seq1"] and v["seq2"] for v in verdicts.values())
    simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{simplices}\t{seconds:.3f}\t{rss_mb:.1f}\t{verified}")


def run_mv_case(surface, ring_name, n):
    """The Mayer-Vietoris steps on a two-band cover, in this process: print
    simplices, the seconds of a first mv_homology, a first mv_cohomology,
    splitting_holds and the warm pair of both sequences, peak RSS in MB and
    the verdicts (both sequences exact, the splitting identity, both warm
    sequences exact), tab-separated."""
    cx = SURFACES[surface](n, n)
    G = orientation_system(cx, parse_ring(ring_name))
    h = n // 2
    bands = _strips(cx, (n, n, surface == "klein"), 0, set(range(h + 1)),
                    set(range(h, n)) | {0})
    pair = CoverPair(cx, *bands)
    homology, homology_s = _timed(mv_homology, pair, G)
    cohomology, cohomology_s = _timed(mv_cohomology, pair, G)
    split, split_s = _timed(splitting_holds, pair, G)
    warm, warm_s = _timed(lambda: (mv_homology(pair, G).all_exact
                                   and mv_cohomology(pair, G).all_exact))
    simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verified = "/".join(str(v) for v in (
        homology.all_exact and cohomology.all_exact, split, warm))
    print(f"{simplices}\t{homology_s:.3f}\t{cohomology_s:.3f}\t"
          f"{split_s:.4f}\t{warm_s:.3f}\t{rss_mb:.1f}\t{verified}")


def run_diagram6_case(surface, nx, ny, ring_name):
    """Diagram (6) on the nx x ny grid surface banded across x, with the
    orientation system, in this process: print simplices, the seconds of a
    first diagram6_check, peak RSS in MB and the verdict, tab-separated."""
    cx = SURFACES[surface](nx, ny)
    ring = parse_ring(ring_name)
    bands = _grid_bands(cx, (nx, ny, surface == "klein"), 0)
    report, seconds = _timed(diagram6_check, cx, *bands,
                             orientation_system(cx, ring), ring)
    simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{simplices}\t{seconds:.3f}\t{rss_mb:.1f}\t{report.all_verified}")


def _child(flag, surface, ring_name, n):
    """The fields one case prints in a child process."""
    return subprocess.run([sys.executable, os.path.abspath(__file__), flag,
                           surface, ring_name, str(n)],
                          capture_output=True, text=True, check=True
                          ).stdout.split()


def measure(surface, ring_name, n):
    """Run one case in a child process; print its line and return
    {column: value} for simplices and the timed columns."""
    fields = _child("--case", surface, ring_name, n)
    print(f"{surface}\t{ring_name}\t{n}\t" + "\t".join(fields), flush=True)
    names = ("simplices", "build_s", "validate_s", "orientation_s", "seconds",
             "snf", "repeat_s")
    return {name: float(x) for name, x in zip(names, fields) if x != "-"}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--case", nargs=3, metavar=("SURFACE", "RING", "N"))
    p.add_argument("--split", nargs=3, metavar=("SURFACE", "RING", "N"))
    p.add_argument("--mv", nargs=3, metavar=("SURFACE", "RING", "N"))
    p.add_argument("--diagram6", nargs=3, metavar=("SURFACE", "RING", "NXxNY"))
    args = p.parse_args()
    if args.diagram6:
        surface, ring_name, shape = args.diagram6
        try:
            nx, ny = map(int, shape.split("x"))
        except ValueError:
            p.error(f"--diagram6 takes NXxNY, not {shape!r}")
        try:
            run_diagram6_case(surface, nx, ny, ring_name)
        except TwistcapError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        return
    for child, run in ((args.case, run_case), (args.split, run_split_case),
                       (args.mv, run_mv_case)):
        if child:
            surface, ring_name, n = child
            run(surface, ring_name, int(n))
            return
    print("surface\tring\tn\tsimplices\tbuild_s\tvalidate_s\t"
          "orientation_s\tseconds\tsnf\trepeat_s\tpeak_rss_mb\tverified\t"
          "gc_freed")
    for surface in SURFACES:
        for ring_name in RINGS:
            rows = [measure(surface, ring_name, n) for n in SIDES]
            points = [(r["simplices"], r["seconds"]) for r in rows]
            print(f"# fit {surface} {ring_name} "
                  f"exponent={loglog_slope(points):.2f}", flush=True)
    rows = {case: measure(*case) for case in LARGE + LAYERS_ONLY}
    for column in ("validate_s", "orientation_s"):
        points = [(rows[case]["simplices"], rows[case][column])
                  for case in LAYER_FIT]
        print(f"# fit klein Z {column} n=20-60 "
              f"exponent={loglog_slope(points):.2f}", flush=True)
    print("surface\tring\tn\tsimplices\tsplit_s\tpeak_rss_mb\tverified")
    print("\t".join(map(str, SPLIT + tuple(_child("--split", *SPLIT)))))
    print("surface\tring\tn\tsimplices\thomology_s\tcohomology_s\t"
          "splitting_s\twarm_pair_s\tpeak_rss_mb\tverified")
    print("\t".join(map(str, MV + tuple(_child("--mv", *MV)))))
    print("surface\tring\tshape\tsimplices\tdiagram6_s\tpeak_rss_mb\t"
          "verified")
    print("\t".join(map(str, DIAGRAM6 + tuple(_child("--diagram6",
                                                     *DIAGRAM6)))))


if __name__ == "__main__":
    main()
