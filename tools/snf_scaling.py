"""Time duality verification on growing grid surfaces and fit its scaling.

For each n×n grid Klein bottle and torus built by twistcap.complexes,
n = 4…12, and each ring Z, Z/3 and Q, time one verify_duality call with
the constant system, then the Klein bottle over Z at n = 16 and 20.  Each
case runs in a fresh child process (this script with --case), so no case
shares a cache or inherits memory from another; the child reports the
seconds to build the complex (build_s), the seconds of the duality call and
its own peak RSS (ru_maxrss).  One line is printed per case,
and one `# fit` line per surface and ring with the least-squares slope of
log(time) against log(number of simplices) over n = 4…12.

Run from anywhere:  python3 tools/snf_scaling.py
"""

import argparse
import math
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from twistcap.cap import verify_duality  # noqa: E402
from twistcap.complexes import _grid_klein, _grid_torus  # noqa: E402
from twistcap.localsystems import constant_system  # noqa: E402
from twistcap.rings import parse_ring  # noqa: E402

SURFACES = {"klein": _grid_klein, "torus": _grid_torus}
RINGS = ("Z", "Z/3", "Q")
SIDES = range(4, 13)
LARGE = (("klein", "Z", 16), ("klein", "Z", 20))


def loglog_slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def run_case(surface, ring_name, n):
    """One case, in this process: print simplices, build seconds, seconds,
    peak RSS in MB and the verdict, tab-separated."""
    start = time.perf_counter()
    cx = SURFACES[surface](n, n)
    build_s = time.perf_counter() - start
    ring = parse_ring(ring_name)
    simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
    start = time.perf_counter()
    report = verify_duality(cx, constant_system(cx, ring), ring)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{simplices}\t{build_s:.3f}\t{seconds:.3f}\t{rss_mb:.1f}\t"
          f"{report.all_verified}")


def measure(surface, ring_name, n):
    """Run one case in a child process; print its line and return
    (simplices, seconds)."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--case",
                          surface, ring_name, str(n)],
                         capture_output=True, text=True, check=True).stdout
    simplices, build_s, seconds, rss_mb, verified = out.split()
    print(f"{surface}\t{ring_name}\t{n}\t{simplices}\t{build_s}\t{seconds}\t"
          f"{rss_mb}\t{verified}", flush=True)
    return int(simplices), float(seconds)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--case", nargs=3, metavar=("SURFACE", "RING", "N"))
    args = p.parse_args()
    if args.case:
        surface, ring_name, n = args.case
        run_case(surface, ring_name, int(n))
        return
    print("surface\tring\tn\tsimplices\tbuild_s\tseconds\tpeak_rss_mb\t"
          "verified")
    for surface in SURFACES:
        for ring_name in RINGS:
            points = [measure(surface, ring_name, n) for n in SIDES]
            print(f"# fit {surface} {ring_name} "
                  f"exponent={loglog_slope(points):.2f}", flush=True)
    for case in LARGE:
        measure(*case)


if __name__ == "__main__":
    main()
