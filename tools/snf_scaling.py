"""Time duality verification on growing grid surfaces and fit its scaling.

For each n×n grid Klein bottle and torus built by twistcap.complexes,
n = 4…12, and each ring Z, Z/3 and Q, time one verify_duality call with
the constant system on a freshly built complex (no cache is shared between
cases).  One line is printed per case, then one `# fit` line per surface
and ring with the least-squares slope of log(time) against log(number of
simplices).

Run from the root of a checkout:  python3 tools/snf_scaling.py
"""

import math
import sys
import time

sys.path.insert(0, "src")

from twistcap.cap import verify_duality  # noqa: E402
from twistcap.complexes import _grid_klein, _grid_torus  # noqa: E402
from twistcap.localsystems import constant_system  # noqa: E402
from twistcap.rings import Q, Z, Zmod  # noqa: E402

SURFACES = (("klein", _grid_klein), ("torus", _grid_torus))
RINGS = (Z, Zmod(3), Q)
SIDES = range(4, 13)


def loglog_slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main():
    print("surface\tring\tn\tsimplices\tseconds\tverified")
    for name, build in SURFACES:
        for ring in RINGS:
            points = []
            for n in SIDES:
                cx = build(n, n)
                simplices = sum(len(cx.faces(k)) for k in range(cx.dimension + 1))
                start = time.perf_counter()
                report = verify_duality(cx, constant_system(cx, ring), ring)
                seconds = time.perf_counter() - start
                points.append((simplices, seconds))
                print(f"{name}\t{ring}\t{n}\t{simplices}\t{seconds:.3f}\t"
                      f"{report.all_verified}", flush=True)
            print(f"# fit {name} {ring} exponent={loglog_slope(points):.2f}",
                  flush=True)


if __name__ == "__main__":
    main()
