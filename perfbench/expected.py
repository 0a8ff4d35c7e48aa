"""Expected values behind the benchmark's correctness checks.

Everything here is closed-form topology written down independently of the
library: integral homology of each space with constant and orientation
coefficients, the universal coefficient rule that turns it into cohomology
and field coefficients, and the Euler-characteristic rule that constrains
random flat systems.  A normal form is ``(free_rank, torsion)``, matching
``FPModule.normal_form``.
"""

from __future__ import annotations


class Mismatch(Exception):
    """A library result differs from the expected table."""


# Integral homology H_0, H_1, ... with constant (Z) and orientation (Z^w)
# coefficients.  Orientable spaces have trivial w, so both rows agree.
HOMOLOGY_Z = {
    ("circle", "constant"): ((1, ()), (1, ())),
    ("sphere2", "constant"): ((1, ()), (0, ()), (1, ())),
    ("sphere3", "constant"): ((1, ()), (0, ()), (0, ()), (1, ())),
    ("torus", "constant"): ((1, ()), (2, ()), (1, ())),
    ("rp3", "constant"): ((1, ()), (0, (2,)), (0, ()), (1, ())),
    ("rp2", "constant"): ((1, ()), (0, (2,)), (0, ())),
    ("rp2", "orientation"): ((0, (2,)), (0, ()), (1, ())),
    ("klein", "constant"): ((1, ()), (1, (2,)), (0, ())),
    ("klein", "orientation"): ((0, (2,)), (1, ()), (1, ())),
    # a band [0,1] x S^1 of the grid, and two disjoint ones
    ("annulus", "constant"): ((1, ()), (1, ()), (0, ())),
    ("two-annuli", "constant"): ((2, ()), (2, ()), (0, ())),
}
ORIENTABLE = ("circle", "sphere2", "sphere3", "torus", "rp3", "annulus",
              "two-annuli")
EULER = {"circle": 0, "sphere2": 2, "sphere3": 0, "torus": 0, "rp3": 0,
         "rp2": 1, "klein": 0, "annulus": 0, "two-annuli": 0}
DIMENSION = {"circle": 1, "sphere2": 2, "sphere3": 3, "torus": 2, "rp3": 3,
             "rp2": 2, "klein": 2}


def _integral(space, system):
    if space in ORIENTABLE:
        system = "constant"
    return HOMOLOGY_Z[(space, system)]


def homology(space, system, ring_kind):
    """Normal forms of H_k(space; system) for k = 0..top.

    ``ring_kind`` is ``"Z"`` or ``"field"``; every field used by the
    benchmark has odd or zero characteristic, and all integral torsion here
    is 2-torsion, so over a field only the free ranks survive.
    """
    table = _integral(space, system)
    if ring_kind == "Z":
        return table
    return tuple((free, ()) for free, _ in table)


def cohomology(space, system, ring_kind):
    """H^k = free(H_k) + torsion(H_{k-1}) by universal coefficients."""
    table = _integral(space, system)
    if ring_kind != "Z":
        return tuple((free, ()) for free, _ in table)
    out = []
    for k, (free, _) in enumerate(table):
        prev_torsion = table[k - 1][1] if k else ()
        out.append((free, prev_torsion))
    return tuple(out)


def dual_system(system):
    """The coefficients G (x) M_R on the homology side of duality."""
    return {"constant": "orientation", "orientation": "constant"}[system]


def euler_of_free_ranks(forms):
    return sum((-1) ** k * free for k, (free, _) in enumerate(forms))


def require(condition, message):
    if not condition:
        raise Mismatch(message)


def check_duality_rows(space, system, rank, ring_kind, rows):
    """Check ``(degree, verdict, left_nf, right_nf)`` rows of a duality report.

    Row k pairs H^k(M; G) with H_{n-k}(M; G (x) M_R).  Constant and
    orientation systems are compared with the closed-form tables; a random
    flat system of rank r must give isomorphisms between equal normal forms
    whose free ranks have Euler characteristic r * chi(M).
    """
    n = DIMENSION[space]
    require(len(rows) == n + 1, f"{len(rows)} duality rows for dimension {n}")
    require(all(verdict for _, verdict, _, _ in rows), "a duality row failed")
    require([k for k, _, _, _ in rows] == list(range(n + 1)), "degree order")
    left = [l for _, _, l, _ in rows]
    right = [r for _, _, _, r in rows]
    if system == "random-flat":
        require(left == right, "isomorphic rows with different normal forms")
        require(euler_of_free_ranks(left) == rank * EULER[space],
                f"free ranks {left} miss Euler characteristic")
        if ring_kind != "Z":
            require(all(not t for _, t in left), "torsion over a field")
        return
    require(tuple(left) == cohomology(space, system, ring_kind),
            f"H^* of {space}/{system}: {left}")
    dual = homology(space, dual_system(system), ring_kind)
    require(tuple(right) == tuple(reversed(dual)),
            f"H_(n-*) of {space}/{dual_system(system)}: {right}")


def mv_expected(space, system, ring_kind, kind):
    """Module normal forms along a Mayer-Vietoris report of a two-band cover.

    ``kind`` is ``"homology"`` (nodes A^B, A+B, X from the top degree down)
    or ``"cohomology"`` (nodes X, A+B, A^B from degree 0 up).  The bands are
    annuli, on which both coefficient systems used here are trivial.
    """
    zero = (0, ())
    inter = homology("two-annuli", "constant", ring_kind)
    band = homology("annulus", "constant", ring_kind)
    both = tuple((2 * f, t + t) for f, t in band)
    out = [zero]
    if kind == "homology":
        whole = homology(space, system, ring_kind)
        for k in range(len(whole) - 1, -1, -1):
            out += [inter[k], both[k], whole[k]]
    else:
        whole = cohomology(space, system, ring_kind)
        for k in range(len(whole)):
            out += [whole[k], both[k], inter[k]]
    out.append(zero)
    return tuple(out)


def check_mv_report(space, system, ring_kind, kind, exact, modules):
    """Exactness everywhere; modules from the tables or, for random flat
    systems, Euler characteristic zero on each of the three node families."""
    require(all(exact), f"{kind} sequence not exact at {exact}")
    if system != "random-flat":
        want = mv_expected(space, system, ring_kind, kind)
        require(tuple(modules) == want, f"{kind} modules {modules}")
        return
    interior = modules[1:-1]
    for family in range(3):
        forms = interior[family::3]
        if kind == "homology":
            forms = forms[::-1]
        require(euler_of_free_ranks(forms) == 0,
                f"{kind} node family {family}: {forms}")


def parse_module(text, ring_text):
    """Normal form of a module as the CLI prints it (``Z^2 + Z/2``, ``0``)."""
    if text == "0":
        return (0, ())
    free, torsion = 0, []
    base = f"({ring_text})" if "/" in ring_text else ring_text
    for part in text.split(" + "):
        if part == ring_text:
            free += 1
        elif part.startswith(base + "^"):
            free += int(part[len(base) + 1:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise Mismatch(f"unparsable module {text!r}")
    return (free, tuple(torsion))
