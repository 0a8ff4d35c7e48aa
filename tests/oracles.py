"""Independent test oracles.

Nothing here touches the library's elimination code: rank comes from a plain
fraction-based Gaussian elimination, invariant factors from gcds of minors,
and boundary matrices from a 20-line incidence builder.  These are the
yardsticks the real implementations are measured against.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def rational_rank(rows):
    """Row-reduce over Q and count pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _minor_gcd(rows, k):
    """gcd of all k x k minors (integer entries, brute force)."""
    nrows, ncols = len(rows), len(rows[0])
    g = 0
    for rsel in combinations(range(nrows), k):
        for csel in combinations(range(ncols), k):
            g = gcd(g, _det([[rows[i][j] for j in csel] for i in rsel]))
    return g


def _det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    total = 0
    for j, x in enumerate(sq[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in sq[1:]]
            total += (-1) ** j * x * _det(minor)
    return total


def invariant_factors_by_minors(rows):
    """d_1 | d_2 | ... via d_1...d_k = gcd of k x k minors.  Small inputs only."""
    if not rows or not rows[0]:
        return []
    r = rational_rank(rows)
    factors = []
    prev = 1
    for k in range(1, r + 1):
        mk = _minor_gcd(rows, k)
        factors.append(mk // prev)
        prev = mk
    return factors


def boundary_matrix(facets, k):
    """Ordinary simplicial boundary from a facet list, as integer rows.

    Returns the matrix of d_k : C_k -> C_{k-1} with ascending-vertex simplices
    sorted lexicographically, entry (-1)^i for dropping vertex i.
    """
    simplices = {}
    for f in facets:
        f = tuple(sorted(f))
        for size in range(1, len(f) + 1):
            for s in combinations(f, size):
                simplices.setdefault(len(s) - 1, set()).add(s)
    top = sorted(simplices.get(k, ()))
    bottom = sorted(simplices.get(k - 1, ()))
    bindex = {s: i for i, s in enumerate(bottom)}
    rows = [[0] * len(top) for _ in bottom]
    for j, s in enumerate(top):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                rows[bindex[face]][j] += (-1) ** i
    return rows, top, bottom


RP2_FACETS = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


# -- closed pseudomanifolds, by the recursion over vertex links ----------------
# A frozen form of the recursive link check the library once ran, on plain
# sets of ascending vertex tuples, with its own purity, ridge and dual-graph
# tests.  It builds every link explicitly and calls nothing in twistcap.

def face_closure(simplices):
    """Every nonempty face of the given simplices, as ascending tuples."""
    faces = set()
    for s in simplices:
        s = tuple(sorted(s))
        for size in range(1, len(s) + 1):
            faces.update(combinations(s, size))
    return faces


def vertex_link(faces, v):
    """The faces containing v with v removed, or None when v is isolated."""
    link = {tuple(x for x in s if x != v) for s in faces if v in s and len(s) > 1}
    return link or None


def _is_closed_pm(faces):
    """Pure, every ridge in exactly two facets, dual graph connected."""
    n = max(len(s) for s in faces) - 1
    covered = {s[:i] + s[i + 1:] for s in faces for i in range(len(s))}
    if any(len(s) != n + 1 for s in faces if s not in covered):
        return False
    facets = sorted(s for s in faces if len(s) == n + 1)
    ridges = {s: [] for s in faces if len(s) == n}
    for f in facets:
        for i in range(len(f)):
            ridges[f[:i] + f[i + 1:]].append(f)
    if n < 1 or any(len(fs) != 2 for fs in ridges.values()):
        return False
    adjacent = {f: [] for f in facets}
    for a, b in ridges.values():
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {facets[0]}, [facets[0]]
    while stack:
        for g in adjacent[stack.pop()]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return len(seen) == len(facets)


def links_validated(faces):
    """Every vertex link is a closed pseudomanifold of dimension n - 1 whose
    own links pass the same test, down to pairs of points."""
    n = max(len(s) for s in faces) - 1
    if n < 1:
        return False
    vertices = {v for s in faces for v in s}
    return all(_link_is_closed_pm(vertex_link(faces, v), n - 1)
               for v in vertices)


def _link_is_closed_pm(link, expected_dim):
    if link is None or max(len(s) for s in link) - 1 != expected_dim:
        return False
    if expected_dim == 0:
        return len(link) == 2
    return _is_closed_pm(link) and links_validated(link)


def has_fail_row(out, sep="\t"):
    """True when a body line of a CLI report, one that does not start with
    '#', has a cell that is exactly FAIL: the rows alone decide exit 1."""
    return any("FAIL" in line.split(sep) for line in out.splitlines()
               if not line.startswith("#"))
