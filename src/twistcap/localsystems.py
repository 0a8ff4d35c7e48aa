"""Flat local coefficient systems on a simplicial complex.

A system assigns an invertible transport matrix to every edge; flatness over
every triangle is the combinatorial composition law of a functor on the
fundamental groupoid.  Transports follow one direction convention everywhere:
``transport(u, v)`` carries the fiber at the *later* endpoint of the edge path
u -> v back to the fiber at u.  A system stores both directions of every
edge.  A construction that already knows the inverses passes them in, and
each distinct pair of matrix objects is checked with one product instead of
computed: a +-1 transport is its own inverse (a sign system shares one
matrix per sign, so it checks two pairs), a tensor product knows those of
its factors, and a gauged transport g_u^-1 T g_v has the inverse
g_v^-1 T^-1 g_u.  The rank-1 system whose every transport is 1 is the
unit of the tensor product: tensoring with it returns the other factor.
Otherwise a tensor product builds one Kronecker product per distinct pair
of factor matrices, and a 1x1 identity factor gives the other factor's
matrix object, so the tensor of two sign systems holds at most four
matrices.  A random gauge is built with its inverse, so only
the gauges passed to gauge_transform and the transports read from a file
are inverted, once, and a non-invertible transport is rejected there.  A
rank a user asks for is at most MAX_RANK; only tensor products exceed it.

Memoized (`complexes.memo`): the constant, orientation and seeded random
flat systems, one per distinct (ring, rank, seed), a system read from a file
(under its text) and the sign-cocycle kernel on their complex; a tensor
product on its first factor, and a system's square G (x) G under no key
naming G; whether a system is the unit, and its path transports, on the
system.  A system holds its base weakly (`complexes.weak`), so the caller
keeps the complex alive while using the system.

A memoized system takes the table of shared rows (matrices.row_table) of
what its memo hangs on: a system memoized on its complex, and everything
memoized under it (its path transports, tensor products, pair complexes,
presentations, covers and MV spaces), takes the complex's, so equal rows of
the kept matrices of every system and ring on one complex are one dict.
Any other system, such as one that sign_system, gauge_transform or
LocalSystem builds when called directly, has a table of its own, which dies
with it, so a lasting complex keeps nothing of a passing system.  The
transports a constructor computes, the gauged ones of random_flat_system
and the Kronecker products of a tensor, take their rows from the table the
system takes, and gauge_transform's share their rows among themselves; a
transport passed in is kept as the object given.

The orientation system is the rank-1 sign system whose edge signs record
whether carrying a local orientation along the edge reverses it; it is
trivializable exactly when the complex is orientable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import SimplicialComplex, memo, star_signs, validate, weak
from .errors import (BaseMismatch, NotClosedPseudomanifold, RingMismatch,
                     SystemFormatError, TwistcapError)
from .matrices import ExactMatrix, inverse, kernel_with_relations, row_table
from .rings import Q, RingSpec, Zmod, parse_ring

# the largest rank a user may ask for, far above the corpus's, the tests'
# and the benchmark's (at most 3)
MAX_RANK = 100


class LocalSystem:
    """A flat system on `base`, which it holds weakly: the system is
    memoized on its base."""

    __slots__ = ("_base", "ring", "rank", "_transport", "_reverse",
                 "_identity", "_cache", "__weakref__")
    base = weak("base")

    def __init__(self, base: SimplicialComplex, ring: RingSpec, rank: int,
                 transport: dict, known_reverse: dict | None = None):
        if rank < 1:
            raise TwistcapError("rank must be positive")
        edges = set(base.faces(1))
        ident = ExactMatrix.identity(ring, rank)
        cleaned, reverse = {}, {}
        # (id(transport), id(reverse given)) -> its reverse, or None where
        # it has none: one inverse or check per distinct pair; the given
        # matrices stay alive, so ids are stable
        pairs = {}
        for edge, mat in transport.items():
            e = tuple(edge)
            if e not in edges:
                raise TwistcapError(f"{e} is not an edge of the base complex")
            if mat.ring != ring or mat.rows != rank or mat.cols != rank:
                raise TwistcapError(f"transport at {e} has wrong shape or ring")
            given = None if known_reverse is None else known_reverse[e]
            key = (id(mat), id(given))
            if key not in pairs:
                if given is None:
                    try:
                        pairs[key] = inverse(mat)
                    except TwistcapError:
                        pairs[key] = None
                else:
                    # a one-sided inverse of a square matrix over a
                    # commutative ring is two-sided
                    pairs[key] = given if mat @ given == ident else None
            rev = pairs[key]
            if rev is None:
                raise TwistcapError(f"transport at {e} is not invertible")
            reverse[e] = rev
            cleaned[e] = mat
        for e in edges:
            if e not in cleaned:
                cleaned[e] = reverse[e] = ident
        self.base = base
        self.ring = ring
        self.rank = rank
        self._transport = cleaned
        self._reverse = reverse
        self._identity = ident
        self._cache = {}   # objects derived from this system

    def transport(self, u: int, v: int) -> ExactMatrix:
        """Fiber map fiber(v) -> fiber(u) along the edge between u and v."""
        if u < v:
            return self._transport[(u, v)]
        return self._reverse[(v, u)]

    def path_transport(self, vertices) -> ExactMatrix:
        """Composite transport along consecutive vertices, later -> earlier.
        A path of one vertex is the system's identity and a path of two its
        edge transport; only longer products are built, once each."""
        path = tuple(vertices)
        if len(path) < 2:
            return self._identity
        if len(path) == 2:
            return self.transport(*path)

        def build():
            out = self.transport(path[0], path[1])
            for u, v in zip(path[1:], path[2:]):
                out = out @ self.transport(u, v)
            return out.shared(row_table(self))
        return memo(self, ("path", path), build)

    def edge_items(self):
        return sorted(self._transport.items())

    def is_unit(self) -> bool:
        """Rank 1 with every transport 1: the unit of `tensor`."""
        one = self.ring.one
        return memo(self, "unit", lambda: self.rank == 1 and all(
            m.entry(0, 0) == one for m in self._transport.values()))

    def is_sign_system(self) -> bool:
        if self.rank != 1:
            return False
        one = self.ring.one
        minus = self.ring.from_int(-1)
        return all(m.entry(0, 0) in (one, minus)
                   for m in self._transport.values())

    def edge_sign(self, u: int, v: int) -> int:
        """+-1 for rank-1 sign systems."""
        val = self.transport(u, v).entry(0, 0)
        return 1 if val == self.ring.one else -1

    def __repr__(self):
        return f"LocalSystem(rank={self.rank}, ring={self.ring})"


def _kept_on(keeper, system: LocalSystem) -> LocalSystem:
    """`system`, which a memo of `keeper` keeps, given keeper's table of
    shared rows (matrices.row_table) before anything reads its own."""
    row_table(system, keeper)
    return system


def constant_system(base, ring, rank=1) -> LocalSystem:
    return memo(base, ("constant_system", ring, rank),
                lambda: _kept_on(base, LocalSystem(base, ring, rank, {})))


def validate_flatness(system: LocalSystem):
    """Check T[u<-v] @ T[v<-w] == T[u<-w] on every triangle.

    Returns (True, None) or (False, first failing 2-simplex).
    """
    for tri in system.base.faces(2):
        u, v, w = tri
        if system.transport(u, v) @ system.transport(v, w) != system.transport(u, w):
            return False, tri
    return True, None


def sign_system(base, ring, signs: dict) -> LocalSystem:
    """The rank-1 system with transport signs[e] = +-1 on each edge e; each
    transport is its own reverse, and the edges of one sign share one
    matrix."""
    shared = {sign: ExactMatrix(ring, [[sign]]) for sign in (1, -1)}
    transport = {e: shared[sign] for e, sign in signs.items()}
    return LocalSystem(base, ring, 1, transport, transport)


def orientation_system(base, ring) -> LocalSystem:
    """The rank-1 orientation sign system of a closed pseudomanifold.

    The fiber at a vertex is calibrated by its reference facet; the edge sign
    compares that calibration across any facet containing the edge.  Flatness
    and independence of the facet choice are exercised by the tests.
    """
    def build():
        if not validate(base).closed_pseudomanifold:
            raise NotClosedPseudomanifold(
                "orientation system needs a closed pseudomanifold")
        stars = base.vertex_stars()
        signs = {}
        for (u, v) in base.faces(1):
            # the lowest facet containing the edge; purity puts it in one
            facet = next(f for f in stars[u] if v in f)
            signs[(u, v)] = (star_signs(base, u)[facet]
                             * star_signs(base, v)[facet])
        return _kept_on(base, sign_system(base, ring, signs))
    return memo(base, ("orientation_system", ring), build)


def tensor(G: LocalSystem, Gp: LocalSystem) -> LocalSystem:
    """G (x) Gp, memoized on G.

    The rank-1 system whose every transport is 1 is the unit: with it as
    either factor the product is the other factor itself, with its pair
    complexes and everything else memoized on it.  Otherwise one Kronecker
    product is built per distinct pair of factor matrices, and a 1x1
    identity factor gives the other factor's matrix object.
    """
    base, other = G.base, Gp.base
    if base is not other and base != other:
        raise BaseMismatch("tensor factors live on different complexes")
    if G.ring != Gp.ring:
        raise RingMismatch("tensor factors over different rings")
    if Gp.is_unit():
        return G
    if G.is_unit():
        return Gp

    def build():
        one = G.ring.one
        edges = base.faces(1)
        table = row_table(G)
        # (id(a), id(b)) -> a (x) b, one per distinct pair; the factors
        # outlive the build, so their ids are stable
        products = {}

        def kron(a, b):
            key = (id(a), id(b))
            if key not in products:
                if a.rows == 1 and a.entry(0, 0) == one:
                    products[key] = b
                elif b.rows == 1 and b.entry(0, 0) == one:
                    products[key] = a
                else:
                    products[key] = a.kron(b).shared(table)
            return products[key]
        transport = {e: kron(G._transport[e], Gp._transport[e]) for e in edges}
        reverse = {e: kron(G._reverse[e], Gp._reverse[e]) for e in edges}
        return _kept_on(G, LocalSystem(base, G.ring, G.rank * Gp.rank,
                                       transport, reverse))
    # G (x) G is keyed without G, so that G's memo names nothing that holds G
    return memo(G, ("tensor", None if Gp is G else Gp), build)


def holonomy(system: LocalSystem, loop) -> ExactMatrix:
    """Ordered product of edge transports around a closed vertex loop."""
    loop = list(loop)
    if loop[0] != loop[-1]:
        loop = loop + [loop[0]]
    return system.path_transport(loop)


def _conjugated(base, ring, rank, transport: dict, reverse: dict,
                gauge: dict, table: dict) -> LocalSystem:
    """The system with transports g_u^{-1} @ T[u<-v] @ g_v, built with their
    reverses g_v^{-1} @ T^{-1} @ g_u from the given reverses, which take
    their rows from `table`.  `gauge` maps a vertex to the pair
    (g, g^{-1}); a vertex missing from it keeps its fiber basis."""
    ident = ExactMatrix.identity(ring, rank)
    kept = (ident, ident)
    conj, rev = {}, {}
    for (u, v), mat in transport.items():
        (g_u, inv_u), (g_v, inv_v) = gauge.get(u, kept), gauge.get(v, kept)
        conj[(u, v)] = (inv_u @ mat @ g_v).shared(table)
        rev[(u, v)] = (inv_v @ reverse[(u, v)] @ g_u).shared(table)
    return LocalSystem(base, ring, rank, conj, rev)


def gauge_transform(system: LocalSystem, gauge: dict) -> LocalSystem:
    """Change fiber bases: T'[u<-v] = g_u^{-1} @ T[u<-v] @ g_v, inverting
    each g once."""
    return _conjugated(system.base, system.ring, system.rank,
                       system._transport, system._reverse,
                       {v: (g, inverse(g)) for v, g in gauge.items()}, {})


def is_trivializable(system: LocalSystem):
    """Spanning-tree gauge fixing.

    Returns (True, gauge) where the gauge turns every transport into the
    identity, or (False, None) when some non-tree edge survives.
    """
    base = system.base
    ident = ExactMatrix.identity(system.ring, system.rank)
    gauge = {}
    adj = {v: [] for v in range(base.vertex_count)}
    for (u, v) in base.faces(1):
        adj[u].append(v)
        adj[v].append(u)
    for root in range(base.vertex_count):
        if root in gauge:
            continue
        gauge[root] = ident
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in gauge:
                    # make the tree edge's gauged transport the identity
                    gauge[v] = system.transport(v, u) @ gauge[u]
                    stack.append(v)
    # the gauged transport g_u^{-1} T[u<-v] g_v is the identity
    # exactly when T[u<-v] g_v == g_u
    for (u, v), mat in system.edge_items():
        if mat @ gauge[v] != gauge[u]:
            return False, None
    return True, gauge


# ---------------------------------------------------------------------------
# seeded random flat systems
# ---------------------------------------------------------------------------

def random_sign_cocycle(base: SimplicialComplex, seed: int) -> dict:
    """A random +-1 edge assignment whose product around every triangle is +1.

    Solutions form the mod-2 cocycle space: kernel of the triangle-edge
    incidence matrix over Z/2, factored once per complex.  A seeded
    combination of kernel generators is returned as a dict edge -> sign.
    """
    edges = base.faces(1)
    eidx = base.face_index(1)
    K = memo(base, "sign_cocycle_kernel", lambda: kernel_with_relations(
        ExactMatrix._from_rows(Zmod(2), [
            {eidx[e]: 1 for e in ((u, v), (v, w), (u, w))}
            for u, v, w in base.faces(2)], len(edges)))[0])
    rng = random.Random(seed)
    chosen = {j for j in range(K.cols) if rng.randrange(2)}
    combo = [sum(x for j, x in row.items() if j in chosen) % 2
             for row in K.sparse_rows]
    return {e: (-1 if combo[eidx[e]] else 1) for e in edges}


def _random_gauge_matrix(ring, rank, rng) -> tuple:
    """A unit-determinant matrix built from a few elementary operations, and
    its inverse, the inverse elementaries in reverse order."""
    m = inv = ident = ExactMatrix.identity(ring, rank)
    for _ in range(3):
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        if i == j:
            continue
        coeff = ring.from_int(rng.choice((-2, -1, 1, 2)))
        if coeff:  # +-2 vanishes over Z/2
            unit = ExactMatrix._from_rows(
                ring, [{j: coeff} if a == i else {} for a in range(rank)], rank)
            m, inv = m @ (ident + unit), (ident - unit) @ inv
    return m, inv


def random_flat_system(base, ring, rank, seed) -> LocalSystem:
    """Seeded flat system: a direct sum of random sign cocycles conjugated by
    a random vertex gauge.  Flatness is inherited from the cocycle condition
    and preserved by the gauge.  A diagonal sign matrix is its own inverse,
    and each gauge comes with its inverse, so nothing is inverted.  The
    system is memoized on its complex, like the constant systems."""
    if rank < 1:
        raise TwistcapError("rank must be positive")
    def build():
        rng = random.Random((seed, rank, str(ring)).__repr__())
        signs = [random_sign_cocycle(base, rng.randrange(2 ** 30))
                 for _ in range(rank)]
        if rank == 1:
            return _kept_on(base, sign_system(base, ring, signs[0]))
        transport = {e: ExactMatrix._from_rows(
                         ring, [{i: ring.from_int(signs[i][e])}
                                for i in range(rank)], rank)
                     for e in base.faces(1)}
        gauge = {v: _random_gauge_matrix(ring, rank, rng)
                 for v in range(base.vertex_count)}
        return _kept_on(base, _conjugated(base, ring, rank, transport,
                                          transport, gauge, row_table(base)))
    return memo(base, ("random_flat_system", ring, rank, seed), build)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def loads_local_system(text: str, base: SimplicialComplex) -> LocalSystem:
    ring = None
    rank = None
    transport = {}
    pending_edge = None
    pending_rows = []
    pending_line = 0

    def flush():
        nonlocal pending_edge, pending_rows
        if pending_edge is not None:
            if len(pending_rows) != rank:
                raise SystemFormatError(
                    pending_line, f"edge block needs {rank} rows")
            transport[pending_edge] = ExactMatrix(ring, pending_rows)
            pending_edge, pending_rows = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "ring":
            if ring is not None:
                raise SystemFormatError(lineno, "duplicate ring line")
            try:
                ring = parse_ring(" ".join(tokens[1:]))
            except TwistcapError as exc:
                raise SystemFormatError(lineno, str(exc))
            continue
        if tokens[0] == "rank":
            if rank is not None:
                raise SystemFormatError(lineno, "duplicate rank line")
            if len(tokens) != 2 or not tokens[1].isdecimal() \
                    or not 1 <= int(tokens[1]) <= MAX_RANK:
                raise SystemFormatError(
                    lineno, f"rank must be an integer from 1 to {MAX_RANK}")
            rank = int(tokens[1])
            continue
        if tokens[0] == "edge":
            if ring is None or rank is None:
                raise SystemFormatError(lineno, "ring and rank must precede edges")
            flush()
            if len(tokens) != 3:
                raise SystemFormatError(lineno, "expected 'edge u v'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise SystemFormatError(lineno, "edge endpoints must be integers")
            if not u < v:
                raise SystemFormatError(lineno, "edge endpoints must satisfy u < v")
            if (u, v) not in base.face_index(1):
                raise SystemFormatError(lineno, f"({u},{v}) is not an edge of the complex")
            if (u, v) in transport:
                raise SystemFormatError(lineno, f"duplicate edge ({u},{v})")
            pending_edge = (u, v)
            pending_line = lineno
            pending_rows = []
            continue
        if pending_edge is None:
            raise SystemFormatError(lineno, f"unexpected line {line!r}")
        if len(tokens) != rank:
            raise SystemFormatError(lineno, f"matrix row needs {rank} entries")
        row = []
        for t in tokens:
            try:
                row.append(_parse_entry(t, ring))
            except (ValueError, ZeroDivisionError):
                raise SystemFormatError(lineno, f"bad ring element {t!r}")
        pending_rows.append(row)
        if len(pending_rows) == rank:
            flush()
    flush()
    if ring is None or rank is None:
        raise SystemFormatError(0, "missing ring or rank header")
    try:
        return LocalSystem(base, ring, rank, transport)
    except TwistcapError as exc:
        raise SystemFormatError(0, str(exc))


def _parse_entry(token: str, ring: RingSpec):
    if "/" in token:
        if ring != Q:
            raise ValueError(token)
        num, den = token.split("/", 1)
        return ring.normalize(Fraction(int(num), int(den)))
    return ring.normalize(int(token))


def load_local_system(path, base) -> LocalSystem:
    """The system a file describes on `base`, memoized on the base under the
    file's text: a file read again builds nothing, and what is derived from
    the system lives as long as the base, like a random flat system."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFormatError(0, f"cannot read {path}: {exc}") from None
    return memo(base, ("load_local_system", text),
                lambda: _kept_on(base, loads_local_system(text, base)))


def dumps_local_system(system: LocalSystem) -> str:
    ring = system.ring
    if ring == Q:
        head = "ring Q"
    elif ring.kind == "Zmod":
        head = f"ring Zmod {ring.modulus}"
    else:
        head = "ring Z"
    lines = [head, f"rank {system.rank}"]
    ident = ExactMatrix.identity(ring, system.rank)
    for (u, v), mat in system.edge_items():
        if mat == ident:
            continue
        lines.append(f"edge {u} {v}")
        for row in mat.data:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
