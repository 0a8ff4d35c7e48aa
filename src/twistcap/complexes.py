"""Finite abstract simplicial complexes and the built-in manifold corpus.

Vertices are 0..n-1 with their natural order; every simplex is stored as an
ascending tuple, so each simplex has exactly one canonical ordering.  That
single convention is what later makes boundary signs, cap products and chain
maps unambiguous.

Closed-pseudomanifold validation, dual-graph walks comparing local
orientations, full subcomplexes and their complements, and a fixed corpus of
triangulated manifolds all live here.  Vertex links are checked in place,
with no link complex built: in an n-complex, every link is a closed
pseudomanifold down to pairs of points exactly when the complex is pure,
every ridge lies in two facets, and the facets containing each simplex of
dimension at most n - 2 are connected across ridges that contain it
(`validate`).  Each complex keeps one index from vertex to the facets
containing it (`SimplicialComplex.vertex_stars`); the walks, `star_signs` and
the orientation system read their stars from it.  `memo` is the package's
one cache policy, and `weak` the one way a memoized object refers back to
the object whose memo holds it.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from functools import partial
from itertools import chain, combinations, islice
from operator import attrgetter

from .errors import (ComplexFormatError, DisconnectedStar, NotInStar,
                     TwistcapError, UnknownName)


class SimplicialComplex:
    """Abstract complex, closed under faces, immutable after construction."""

    def __init__(self, vertex_count: int, simplices):
        if vertex_count <= 0:
            raise TwistcapError("vertex_count must be positive")
        self.vertex_count = vertex_count
        by_dim: dict[int, set] = {}
        gens = set()
        for s in simplices:
            t = tuple(sorted(set(s)))
            if len(t) != len(tuple(s)):
                raise TwistcapError(f"repeated vertex in simplex {tuple(s)}")
            if not t:
                raise TwistcapError("empty simplex")
            if t[0] < 0 or t[-1] >= vertex_count:
                raise TwistcapError(f"vertex out of range in {t}")
            gens.add(t)
        for t in gens:
            for size in range(1, len(t) + 1):
                for f in combinations(t, size):
                    by_dim.setdefault(size - 1, set()).add(f)
        if not by_dim:
            raise TwistcapError("complex needs at least one simplex")
        # labels are in range: they cover 0..n-1 when there are n, and the
        # first five missing lie below len(covered) + 5, whatever n is
        covered = {v for (v,) in by_dim.get(0, ())}
        absent = vertex_count - len(covered)
        if absent:
            missing = list(islice(
                (v for v in range(vertex_count) if v not in covered), 5))
            more = f" and {absent - 5} more" if absent > 5 else ""
            raise TwistcapError(f"vertices {missing}{more} lie in no simplex")
        self._faces = {k: tuple(sorted(v)) for k, v in by_dim.items()}
        self._index = {k: {s: i for i, s in enumerate(fs)}
                       for k, fs in self._faces.items()}
        self.dimension = max(self._faces)
        # the complex is face-closed, so a simplex lies in a larger one
        # exactly when it is a codimension-one face of some simplex
        covered = {s[:i] + s[i + 1:] for k, fs in self._faces.items() if k
                   for s in fs for i in range(len(s))}
        self.maximal_simplices = frozenset(
            s for fs in self._faces.values() for s in fs if s not in covered)
        self._hash = None
        self._cache: dict = {}

    # -- queries -----------------------------------------------------------

    def faces(self, k: int):
        return self._faces.get(k, ())

    def face_index(self, k: int):
        return self._index.get(k, {})

    @property
    def facets(self):
        """Top-dimensional faces (equal to the maximal ones when pure)."""
        return self.faces(self.dimension)

    def __contains__(self, simplex):
        t = tuple(simplex)
        return self._index.get(len(t) - 1, {}).get(t) is not None

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(fs) for k, fs in self._faces.items())

    def f_vector(self):
        return tuple(len(self.faces(k)) for k in range(self.dimension + 1))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertex_count == other.vertex_count
                and self.maximal_simplices == other.maximal_simplices)

    def __hash__(self):
        # the complex is immutable, so its hash is taken once
        if self._hash is None:
            self._hash = hash((self.vertex_count, self.maximal_simplices))
        return self._hash

    def __repr__(self):
        return (f"SimplicialComplex(dim={self.dimension}, "
                f"f={self.f_vector()})")

    # -- derived structure ---------------------------------------------------

    def ridge_to_facets(self):
        """Map (n-1)-face -> tuple of containing n-faces."""
        def build():
            n = self.dimension
            m: dict[tuple, list] = {r: [] for r in self.faces(n - 1)}
            # the facets of a 0-dimensional complex share no ridge: the
            # empty face is not a simplex
            for f in self.faces(n) if n >= 1 else ():
                for i in range(len(f)):
                    m[f[:i] + f[i + 1:]].append(f)
            return {r: tuple(fs) for r, fs in m.items()}
        return memo(self, "ridge_map", build)

    def facet_adjacency(self):
        """Facet -> list of (neighbour facet, shared ridge)."""
        def build():
            adj = {f: [] for f in self.facets}
            for ridge, fs in self.ridge_to_facets().items():
                if len(fs) == 2:
                    a, b = fs
                    adj[a].append((b, ridge))
                    adj[b].append((a, ridge))
            return {f: tuple(v) for f, v in adj.items()}
        return memo(self, "facet_adjacency", build)

    def vertex_stars(self):
        """Vertex -> ascending tuple of the facets containing it."""
        def build():
            stars = {v: [] for v in range(self.vertex_count)}
            for f in self.facets:
                for v in f:
                    stars[v].append(f)
            return {v: tuple(fs) for v, fs in stars.items()}
        return memo(self, "vertex_stars", build)


def memo(owner, key, build):
    """`owner._cache[key]`, built by `build()` on the first ask.

    The one cache policy of the package: an object derived from another is
    memoized on the object it comes from, its owner, in the owner's
    `_cache`; the key names the other inputs it was built from, and the
    memo dies with the owner.  Of several inputs, the owner is the one that
    dies first, so a lasting input keeps nothing of passing ones.  A build
    that raises stores nothing, so a failing input raises again on every
    ask.

    A memo refers back to its owner, and to anything that holds the owner,
    only weakly (`weak`), and no key names the owner, so the owner and its
    memos form no reference cycle: a complex the caller drops is freed by
    reference counting, with everything memoized on it, and the collector
    finds nothing of it.  The caller keeps a complex alive while it uses
    anything derived from it.
    """
    try:
        return owner._cache[key]
    except KeyError:
        pass
    value = owner._cache[key] = build()
    return value


def weak(name):
    """A property `name` that holds its object weakly, in the attribute
    `_<name>`: the one way a memoized object refers back to what owns its
    memo.  Reading it once the object is gone raises TwistcapError.  A read
    costs a call, about ten plain attribute reads, so loops read it once
    before they start."""
    ref = attrgetter("_" + name)

    def read(self):
        target = ref(self)()
        if target is None:
            raise TwistcapError(
                f"the {name} of this {type(self).__name__} is gone: keep "
                f"the {name} alive while the {type(self).__name__} is in use")
        return target

    def write(self, value):
        setattr(self, "_" + name, weakref.ref(value))
    return property(read, write)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ManifoldReport(namedtuple("ManifoldReport", (
        "dimension", "is_pure", "each_ridge_in_two_facets",
        "dual_graph_connected", "links_validated", "euler_characteristic"))):
    __slots__ = ()

    @property
    def closed_pseudomanifold(self) -> bool:
        return (self.is_pure and self.each_ridge_in_two_facets
                and self.dual_graph_connected)


def validate(complex: SimplicialComplex) -> ManifoldReport:
    """Closed-pseudomanifold report of a complex.

    `links_validated` says that every vertex link is a closed pseudomanifold
    of dimension n - 1 whose own vertex links pass the same test, down to
    pairs of points.  The link of w in link(v) is link({v, w}), so that
    recursion visits link(s) for every simplex s of dimension <= n - 1: its
    dimension, purity and ridge conditions come to purity and two facets on
    every ridge of the complex, and its connectivity conditions to connected
    facets around every simplex of dimension <= n - 2.
    """
    return memo(complex, "report", lambda: _validate(complex))


def _validate(complex) -> ManifoldReport:
    n = complex.dimension
    is_pure = all(len(s) == n + 1 for s in complex.maximal_simplices)
    ridge_ok = all(len(fs) == 2 for fs in complex.ridge_to_facets().values()) \
        if n >= 1 else False
    connected = facet_components(complex) == 1
    links_ok = is_pure and ridge_ok and all(
        facet_components(complex, s) == 1
        for k in range(n - 1) for s in complex.faces(k))
    return ManifoldReport(n, is_pure, ridge_ok, connected, links_ok,
                          complex.euler_characteristic())


def facet_components(complex, simplex=()) -> int:
    """Number of components of the facets containing `simplex`, joined
    across shared ridges; for the empty simplex, of the dual graph.

    Two facets that share a ridge meet in it, so every ridge joining two
    facets that contain the simplex contains it too.
    """
    adj = complex.facet_adjacency()
    if simplex:
        stars = complex.vertex_stars()
        todo = set(stars[simplex[0]])
        todo.intersection_update(*(stars[v] for v in simplex[1:]))
    else:
        todo = set(complex.facets)
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            for g, _ in adj[stack.pop()]:
                if g in todo:
                    todo.remove(g)
                    stack.append(g)
    return count


# ---------------------------------------------------------------------------
# orientation walks in vertex stars
# ---------------------------------------------------------------------------

def _ridge_sign(facet, ridge):
    """(-1)^i where facet drops its i-th vertex to give the ridge."""
    for i, v in enumerate(facet):
        if v not in ridge:
            return -1 if i % 2 else 1
    raise TwistcapError(f"{ridge} is not a ridge of {facet}")


def ridge_sign_walk(complex, start, sign=1, vertex=None):
    """Carry an orientation from `start` (with `sign`) across shared ridges.

    Crossing a ridge flips the sign according to whether the two facets
    induce the same boundary orientation on it.  With `vertex`, only ridges
    through that vertex are crossed, so the walk stays in its star.  Returns
    {facet: sign} over the facets reached, or None when two paths give some
    facet opposite signs.
    """
    adj = complex.facet_adjacency()
    signs = {start: sign}
    stack = [start]
    while stack:
        f = stack.pop()
        s = signs[f]
        for g, ridge in adj[f]:
            if vertex is not None and vertex not in ridge:
                continue
            t = -s * _ridge_sign(f, ridge) * _ridge_sign(g, ridge)
            if g not in signs:
                signs[g] = t
                stack.append(g)
            elif signs[g] != t:
                return None
    return signs


def star_component_walk(complex, vertex, facet_a, facet_b):
    """Relative orientation sign between two facets of a vertex star.

    Walks the dual graph restricted to facets containing `vertex`, flipping
    the sign across each ridge according to whether the boundary-induced
    orientations agree.  Path independence holds in manifold stars and is
    exercised by the tests.
    """
    fa, fb = tuple(facet_a), tuple(facet_b)
    for f in (fa, fb):
        if vertex not in f or f not in complex.face_index(complex.dimension):
            raise NotInStar(f"facet {f} does not contain vertex {vertex}")
    signs = _star_signs_from(complex, vertex, fa)
    if fb not in signs:
        raise DisconnectedStar(
            f"facets {fa} and {fb} lie in different components of star({vertex})")
    return signs[fb]


def _star_signs_from(complex, vertex, start):
    signs = ridge_sign_walk(complex, start, vertex=vertex)
    if signs is None:
        raise DisconnectedStar(
            f"star of vertex {vertex} is not orientably consistent")
    return signs


def star_signs(complex, vertex):
    """Signs of every facet in star(vertex) against the reference facet.

    The reference is the lexicographically first facet containing the vertex;
    this fixed choice calibrates orientation fibers across the library.  A
    star the ridge walk cannot cover (a pinched vertex) raises
    DisconnectedStar.
    """
    def build():
        star = complex.vertex_stars().get(vertex, ())
        if not star:
            raise NotInStar(f"vertex {vertex} lies in no facet")
        signs = _star_signs_from(complex, vertex, star[0])
        if len(signs) != len(star):
            raise DisconnectedStar(f"star of vertex {vertex} is disconnected")
        return signs
    return memo(complex, ("star_signs", vertex), build)


# ---------------------------------------------------------------------------
# subcomplexes
# ---------------------------------------------------------------------------

class Subcomplex:
    """A face-closed set of simplices of an ambient complex, which it holds
    weakly: memo keys on the complex hold its subcomplexes."""

    __slots__ = ("_ambient", "_faces", "_hash")
    ambient = weak("ambient")

    def __init__(self, ambient: SimplicialComplex, simplices):
        closure: dict[int, set] = {}
        # largest first: a simplex already in the closure is a face of one
        # closed before it, so its faces are there too
        for t in sorted(map(tuple, simplices), key=len, reverse=True):
            if t in closure.get(len(t) - 1, ()):
                continue
            if t not in ambient:
                raise TwistcapError(f"{t} is not a simplex of the ambient complex")
            for size in range(1, len(t) + 1):
                for f in combinations(t, size):
                    closure.setdefault(size - 1, set()).add(f)
        self.ambient = ambient
        self._faces = {k: frozenset(v) for k, v in closure.items()}

    def faces(self, k):
        return self._faces.get(k, frozenset())

    def contains(self, simplex) -> bool:
        t = tuple(simplex)
        return t in self._faces.get(len(t) - 1, ())

    def is_empty(self) -> bool:
        return not self._faces

    def union(self, other: "Subcomplex") -> "Subcomplex":
        self._check(other)
        return Subcomplex(self.ambient, chain(*self._faces.values(),
                                              *other._faces.values()))

    def intersection(self, other: "Subcomplex") -> "Subcomplex":
        self._check(other)
        return Subcomplex(self.ambient, [f for k in self._faces
                                         for f in self.faces(k) & other.faces(k)])

    def issubset(self, other: "Subcomplex") -> bool:
        return all(self.faces(k) <= other.faces(k) for k in self._faces)

    def _check(self, other):
        if self._ambient != other._ambient:
            raise TwistcapError("subcomplexes of different ambient complexes")

    # the weak references compare their complexes while both live, and
    # themselves once one is gone, so a comparison never reads a lost one
    def __eq__(self, other):
        return (isinstance(other, Subcomplex)
                and self._ambient == other._ambient
                and self._faces == other._faces)

    def __hash__(self):
        # the subcomplex is immutable, so its hash is taken once; each
        # frozenset of faces keeps its own hash too
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ambient, frozenset(self._faces.items())))
            return self._hash


def empty_subcomplex(ambient) -> Subcomplex:
    return Subcomplex(ambient, ())


def whole_subcomplex(ambient) -> Subcomplex:
    return Subcomplex(ambient, ambient.maximal_simplices)


def closed_star(ambient, vertex_set) -> Subcomplex:
    vs = set(vertex_set)
    gens = [s for k in range(ambient.dimension + 1)
            for s in ambient.faces(k) if vs.intersection(s)]
    if not gens:
        return empty_subcomplex(ambient)
    return Subcomplex(ambient, gens)


class FullSubcomplex:
    """All ambient simplices spanned by a chosen vertex subset; the ambient
    complex is held weakly, as by a Subcomplex."""

    __slots__ = ("_ambient", "vertex_subset", "_hash")
    ambient = weak("ambient")

    def __init__(self, ambient: SimplicialComplex, vertex_subset):
        vs = frozenset(vertex_subset)
        for v in vs:
            if not (0 <= v < ambient.vertex_count):
                raise TwistcapError(f"vertex {v} out of range")
        self.ambient = ambient
        self.vertex_subset = vs
        # taken once, like a Subcomplex's: memo keys hash it on every ask
        self._hash = hash((ambient, vs))

    def simplices(self, k):
        vs = self.vertex_subset
        return tuple(s for s in self.ambient.faces(k) if vs.issuperset(s))

    def contains(self, simplex) -> bool:
        return self.vertex_subset.issuperset(simplex)

    def complement(self) -> "FullSubcomplex":
        ambient = self.ambient
        rest = frozenset(range(ambient.vertex_count)) - self.vertex_subset
        return FullSubcomplex(ambient, rest)

    def as_subcomplex(self) -> Subcomplex:
        ambient = self.ambient
        gens = [s for k in range(ambient.dimension + 1)
                for s in self.simplices(k)]
        if not gens:
            return empty_subcomplex(ambient)
        return Subcomplex(ambient, gens)

    def issubset(self, other: "FullSubcomplex") -> bool:
        return (self._ambient == other._ambient
                and self.vertex_subset <= other.vertex_subset)

    def __eq__(self, other):
        return (isinstance(other, FullSubcomplex)
                and self._ambient == other._ambient
                and self.vertex_subset == other.vertex_subset)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FullSubcomplex({sorted(self.vertex_subset)})"


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def loads_complex(text: str) -> SimplicialComplex:
    declared_dim = None
    simplices = []
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if declared_dim is None:
            if tokens[0] != "dim" or len(tokens) != 2:
                raise ComplexFormatError(lineno, "expected 'dim <n>'")
            try:
                declared_dim = int(tokens[1])
            except ValueError:
                raise ComplexFormatError(lineno, f"bad dimension {tokens[1]!r}")
            if declared_dim < 0:
                raise ComplexFormatError(lineno, "dimension must be >= 0")
            continue
        if tokens[0] != "simplex":
            raise ComplexFormatError(lineno, f"expected 'simplex ...', got {tokens[0]!r}")
        try:
            verts = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ComplexFormatError(lineno, "vertices must be integers")
        if not verts:
            raise ComplexFormatError(lineno, "empty simplex")
        if any(v < 0 for v in verts):
            raise ComplexFormatError(lineno, "vertices must be non-negative")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ComplexFormatError(lineno, "vertices must be strictly ascending")
        if len(verts) > declared_dim + 1:
            raise ComplexFormatError(
                lineno, f"simplex of dimension {len(verts) - 1} exceeds dim {declared_dim}")
        simplices.append(tuple(verts))
        max_vertex = max(max_vertex, verts[-1])
    if declared_dim is None:
        raise ComplexFormatError(0, "missing 'dim <n>' header")
    if not simplices:
        raise ComplexFormatError(0, "no simplices listed")
    try:
        cx = SimplicialComplex(max_vertex + 1, simplices)
    except TwistcapError as exc:
        raise ComplexFormatError(0, str(exc))
    if cx.dimension != declared_dim:
        raise ComplexFormatError(
            0, f"declared dim {declared_dim} but simplices have dimension {cx.dimension}")
    return cx


def load_complex(path) -> SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ComplexFormatError(0, f"cannot read {path}: {exc}") from None
    return loads_complex(text)


def dumps_complex(complex: SimplicialComplex) -> str:
    lines = [f"dim {complex.dimension}"]
    for s in sorted(complex.maximal_simplices, key=lambda t: (len(t), t)):
        lines.append("simplex " + " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_NAMES = ("circle", "sphere2", "torus", "rp2", "klein", "rp3", "sphere3")

_RP2_FACETS = ((0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
               (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5))


def _grid_cells(nx: int, ny: int, twisted: bool) -> dict:
    """The squares of the nx x ny grid surface: y wraps straight, x wraps
    straight (torus) or, when `twisted`, with a flip in y, (nx, y) ~ (0, -y)
    (Klein bottle).  Vertex (x, y) is y * nx + x, and square (x, y) maps to
    its two triangles."""
    def vid(x, y):
        if twisted and x >= nx:
            y = -y
        return (y % ny) * nx + (x % nx)

    cells = {}
    for x in range(nx):
        for y in range(ny):
            a, b = vid(x, y), vid(x + 1, y)
            c, d = vid(x, y + 1), vid(x + 1, y + 1)
            cells[(x, y)] = (tuple(sorted((a, b, d))),
                             tuple(sorted((a, d, c))))
    return cells


def _grid(nx: int, ny: int, twisted: bool) -> SimplicialComplex:
    """The nx x ny grid surface whose squares are `_grid_cells`.  A side
    below 3 is refused: there the squares share edges or vertices, and the
    triangles form no closed surface, or no simplex at all."""
    if nx < 3 or ny < 3:
        raise TwistcapError(
            f"a grid surface needs sides of at least 3, not {nx}x{ny}")
    cells = _grid_cells(nx, ny, twisted).values()
    return SimplicialComplex(nx * ny, [t for pair in cells for t in pair])


_grid_torus = partial(_grid, twisted=False)
_grid_klein = partial(_grid, twisted=True)


def _octahedron() -> SimplicialComplex:
    # opposite vertex pairs (0,1), (2,3), (4,5)
    tris = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return SimplicialComplex(6, tris)


def _torus7() -> SimplicialComplex:
    tris = set()
    for i in range(7):
        tris.add(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.add(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(7, tris)


# Real projective 3-space, frozen from tools/make_rp3.py: the antipodal
# quotient of the barycentrically subdivided 16-cell boundary, shrunk by
# admissible edge contractions.  Validated by the test suite (closed
# orientable pseudomanifold, H_* = [Z, Z/2, 0, Z]).
_RP3_FACETS = (
    (0, 1, 2, 3), (0, 1, 2, 6), (0, 1, 3, 5), (0, 1, 5, 9),
    (0, 1, 6, 9), (0, 2, 3, 4), (0, 2, 4, 8), (0, 2, 6, 8),
    (0, 3, 4, 7), (0, 3, 5, 7), (0, 4, 7, 10), (0, 4, 8, 10),
    (0, 5, 7, 10), (0, 5, 9, 10), (0, 6, 8, 10), (0, 6, 9, 10),
    (1, 2, 3, 10), (1, 2, 6, 7), (1, 2, 7, 10), (1, 3, 5, 8),
    (1, 3, 8, 10), (1, 4, 5, 8), (1, 4, 5, 9), (1, 4, 6, 7),
    (1, 4, 6, 9), (1, 4, 7, 10), (1, 4, 8, 10), (2, 3, 4, 9),
    (2, 3, 9, 10), (2, 4, 5, 8), (2, 4, 5, 9), (2, 5, 6, 7),
    (2, 5, 6, 8), (2, 5, 7, 10), (2, 5, 9, 10), (3, 4, 6, 7),
    (3, 4, 6, 9), (3, 5, 6, 7), (3, 5, 6, 8), (3, 6, 8, 10),
    (3, 6, 9, 10),
)


def _rp3() -> SimplicialComplex:
    verts = 1 + max(v for f in _RP3_FACETS for v in f)
    return SimplicialComplex(verts, _RP3_FACETS)


# Builders of the corpus entries plus the auxiliary complexes used by cover
# checks.  Each is built once per process and kept in _named, the one
# module-level cache of the package; everything derived from a complex is
# memoized on the complex itself (`memo`).
_BUILDERS = {
    "circle": lambda: SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)]),
    "sphere2": lambda: SimplicialComplex(4, combinations(range(4), 3)),
    "torus": _torus7,
    "rp2": lambda: SimplicialComplex(6, _RP2_FACETS),
    "klein": lambda: _grid_klein(3, 3),
    "rp3": _rp3,
    "sphere3": lambda: SimplicialComplex(5, combinations(range(5), 4)),
    "octahedron": _octahedron,
    "torus4": lambda: _grid_torus(4, 4),
    "klein4": lambda: _grid_klein(4, 3),
}
BUILTIN_NAMES = tuple(_BUILDERS)
_named: dict[str, SimplicialComplex] = {}


def corpus(name: str) -> SimplicialComplex:
    """A validated, version-stable triangulation from the built-in corpus."""
    if name not in CORPUS_NAMES:
        raise UnknownName(f"unknown corpus entry {name!r}; "
                          f"choose from {', '.join(CORPUS_NAMES)}")
    return named_complex(name)


def named_complex(name: str) -> SimplicialComplex:
    """Corpus entries plus the auxiliary complexes used by cover checks."""
    if name not in _BUILDERS:
        raise UnknownName(f"unknown complex {name!r}")
    cx = _named.get(name)
    if cx is None:
        cx = _named[name] = _BUILDERS[name]()
    return cx
