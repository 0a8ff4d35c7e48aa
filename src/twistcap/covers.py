"""Double covers from rank-1 sign systems.

Points of the cover are (vertex, sheet); sheet 0 over a vertex stands for the
reference local orientation there, sheet 1 for its negation.  A base simplex
lifts by propagating sheets along its edges with the sign system; the deck
map swaps sheets.  One orbit table (`_orbits`) gives each base simplex its
canonical lift (sheet 0 at its lowest vertex) and that lift's deck image,
with their projection parities p and q; the orientation, the +/- splitting
and the fundamental class through the cover read it.  The chosen
orientation is the sheet calibration, "the orientation the point names":
over a base facet b, w * p on the canonical lift and -w * q on its deck
image, with w the sign of b in the star of b[0] (`complexes.star_signs`).
The deck map negates it on the nose, and the two sheets of an orientable
base project to opposite base orientations.  It is certified ridge by
ridge: the two facets on each ridge must induce opposite orientations on
it, or IncoherentCover is raised.

Every double-cover construction lives here: the sheet lift, the relative
chains of the total space (`cover_chains`), the deck transformation tau and
the projection p, Lemmas 1 and 2, the +/- splitting maps Sigma, Delta with
the orbit bases of the symmetric and antisymmetric chains and the exactness
of their two sequences (the splitting lemma's identities R i = 1, p = j P,
P s = 1, i R + s P = 1), the identification phi of the antisymmetric
complex with the twisted chains of the base (the antisymmetric inclusion is
a chain map; both checks are products and factor nothing), and the
fundamental class pushed through it.  tau, p and the orbit inclusions are
cell maps (`chains.PairComplex.cell_map`), and chains of the cover are
built and read by simplex (`PairComplex.chain`, `coefficients`).  The
orientation double cover of a complex is `orientation_cover(M)`, the cover
of its integer orientation character; Lemmas 1 and 2, phi and the
fundamental class through the cover read it over every ring, so a complex
has one.

Memoized (`complexes.memo`): the cover on its sign system; its orientation,
sign systems and +/- splittings (one per ring and K) on the cover; the
exactness verdicts of a splitting on the splitting.  The cover and its
total space take the table of shared rows of the sign system
(matrices.row_table), and so do the splittings and the systems on either.
A cover holds only its base, weakly, its orientation holds the cover
weakly (`complexes.weak`), and a splitting holds nothing of its cover, so
none of them keeps alive what it is memoized on.  Sheet lifts are computed
on every ask: a lift costs little more than a lookup.
"""

from __future__ import annotations

from collections import namedtuple

from .chains import (FundamentalClassData, PairComplex, pair_complex,
                     relative_killed, transfer_matrix)
from .complexes import (FullSubcomplex, SimplicialComplex, _ridge_sign,
                        memo, star_signs, validate, weak)
from .errors import IncoherentCover, NotSignSystem, TwistcapError, TwoIsZero
from .fpmodules import ModuleMap, induced_map
from .localsystems import (LocalSystem, _kept_on, constant_system,
                           orientation_system, sign_system, validate_flatness)
from .matrices import ExactMatrix, _transpose, row_table
from .rings import RingSpec, Z


def _perm_parity(seq) -> int:
    """Sign of the permutation sorting seq (distinct entries)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _sheet_lift(signs, base_count, simplex):
    """Ascending lift of a base simplex with sheet 0 at its lowest vertex.

    Vertex v joins sheet 1 (total vertex v + base_count) when the edge from
    the lowest vertex v0 to v carries the sign -1.
    """
    v0 = simplex[0]
    verts = [v0]
    for v in simplex[1:]:
        sign = signs[(v0, v)] if v0 < v else signs[(v, v0)]
        verts.append(v + (base_count if sign < 0 else 0))
    return tuple(sorted(verts))


class DoubleCover:
    """The cover of `base` that the edge signs `signs` define.  It is
    memoized on its sign system, so it holds its base weakly, and the total
    space, which is its own, strongly."""

    __slots__ = ("_base", "_base_count", "total", "projection", "deck",
                 "signs", "_cache", "__weakref__")
    base = weak("base")

    def __init__(self, base, total, projection, deck, signs):
        self.base = base
        self._base_count = base.vertex_count
        self.total = total
        self.projection = projection
        self.deck = deck
        self.signs = signs
        self._cache = {}

    def canonical_lift(self, simplex):
        """The lift carrying sheet 0 at the simplex's lowest vertex."""
        return _sheet_lift(self.signs, self._base_count, simplex)

    def deck_image(self, total_simplex):
        return tuple(sorted(self.deck[v] for v in total_simplex))

    def lift_vertices(self, vertex_set):
        n = self._base_count
        return frozenset(v + s * n for v in vertex_set for s in (0, 1))


def build_double_cover(M: SimplicialComplex, omega: LocalSystem) -> DoubleCover:
    """Construct the two-sheeted cover defined by a flat sign system,
    memoized on the sign system."""
    if omega.base != M or not omega.is_sign_system():
        raise NotSignSystem("double covers need a rank-1 +-1 system on the base")
    return memo(omega, "double_cover", lambda: _build_double_cover(M, omega))


def _build_double_cover(M, omega) -> DoubleCover:
    ok, witness = validate_flatness(omega)
    if not ok:
        raise NotSignSystem(f"sign system is not flat at {witness}")
    n = M.vertex_count
    signs = {e: omega.edge_sign(*e) for e in M.faces(1)}
    maximal = []
    for s in M.maximal_simplices:
        lift = _sheet_lift(signs, n, tuple(sorted(s)))
        maximal.append(lift)
        maximal.append(tuple(sorted((v + n) % (2 * n) for v in lift)))
    total = SimplicialComplex(2 * n, maximal)
    projection = tuple(v % n for v in range(2 * n))
    deck = tuple((v + n) % (2 * n) for v in range(2 * n))
    cover = DoubleCover(M, total, projection, deck, signs)
    row_table(cover, omega)
    row_table(total, omega)
    _check_cover_invariants(cover)
    return cover


def _check_cover_invariants(cover):
    for v in range(cover.total.vertex_count):
        if cover.deck[cover.deck[v]] != v or cover.deck[v] == v:
            raise IncoherentCover("deck map is not a free involution")
        if cover.projection[cover.deck[v]] != cover.projection[v]:
            raise IncoherentCover("projection does not commute with the deck map")
    base = cover.base
    for k in range(base.dimension + 1):
        if len(cover.total.faces(k)) != 2 * len(base.faces(k)):
            raise IncoherentCover(f"lift count wrong in dimension {k}")


def projection_parity(cover, total_simplex) -> int:
    """Parity of reordering the ascending lift into base-vertex order."""
    return _perm_parity([cover.projection[v] for v in total_simplex])


def _orbits(cover, simplices) -> dict:
    """Base simplex b -> ((rep, p), (deck(rep), q)): b's canonical lift and
    that lift's deck image, each with its projection parity, in the order
    of `simplices`.  The one place orbit lifts and parities are computed."""
    orbits = {}
    for b in simplices:
        rep = cover.canonical_lift(b)
        other = cover.deck_image(rep)
        orbits[b] = ((rep, projection_parity(cover, rep)),
                     (other, projection_parity(cover, other)))
    return orbits


class CoverOrientation:
    """Signs of the facets of a cover's total space; memoized on the cover,
    which it holds weakly."""

    __slots__ = ("_cover", "facet_signs")
    cover = weak("cover")

    def __init__(self, cover: DoubleCover, facet_signs: dict):
        self.cover = cover
        self.facet_signs = facet_signs

    def cycle_vector(self, ring: RingSpec):
        cover = self.cover
        return cover_chains(cover, ring).chain(cover.total.dimension,
                                               self.facet_signs)


def orient_cover(cover: DoubleCover) -> CoverOrientation:
    """The chosen orientation of the cover's total space, the sheet
    calibration certified ridge by ridge (see the module docstring), read
    off the orbit table of the base facets; IncoherentCover when the total
    space is not a closed pseudomanifold or the calibration fails on a
    ridge.  Memoized on the cover."""
    return memo(cover, "orientation", lambda: _build_orientation(cover))


def _build_orientation(cover: DoubleCover) -> CoverOrientation:
    total, base = cover.total, cover.base
    report = validate(total)
    if not report.is_pure or not report.each_ridge_in_two_facets:
        raise IncoherentCover("cover total space is not a closed pseudomanifold")
    signs = {}
    for b, ((rep, p), (other, q)) in _orbits(cover, base.facets).items():
        w = star_signs(base, b[0])[b]
        signs[rep] = w * p
        signs[other] = -w * q
    for ridge, (f, g) in total.ridge_to_facets().items():
        if signs[f] * _ridge_sign(f, ridge) == signs[g] * _ridge_sign(g, ridge):
            raise IncoherentCover(
                f"sheet calibration is incoherent across the ridge {ridge}")
    return CoverOrientation(cover, signs)


def cover_chains(cover, ring, K: FullSubcomplex | None = None) -> PairComplex:
    """Constant-coefficient chains of the total space relative to the
    preimage of K (absolute when K is None)."""
    total = cover.total
    Ktilde = (None if K is None
              else FullSubcomplex(total, cover.lift_vertices(K.vertex_subset)))
    return pair_complex(total, constant_system(total, ring),
                        killed=relative_killed(total, Ktilde))


# ---------------------------------------------------------------------------
# chain maps of the deck transformation and the projection
# ---------------------------------------------------------------------------

def vertex_map_chain_matrix(vmap, k, src_pc, dst_pc) -> ExactMatrix:
    """Chain map induced by a simplicial vertex map (with parity signs)."""
    def images(s):
        image = [vmap[v] for v in s]
        if len(set(image)) != len(image):
            return ()  # degenerate, contributes zero
        return ((tuple(sorted(image)), _perm_parity(image)),)
    return src_pc.cell_map(dst_pc, k, images)


def deck_chain_matrix(cover, ring, k, pc=None) -> ExactMatrix:
    if pc is None:
        pc = cover_chains(cover, ring)
    return vertex_map_chain_matrix(cover.deck, k, pc, pc)


def lemma1_check(cover, ring) -> bool:
    """Deck image of the chosen orientation cycle equals its exact negation."""
    orientation = orient_cover(cover)
    z = orientation.cycle_vector(ring)
    tau = deck_chain_matrix(cover, ring, cover.total.dimension)
    return tau.apply(z) == tuple(ring.normalize(-x) for x in z)


# ---------------------------------------------------------------------------
# the +/- splitting and the identification with twisted base chains
# ---------------------------------------------------------------------------

# one degree of the splitting, four ExactMatrix objects, and the base
# simplices indexing the orbit generators
DegreeSplit = namedtuple("DegreeSplit",
                         "sigma delta incl_plus incl_minus orbit_bases")


class SplitMaps:
    """The +/- splitting of a cover's chains, degree by degree; memoized on
    the cover, of which it holds nothing."""

    __slots__ = ("degrees", "_cache")

    def __init__(self, degrees: dict):
        self.degrees = degrees
        # objects derived from this splitting; a copy built from the same
        # fields starts empty
        self._cache = {}


def split_maps(cover, ring, K: FullSubcomplex | None = None) -> SplitMaps:
    """Sigma = 1 + tau, Delta = 1 - tau, and the C^+/C^- orbit bases.

    Works on the relative chains of (cover | preimage of K) in every degree.
    The orbit generators are base-ordered: the generator over a base simplex
    is parity(rep) * rep +- parity(deck(rep)) * deck(rep), + in C^+ and - in
    C^-, with rep the canonical lift and parity the projection parity, so
    the antisymmetric basis matches the twisted chains of the base with
    coefficient +1.  Memoized on the cover.
    """
    if not ring.two_is_nonzero:
        raise TwoIsZero("the +/- splitting needs 2 != 0 in the ring")
    return memo(cover, ("split_maps", ring, K),
                lambda: _build_split_maps(cover, ring, K))


def _build_split_maps(cover, ring, K) -> SplitMaps:
    total_pc = cover_chains(cover, ring, K)
    base = cover.base
    base_pc = pair_complex(base, constant_system(base, ring),
                           killed=relative_killed(base, K))
    table = row_table(cover)
    degrees = {}
    for k in range(base.dimension + 1):
        tau = deck_chain_matrix(cover, ring, k, total_pc)
        ident = ExactMatrix.identity(ring, total_pc.length(k))
        sigma = (ident + tau).shared(table)
        delta = (ident - tau).shared(table)
        plus = _orbits(cover, base_pc.space(k))
        minus = {b: (lift, (other, -q))
                 for b, (lift, (other, q)) in plus.items()}
        incl_plus = base_pc.cell_map(total_pc, k, plus.__getitem__
                                     ).shared(table)
        incl_minus = base_pc.cell_map(total_pc, k, minus.__getitem__
                                      ).shared(table)
        degrees[k] = DegreeSplit(sigma, delta, incl_plus, incl_minus,
                                 tuple(base_pc.space(k)))
    return SplitMaps(degrees)


def _split_exact(i: ExactMatrix, p: ExactMatrix, j: ExactMatrix) -> bool:
    """0 -> C' --i--> C --p--> C'' -> 0 is exact, where the columns of j
    span C'': with S the rows where i and j agree (the orbit representatives
    of a splitting), R = S^T, P = R p and s = (p - 1) S, the identities
    R i = 1, p = j P, P s = 1, i R + s P = 1 make i injective, ker p = im i
    and im p = im j, whatever S is; R j = 1 and p i = 0 follow."""
    ring, n = i.ring, i.cols
    kept = [a if a == b else {} for a, b in zip(i.sparse_rows, j.sparse_rows)]
    R = ExactMatrix._from_rows(ring, _transpose(kept, n), i.rows)
    S = ExactMatrix._from_rows(ring, kept, n)
    P = R @ p
    s = (p - ExactMatrix.identity(ring, p.rows)) @ S
    one = ExactMatrix.identity(ring, n)
    return (R @ i == one and p == j @ P and P @ s == one
            and i @ R + s @ P == ExactMatrix.identity(ring, i.rows))


def check_split_exactness(split: SplitMaps) -> dict:
    """Degreewise exactness of both short sequences, by the splitting
    lemma's identities (`_split_exact`); nothing is factored, and the
    verdicts are memoized on the splitting.

    Sequence (1): 0 -> C^- -> C --Sigma--> C^+ -> 0
    Sequence (2): 0 -> C^+ -> C --Delta--> C^- -> 0
    """
    def build():
        return {k: {"seq1": _split_exact(d.incl_minus, d.sigma, d.incl_plus),
                    "seq2": _split_exact(d.incl_plus, d.delta, d.incl_minus)}
                for k, d in split.degrees.items()}
    return memo(split, "exactness", build)


# matrices: degree -> orbit -> twisted relative coords; split: the +/-
# splitting (SplitMaps) phi is read from
PhiData = namedtuple("PhiData",
                     "matrices boundary_commutes degreewise_iso split")


def phi_identify(cover, ring, K: FullSubcomplex | None = None) -> PhiData:
    """The identification of antisymmetric cover chains with twisted chains.

    With canonical (sheet-0-at-leading-vertex) orbit representatives and
    base-ordered generators, phi is the identity on matching coordinates, an
    isomorphism exactly when the orbit bases are the twisted coordinates.
    It commutes with the boundaries exactly when the antisymmetric inclusion
    is a chain map from the twisted chains, one product identity per degree,
    incl_minus[k-1] @ d_k^tw == d_k^cover @ incl_minus[k]; sequence (1)
    certifies that incl_minus is injective.  Nothing is factored.
    """
    if not ring.two_is_nonzero:
        raise TwoIsZero("the identification needs 2 != 0 in the ring")
    split = split_maps(cover, ring, K)
    total_pc = cover_chains(cover, ring, K)
    base = cover.base
    twisted_pc = pair_complex(base, cover_sign_system(cover, ring),
                              killed=relative_killed(base, K))
    degrees = split.degrees
    iso = all(d.orbit_bases == tuple(twisted_pc.space(k))
              for k, d in degrees.items())
    commutes = iso and all(
        degrees[k - 1].incl_minus @ twisted_pc.boundary(k)
        == total_pc.boundary(k) @ d.incl_minus
        for k, d in degrees.items() if k)
    matrices = {k: ExactMatrix.identity(ring, len(d.orbit_bases))
                for k, d in degrees.items()}
    return PhiData(matrices, commutes, iso, split)


def cover_sign_system(cover, ring) -> LocalSystem:
    """The defining sign cocycle of the cover, over the requested ring."""
    return memo(cover, ("sign_system", ring),
                lambda: _kept_on(cover, sign_system(cover.base, ring,
                                                    cover.signs)))


# ---------------------------------------------------------------------------
# Lemma 2 and the fundamental class through the cover
# ---------------------------------------------------------------------------

def orientation_cover(M) -> DoubleCover:
    """The orientation double cover of M, the cover of its integer
    orientation character over every ring (over Z/2 the ring's own
    orientation system is constant, its cover two copies of M); one per
    complex, as the system and the cover are memoized."""
    return build_double_cover(M, orientation_system(M, Z))


def _orientation_cover_cycle(M, ring):
    """The orientation double cover of M and its chosen orientation cycle."""
    cover = orientation_cover(M)
    return cover, orient_cover(cover).cycle_vector(ring)


def pushforward(cover, ring, K: FullSubcomplex | None = None) -> ModuleMap:
    """p_* on top relative homology, as a map of presented modules."""
    M = cover.base
    n = M.dimension
    top_pc = cover_chains(cover, ring, K)
    base_pc = pair_complex(M, constant_system(M, ring),
                           killed=relative_killed(M, K))
    proj = vertex_map_chain_matrix(cover.projection, n, top_pc, base_pc)
    return induced_map(proj, top_pc.homology(n), base_pc.homology(n))


def lemma2_check(M, ring, K: FullSubcomplex | None = None) -> bool:
    """Pushforward of the cover's fundamental class vanishes in H_n(M|K)."""
    cover, z = _orientation_cover_cycle(M, ring)
    n = M.dimension
    rel_pc = cover_chains(cover, ring, K)
    z_rel = transfer_matrix(cover_chains(cover, ring), rel_pc, n).apply(z)
    pmap = pushforward(cover, ring, K)
    coords = rel_pc.homology(n).class_vector(z_rel)
    if coords is None:
        raise TwistcapError("cover orientation cycle is not a relative cycle")
    return pmap.target.is_zero_class(pmap.matrix.apply(coords))


def fundamental_class_via_cover(M, ring) -> FundamentalClassData:
    """Push the oriented double cover's fundamental cycle through phi."""
    if not ring.two_is_nonzero:
        raise TwoIsZero("the +/- splitting needs 2 != 0 in the ring")
    cover, z = _orientation_cover_cycle(M, ring)
    if not lemma1_check(cover, ring):
        raise TwistcapError("deck transformation does not negate the cover cycle")
    n = M.dimension
    lifted = cover_chains(cover, ring).coefficients(n, z)
    vec = tuple(ring.normalize(p * lifted[rep])
                for (rep, p), _ in _orbits(cover, M.faces(n)).values())
    return FundamentalClassData(M, ring, orientation_system(M, ring), vec)
