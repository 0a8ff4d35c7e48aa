"""Twisted Mayer-Vietoris sequences and the cap-compatibility diagram.

Subcomplex covers replace open covers: a CoverPair is X = A union B
(simplexwise) with optional relative data C in A, D in B.  The homology
sequence comes from 0 -> C(A^B) --(x,-x)--> C(A)+C(B) --sum--> C(X) -> 0, the
cohomology sequence from restrictions and the difference map.  The minus sign
on the B part of the map at the intersection node is applied in one place,
`_MVSpaces.row_maps`, which both sequences and the diagram read.  The
compatibility diagram is a ladder of cap products between two such rows,
checked on matrices of generator representatives: the two cap squares
commute exactly with the minus sign on the second cap column, and the
connecting block commutes up to one global sign, which is measured and
reported rather than assumed.  The sequences and the diagram return records
(named tuples); the diagram's `table` yields the rows of its report.

Connecting maps are computed on the matrix of generator representatives by
explicit chain splitting with a deterministic tie-break: anything lying in
both A and B is assigned to A.  Each chain-level step is one matrix per
degree: the zig-zag, the gluing, and the cochain splitting, which is two
matrices (S_beta, S_gamma) certified by the one identity
T(A->A^B) S_beta - T(B->A^B) S_gamma = 1.  Exactness is certified node by
node as submodule equality through the Smith machinery.

Memoized (`complexes.memo`): the built-in covers and diagram
configurations, and the two covers of a diagram, on their complex, which
lasts for the process; the MV spaces on their system, keyed by the cover's
pieces, so equal covers share them and they die with the system; the
transfers, row maps, splittings, zig-zags and gluings on the spaces, which
take their rows from the system's table of shared rows
(matrices.row_table), and each sequence's induced maps, direct sums and end
maps too, keyed by the presentations they are induced between.  Each map
owns the factorization of its image.  The connecting maps with their
escape and overlap checks, exactness at every node, the splitting identity
and the diagram's squares are computed again on every call from these
pieces, so a fault in any of them shows on a repeated check too.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .cap import cap_matrix
from .chains import (PairComplex, fundamental_class_direct, pair_complex,
                     transfer_matrix)
from .complexes import (FullSubcomplex, Subcomplex, _grid_cells,
                        closed_star, empty_subcomplex, memo, named_complex,
                        weak, whole_subcomplex)
from .errors import (CoboundariesDisagree, ConnectingChainEscapes,
                     ConnectingImageNotCycle, NotACover, TwistcapError,
                     UnknownName)
from .fpmodules import (FPModule, HomologyPresentation, ModuleMap,
                        induced_map, is_exact_at)
from .localsystems import tensor
from .matrices import ExactMatrix, block_diag, row_table


class CoverPair:
    """(X, Y) = (A u B, C u D) with C in A, D in B, checked simplexwise.
    The built-in covers are memoized on X, so a cover holds X weakly."""

    X = weak("X")

    def __init__(self, X, A: Subcomplex, B: Subcomplex,
                 C: Subcomplex | None = None, D: Subcomplex | None = None):
        if A.ambient != X or B.ambient != X:
            raise NotACover("A and B must be subcomplexes of X")
        C = C if C is not None else empty_subcomplex(X)
        D = D if D is not None else empty_subcomplex(X)
        for k in range(X.dimension + 1):
            for s in X.faces(k):
                if not (A.contains(s) or B.contains(s)):
                    raise NotACover(f"simplex {s} lies in neither A nor B")
        if not C.issubset(A) or not D.issubset(B):
            raise NotACover("relative data must satisfy C in A and D in B")
        self.X = X
        self.A, self.B, self.C, self.D = A, B, C, D
        self.AB = A.intersection(B)
        self.CD = C.intersection(D)
        self.Y = C.union(D)

    def __repr__(self):
        return f"CoverPair(X dim {self.X.dimension})"


def _maybe(killed: Subcomplex):
    return None if killed.is_empty() else killed


def direct_sum(a: FPModule, b: FPModule) -> FPModule:
    return FPModule(a.ring, a.generator_count + b.generator_count,
                    block_diag(a.ring, [a.relations, b.relations]))


def _zero_module(ring):
    return FPModule(ring, 0)


def _zero_map_into(ring, target: FPModule) -> ModuleMap:
    return ModuleMap(_zero_module(ring), target,
                     ExactMatrix.zeros(ring, target.generator_count, 0))


def _zero_map_from(ring, source: FPModule) -> ModuleMap:
    return ModuleMap(source, _zero_module(ring),
                     ExactMatrix.zeros(ring, 0, source.generator_count))


# maps[i] : modules[i] -> modules[i+1]; exactness: verdicts at modules[1..-2]
class ExactSequenceReport(namedtuple(
        "ExactSequenceReport", "kind node_labels modules maps exactness")):
    __slots__ = ()

    @property
    def all_exact(self) -> bool:
        return all(self.exactness)


class _MVSpaces:
    """The pair complexes a Mayer-Vietoris computation runs over, and what
    is built from them once, all in `_cache`: transfers, row maps, the
    sequences' non-connecting maps, and per degree the chain-level steps as
    matrices of columns: the cochain splitting, the zig-zag and the
    gluing."""

    def __init__(self, pair: CoverPair, G):
        X = pair.X
        self.A, self.B, self.C, self.AB = pair.A, pair.B, pair.C, pair.AB
        self.ring, self.rank = G.ring, G.rank
        self.inter = pair_complex(X, G, pool=pair.AB, killed=_maybe(pair.CD))
        self.left = pair_complex(X, G, pool=pair.A, killed=_maybe(pair.C))
        self.right = pair_complex(X, G, pool=pair.B, killed=_maybe(pair.D))
        self.whole = pair_complex(X, G, killed=_maybe(pair.Y))
        self.absolute = pair_complex(X, G)
        self.table = row_table(G)   # the table of shared rows
        self._cache = {}   # objects derived from these spaces

    def transfer(self, src, dst, k) -> ExactMatrix:
        return memo(self, (src, dst, k),
                    lambda: transfer_matrix(src, dst, k).shared(self.table))

    def row_maps(self, first, last, k):
        """The chain maps into and out of C(A)+C(B) in degree k of the row
        first -> C(A)+C(B) -> last, each [A part, B part].  The map at the
        intersection node carries the minus sign on its B part: the one
        place the sign is applied, once per matrix."""
        def build():
            sides = (self.left, self.right)
            into = [self.transfer(first, pc, k) for pc in sides]
            out = [self.transfer(pc, last, k) for pc in sides]
            signed = into if first is self.inter else out
            signed[1] = (-signed[1]).shared(self.table)
            return into, out
        return memo(self, ("row", first, last, k), build)

    def blocks(self, pc, k, inside) -> ExactMatrix:
        """The projection of pc's degree-k coordinates onto the fiber blocks
        of the simplices that `inside` holds."""
        return pc.cell_map(pc, k, lambda s: ((s, 1),) if inside(s) else ())

    def split(self, k):
        """The cochain splitting of degree k, (S_beta, S_gamma): a cochain
        alpha of the intersection pair goes to beta = S_beta alpha, alpha on
        the simplices outside C, and gamma = S_gamma alpha, minus alpha on
        those inside C, so that beta|^ - gamma|^ = alpha, the identity
        `splitting_holds` checks."""
        def build():
            s_gamma = self.inter.cell_map(self.right, k, lambda s: (
                ((s, -1),) if self.C.contains(s) else ()))
            return (self.transfer(self.inter, self.left, k),
                    s_gamma.shared(self.table))
        return memo(self, ("split", k), build)

    def difference(self, k) -> ExactMatrix:
        """The difference map (beta, gamma) -> beta|^ - gamma|^ of degree
        k, out of the k-cochains of C(A)+C(B) stacked: the cohomology row's
        `row_maps` out of its middle node, side by side.  A splitting is
        `split(k)` stacked, and difference(k) times it is the identity."""
        return memo(self, ("difference", k), lambda: ExactMatrix.hstack(
            self.row_maps(self.whole, self.inter, k)[1]).shared(self.table))

    def zigzag(self, k) -> ExactMatrix:
        """The zig-zag of degree k: a relative k-cycle of (X, Y), lifted to
        absolute chains, goes to the boundary of its A-part less the C-part
        of its boundary, an absolute (k-1)-chain, which lies in A^B."""
        # off A both terms vanish; on A outside B the boundary of the B-part
        # does, and the boundary of a relative cycle lies in Y, hence in C
        def build():
            d = self.absolute.boundary(k)
            in_a = self.blocks(self.absolute, k, self.A.contains)
            in_c = self.blocks(self.absolute, k - 1, self.C.contains)
            lift = self.transfer(self.whole, self.absolute, k)
            return ((d @ in_a - in_c @ d) @ lift).shared(self.table)
        return memo(self, ("zigzag", k), build)

    def glue(self, k):
        """The gluing of degree k, (glue, overlap), each on the k-cochains
        (beta, gamma) of C(A)+C(B), stacked: glue gives the (k+1)-cochain of
        (X, Y) that is delta beta on the simplices in A and delta gamma on
        the others, and overlap gives delta beta - delta gamma on the
        simplices in both, which vanishes on the splitting of a cocycle."""
        def build():
            whole, in_a = self.whole, self.A.contains
            d_beta, d_gamma = (self.transfer(pc, whole, k + 1)
                               @ pc.coboundary(k)
                               for pc in (self.left, self.right))
            out_a = self.blocks(whole, k + 1, lambda s: not in_a(s))
            in_ab = self.blocks(whole, k + 1, self.AB.contains)
            glue = ExactMatrix.hstack([d_beta, out_a @ d_gamma])
            overlap = in_ab @ ExactMatrix.hstack([d_beta, -d_gamma])
            return glue.shared(self.table), overlap.shared(self.table)
        return memo(self, ("glue", k), build)


def _mv_spaces(pair: CoverPair, G) -> _MVSpaces:
    """The Mayer-Vietoris spaces of the cover over G, memoized on G under
    the cover's pieces, so they die with G and equal covers share them."""
    return memo(G, ("mv_spaces", pair.A, pair.B, pair.C, pair.D),
                lambda: _MVSpaces(pair, G))


def _connecting_chain(spaces: _MVSpaces, k, cycles: ExactMatrix):
    """The zig-zag representatives of the homology connecting map, one per
    column of `cycles`, relative k-cycles of (X, Y): each column's
    `_MVSpaces.zigzag` image, checked to lie in the intersection, in the
    (A^B, C^D) coordinates."""
    chains = spaces.zigzag(k) @ cycles
    cell = spaces.absolute.cell
    # the first column that escapes, at its first simplex outside A^B
    escapes = [(min(row), i) for i, row in enumerate(chains.sparse_rows)
               if row and not spaces.AB.contains(cell(k - 1, i))]
    if escapes:
        s = cell(k - 1, min(escapes)[1])
        raise ConnectingChainEscapes(
            f"connecting chain escapes the intersection at {s}")
    return spaces.transfer(spaces.absolute, spaces.inter, k - 1) @ chains


def _glue_coboundary(spaces: _MVSpaces, k, cocycles: ExactMatrix):
    """The chain-level connecting values delta(alpha) in the (X, Y)
    coordinates, one per column alpha of `cocycles`: the coboundaries of
    the two halves of the splitting, glued along the overlap, where they
    must agree."""
    halves = ExactMatrix.vstack([s @ cocycles for s in spaces.split(k)])
    glue, overlap = spaces.glue(k)
    if not (overlap @ halves).is_zero():
        raise CoboundariesDisagree("coboundaries disagree on the overlap")
    return glue @ halves


def _connecting_map(spaces: _MVSpaces, k, src: HomologyPresentation,
                    dst: HomologyPresentation, step, error) -> ModuleMap:
    """The connecting map out of degree k, computed on representatives:
    step(spaces, k, reps) carries the matrix of generators of src to
    (co)cycles whose classes in dst are their images; `error` is raised
    when one is not."""
    images = dst.class_matrix(step(spaces, k, src.cycles))
    if images is None:
        raise ConnectingImageNotCycle(error)
    return ModuleMap(src.module, dst.module, images)


def _sequence_maps(spaces: _MVSpaces, kind, degrees, nodes, first_pc,
                   last_pc):
    """The maps of the `kind` sequence other than its connecting maps: the
    zero map into the first node, then per degree the direct sum
    H(A)+H(B) with the maps into and out of it that `_MVSpaces.row_maps`
    induce, then the zero map out of the last node.

    `nodes` holds each degree's presentations (first, [A, B], last).  The
    maps are memoized on the spaces, keyed by the presentations they are
    induced between, so a presentation built afresh gets maps of its own.
    """
    def build():
        ring = spaces.ring
        rows = []
        for k, (p_first, p_sides, p_last) in zip(degrees, nodes):
            m_sum = direct_sum(p_sides[0].module, p_sides[1].module)
            into, out = spaces.row_maps(first_pc, last_pc, k)
            into = [induced_map(f, p_first, p).matrix
                    for f, p in zip(into, p_sides)]
            out = [induced_map(f, p, p_last).matrix
                   for f, p in zip(out, p_sides)]
            rows.append((m_sum,
                         ModuleMap(p_first.module, m_sum,
                                   ExactMatrix.vstack(into)),
                         ModuleMap(m_sum, p_last.module,
                                   ExactMatrix.hstack(out))))
        return (_zero_map_into(ring, nodes[0][0].module), rows,
                _zero_map_from(ring, nodes[-1][2].module))
    presented = tuple(p for first, sides, last in nodes
                      for p in (first, *sides, last))
    return memo(spaces, ("sequence", kind, presented), build)


def _mv_sequence(spaces: _MVSpaces, kind, degrees, present, script, first,
                 last, step, error) -> ExactSequenceReport:
    """The long exact sequence, degree by degree in the order `degrees`.

    Each degree contributes first -> H(A)+H(B) -> last, with `present`
    (PairComplex.homology or .cohomology) giving the modules and the maps
    induced by `_MVSpaces.row_maps`; first and last are (pair complex,
    label) pairs.  Consecutive degrees are joined by `_connecting_map` with
    `step`.

    The sequence is built once and re-checked on every call: the induced
    maps, direct sums and end maps come from `_sequence_maps`, and each
    owns its image factorization, while the connecting maps and exactness
    at every node are computed again from them.
    """
    ring = spaces.ring
    (first_pc, first_name), (last_pc, last_name) = first, last
    sides = (spaces.left, spaces.right)
    nodes = [(present(first_pc, k), [present(pc, k) for pc in sides],
              present(last_pc, k)) for k in degrees]
    into_first, rows, out_of_last = _sequence_maps(spaces, kind, degrees,
                                                   nodes, first_pc, last_pc)
    labels = ["0"]
    modules = [_zero_module(ring)]
    maps = [into_first]
    prev = None
    for k, (p_first, _, p_last), (m_sum, into, out) in zip(degrees, nodes,
                                                             rows):
        if prev is not None:
            maps.append(_connecting_map(spaces, *prev, p_first, step, error))
        maps += [into, out]
        h = f"H{script}{k}"
        labels += [f"{h}({first_name})", f"{h}(A)+{h}(B)", f"{h}({last_name})"]
        modules += [p_first.module, m_sum, p_last.module]
        prev = (k, p_last)
    labels.append("0")
    modules.append(_zero_module(ring))
    maps.append(out_of_last)

    exactness = tuple(is_exact_at(maps[i], maps[i + 1])
                      for i in range(len(maps) - 1))
    return ExactSequenceReport(kind, tuple(labels), tuple(modules),
                               tuple(maps), exactness)


def mv_homology(pair: CoverPair, G) -> ExactSequenceReport:
    """The long exact homology sequence of the cover, checked at every node."""
    spaces = _mv_spaces(pair, G)
    return _mv_sequence(spaces, "homology", range(pair.X.dimension, -1, -1),
                        PairComplex.homology, "_", (spaces.inter, "A^B"),
                        (spaces.whole, "X"), _connecting_chain,
                        "connecting image is not a cycle")


def mv_cohomology(pair: CoverPair, G) -> ExactSequenceReport:
    """The long exact cohomology sequence of the cover."""
    spaces = _mv_spaces(pair, G)
    return _mv_sequence(spaces, "cohomology", range(pair.X.dimension + 1),
                        PairComplex.cohomology, "^", (spaces.whole, "X"),
                        (spaces.inter, "A^B"), _glue_coboundary,
                        "glued cochain is not a cocycle")


def mv_splitting(pair: CoverPair, G, k, alpha):
    """The explicit preimage (beta, gamma) of one cochain alpha of the
    intersection pair, read off `_MVSpaces.split`, with the defining
    equation beta|^ - gamma|^ = alpha re-checked exactly before returning."""
    spaces = _mv_spaces(pair, G)
    ring = spaces.ring
    if len(alpha) != spaces.inter.length(k):
        raise TwistcapError(
            "cochain length does not match the intersection pair")
    s_beta, s_gamma = spaces.split(k)
    beta, gamma = s_beta.apply(alpha), s_gamma.apply(alpha)
    recovered = spaces.difference(k).apply(beta + gamma)
    if recovered != tuple(ring.normalize(x) for x in alpha):
        raise TwistcapError("splitting failed its defining equation")
    return beta, gamma


def splitting_holds(pair: CoverPair, G) -> bool:
    """The splitting identity T(left->inter) S_beta - T(right->inter)
    S_gamma = 1, the difference map times the splitting, holds in every
    degree, on MV spaces read once: beta|^ - gamma|^ = alpha for every
    cochain alpha of the intersection pair."""
    spaces = _mv_spaces(pair, G)
    return all(spaces.difference(k) @ ExactMatrix.vstack(spaces.split(k))
               == ExactMatrix.identity(spaces.ring, spaces.inter.length(k))
               for k in range(pair.X.dimension + 1))


# ---------------------------------------------------------------------------
# the cap-compatibility diagram
# ---------------------------------------------------------------------------

class Diagram6Report(namedtuple("Diagram6Report", "square_left square_right "
                                "connecting_ok connecting_sign")):
    __slots__ = ()

    @property
    def all_verified(self) -> bool:
        return self.square_left and self.square_right and self.connecting_ok

    def table(self):
        """The report's rows: a header, then one check row per block."""
        sign = self.connecting_sign
        yield "block", "verdict", "sign"
        yield "cap-square-left", self.square_left, "+1"
        yield "cap-square-right", self.square_right, "+1"
        yield "connecting", self.connecting_ok, \
            "n/a" if sign is None else f"{sign:+d}"


def _restricted_fundamental_chain(M, nu, pool_pc, allowed_defect: Subcomplex):
    """nu restricted to a subcomplex pool, with its boundary support checked."""
    full_pc = pair_complex(M, nu.system)
    n = M.dimension
    vec = transfer_matrix(full_pc, pool_pc, n).apply(nu.chain)
    defect = pool_pc.boundary(n).apply(vec)
    for s in pool_pc.coefficients(n - 1, defect):
        if not allowed_defect.contains(s):
            raise TwistcapError(
                f"restricted fundamental chain has boundary outside the pair at {s}")
    return vec


def _route_gaps(pres: HomologyPresentation, first: ExactMatrix,
                second: ExactMatrix, weights=(1,)) -> list | None:
    """For each weight w, class(first) - w * class(second), column by column,
    all read off one class_matrix of the two routes side by side; None
    unless every column of both routes is a cycle."""
    classes = pres.class_matrix(ExactMatrix.hstack([first, second]))
    if classes is None:
        return None
    ident = ExactMatrix.identity(pres.ring, first.cols)
    return [classes @ ExactMatrix.vstack([ident, ident.scale(-w)])
            for w in weights]


def _star_inside(M, K: FullSubcomplex, U: Subcomplex) -> bool:
    """The closed star of K's vertices lies in U: every maximal simplex
    meeting K does, since U is face-closed and every simplex meeting K is a
    face of one."""
    vs = K.vertex_subset
    return all(U.contains(s) for s in M.maximal_simplices
               if not vs.isdisjoint(s))


def _diagram6_covers(M, U, V, K, L):
    """The diagram's top cover, M = M u M relative to the complements of K
    and L, and its bottom cover (U, V), built once per configuration and
    memoized on M."""
    def build():
        whole = whole_subcomplex(M)
        top = CoverPair(M, whole, whole, C=K.complement().as_subcomplex(),
                        D=L.complement().as_subcomplex())
        return top, CoverPair(M, U, V)
    return memo(M, ("diagram6_covers", U, V, K, L), build)


def diagram6_check(M, U: Subcomplex, V: Subcomplex, K: FullSubcomplex,
                   L: FullSubcomplex, G, ring, resample_seed=None) -> Diagram6Report:
    """Evaluate the three blocks of the cap-compatibility diagram on classes.

    The diagram is a ladder of cap products between two Mayer-Vietoris rows
    read off `_MVSpaces.row_maps`: the cohomology of the (M|K), (M|L) cover
    on top, the homology of (U, V) below.  Each block compares its two chain
    routes on the matrix of generator representatives of its source node.
    The two cap squares must commute exactly (the second cap column carries
    the minus sign); the connecting block must commute up to one global
    sign, which is measured and reported.  A route that leaves the cycles
    fails its block.  `resample_seed` perturbs every source representative
    by a coboundary before evaluation, so a passing run also certifies
    independence of representative choices.

    The two covers and their MV spaces are built once per configuration;
    the star containments, the cap rungs and every block are checked again
    on every call.
    """
    if not _star_inside(M, K, U):
        raise TwistcapError("K is not interior to U (star containment fails)")
    if not _star_inside(M, L, V):
        raise TwistcapError("L is not interior to V (star containment fails)")
    n = M.dimension
    nu = fundamental_class_direct(M, ring)
    MR = nu.system
    GT = tensor(G, MR)
    pair_top, pair_bot = _diagram6_covers(M, U, V, K, L)
    comp_k, comp_l = pair_top.C, pair_top.D
    top = _mv_spaces(pair_top, G)
    bot = _mv_spaces(pair_bot, GT)
    rng = random.Random(resample_seed) if resample_seed is not None else None

    # restricted fundamental chains and their pair complexes
    mr_abs = pair_complex(M, MR)
    mr_uv = pair_complex(M, MR, pool=pair_bot.AB)
    mr_u = pair_complex(M, MR, pool=pair_bot.A)
    mr_v = pair_complex(M, MR, pool=pair_bot.B)
    nu_uv = _restricted_fundamental_chain(M, nu, mr_uv, pair_top.Y)
    nu_u = _restricted_fundamental_chain(M, nu, mr_u, comp_k)
    nu_v = _restricted_fundamental_chain(M, nu, mr_v, comp_l)

    def generators(pc, pres, k):
        """The generator representatives of `pres`, resampled column by
        column."""
        if rng is None or k == 0:
            return pres.cycles
        length, cols = pc.length(k - 1), pres.cycles.cols
        rows = [{} for _ in range(length)]
        for j in range(cols):
            for row in rows:
                x = ring.normalize(rng.randint(-2, 2))
                if x:
                    row[j] = x
        noise = ExactMatrix._from_rows(ring, rows, cols)
        return pres.cycles + pc.coboundary(k - 1) @ noise

    # the first node's cap rung; the connecting block of degree k reads k + 1
    caps_first = [cap_matrix(top.whole, mr_uv, bot.inter, k, n, nu_uv)
                  for k in range(n + 1)]
    square_left = square_right = connecting_ok = True
    sign_constraints = set()

    # the blocks draw their noise in this order, generator by generator, which
    # fixes the representatives each resample seed moves
    for k in range(n + 1):
        p_first = top.whole.cohomology(k)          # H^k(M | K^L)
        p_sides = [pc.cohomology(k)                # H^k(M | K), H^k(M | L)
                   for pc in (top.left, top.right)]
        b_sides = [pc.homology(n - k) for pc in (bot.left, bot.right)]
        b_whole = bot.whole.homology(n - k)
        top_into, top_out = top.row_maps(top.whole, top.inter, k)
        bot_into, bot_out = bot.row_maps(bot.inter, bot.whole, n - k)
        caps = [cap_matrix(top.left, mr_u, bot.left, k, n, nu_u),
                -cap_matrix(top.right, mr_v, bot.right, k, n, nu_v)]
        cap_m = cap_matrix(top.inter, mr_abs, bot.whole, k, n, nu.chain)

        # left cap square: through the intersection, or through the middle
        X = generators(top.whole, p_first, k)
        down = caps_first[k] @ X
        gaps = [_route_gaps(p, into @ down, cap @ (t_into @ X))
                for p, into, cap, t_into in zip(b_sides, bot_into, caps,
                                                top_into)]
        square_left &= None not in gaps and all(
            p.module.zero_classes(gap[0]) for p, gap in zip(b_sides, gaps))

        # right cap square, on the generators of both middle summands
        via_top, via_bottom = [], []
        for pc, p, t_out, cap, b_out in zip((top.left, top.right), p_sides,
                                            top_out, caps, bot_out):
            X = generators(pc, p, k)
            via_top.append(cap_m @ (t_out @ X))
            via_bottom.append(b_out @ (cap @ X))
        gaps = _route_gaps(b_whole, ExactMatrix.hstack(via_top),
                           ExactMatrix.hstack(via_bottom))
        square_right &= (gaps is not None
                         and b_whole.module.zero_classes(gaps[0]))

        # Connecting block: delta then cap, against cap then boundary.  The
        # pinned cap identity carries the bidegree weight (-1)^(n-k) on the
        # coboundary term; the zig-zag inherits it, so the comparison is made
        # against the weighted route and the residual global sign is
        # reported, decided generator by generator.
        if k < n:
            p_down = bot.inter.homology(n - k - 1)
            X = generators(top.inter, top.inter.cohomology(k), k)
            glued = _glue_coboundary(top, k, X)
            zigzag = _connecting_chain(bot, n - k, cap_m @ X)
            weight = ring.normalize((-1) ** (n - k))
            gaps = _route_gaps(p_down, caps_first[k + 1] @ glued, zigzag,
                               (weight, -weight))
            if gaps is None:
                connecting_ok = False
                continue
            for plus_gap, minus_gap in zip(*(gap.columns() for gap in gaps)):
                plus = p_down.module.is_zero_class(plus_gap)
                minus = p_down.module.is_zero_class(minus_gap)
                # both: a torsion ambiguity, with no sign information
                if plus != minus:
                    sign_constraints.add(1 if plus else -1)
                elif not plus:
                    connecting_ok = False

    if len(sign_constraints) > 1:
        connecting_ok = False
    sign = sign_constraints.pop() if len(sign_constraints) == 1 else None
    return Diagram6Report(square_left, square_right, connecting_ok, sign)


# ---------------------------------------------------------------------------
# named covers and diagram configurations
# ---------------------------------------------------------------------------

def _octahedron_hemispheres(M):
    return closed_star(M, {0}), closed_star(M, {1})


def _torus7_strips(M):
    A = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    B = [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    u_tris = [A[0], B[1], A[1], B[2], A[2], B[3], A[3]]
    v_tris = [B[4], A[4], B[5], A[5], B[6], A[6], B[0]]
    return Subcomplex(M, u_tris), Subcomplex(M, v_tris)


def _strips(M, grid, axis, *line_sets):
    """For each set of lines, the subcomplex of the squares whose `axis`
    coordinate lies in it, M being the grid surface of `_grid_cells(*grid)`."""
    cells = _grid_cells(*grid)
    return tuple(Subcomplex(M, [t for xy, pair in cells.items()
                                if xy[axis] in lines for t in pair])
                 for lines in line_sets)


def _klein_columns(M):
    return _strips(M, (3, 3, True), 0, {0, 1}, {2})


# (complex, cover) -> the two pieces of the built-in cover, in the order
# checks run them
_COVER_PIECES = {("octahedron", "hemispheres"): _octahedron_hemispheres,
                 ("torus", "cylinders"): _torus7_strips,
                 ("klein", "cylinders"): _klein_columns}
NAMED_COVERS = tuple(_COVER_PIECES)


def named_cover(complex_name: str, cover_name: str) -> tuple:
    """(complex, CoverPair) for the built-in cover configurations.  Each is
    built once and memoized on its complex, which lasts for the process."""
    pieces = _COVER_PIECES.get((complex_name, cover_name))
    if pieces is None:
        raise UnknownName(f"no cover {cover_name!r} for complex {complex_name!r}")
    M = named_complex(complex_name)
    return M, memo(M, ("named_cover", cover_name),
                   lambda: CoverPair(M, *pieces(M)))


def _grid_bands(M, grid, axis):
    """U, V, K, L of diagram (6) on the grid surface M of `_grid_cells(*grid)`
    with 4m lines across `axis`: U is the squares in lines [3m, 4m) u [0, 2m),
    V those in [m, 4m), K the vertices in lines [0, 2m), those of the squares
    in [0, 2m - 1), and L the rest.  The stars of K and L lie in U and V for
    every m >= 1, but not across axis 1 of a twisted grid, whose seam flips
    the lines; that shape is refused, as is any other side."""
    m, rest = divmod(grid[axis], 4)
    if m < 1 or rest or (grid[2] and axis == 1):
        raise TwistcapError(f"no diagram-6 bands across axis {axis} of {grid}")
    U, V, W = _strips(M, grid, axis, {i % (4 * m) for i in range(-m, 2 * m)},
                      set(range(m, 4 * m)), set(range(2 * m - 1)))
    K = FullSubcomplex(M, (v for v, in W.faces(0)))
    return U, V, K, K.complement()


def _sphere_halves(M):
    return (Subcomplex(M, [t for t in M.faces(2) if t != (1, 3, 5)]),
            Subcomplex(M, [t for t in M.faces(2) if t != (0, 2, 4)]),
            FullSubcomplex(M, {0, 2, 4}), FullSubcomplex(M, {1, 3, 5}))


# configuration name -> (complex name, builder of U, V, K, L)
_DIAGRAM6 = {"torus": ("torus4", lambda M: _grid_bands(M, (4, 4, False), 1)),
             "sphere": ("octahedron", _sphere_halves),
             "klein": ("klein4", lambda M: _grid_bands(M, (4, 3, True), 0))}


def named_diagram6(name: str) -> dict:
    """Built-in diagram-6 configurations: (M, U, V, K, L).

    K and L split the vertices into thick bands (`_grid_bands` on the grids)
    with U, V proper neighbourhoods, so both cap squares are nontrivial and
    the connecting block observable: the unit class of H^0(M|KuL) caps to
    the fundamental class, whose Mayer-Vietoris boundary is nonzero.  Each is
    memoized on its complex; each call gets a new dict of the same pieces."""
    if name not in _DIAGRAM6:
        raise UnknownName(f"no diagram-6 configuration named {name!r}")
    complex_name, pieces = _DIAGRAM6[name]
    M = named_complex(complex_name)
    return {"complex": M, **memo(M, ("named_diagram6", name), lambda: dict(
        zip(("U", "V", "K", "L"), pieces(M))))}


def diagram6_names():
    return tuple(_DIAGRAM6)
