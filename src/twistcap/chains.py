"""Twisted simplicial chain and cochain complexes and fundamental classes.

Coefficients of a k-chain sit in the fiber at the leading (lowest) vertex of
each k-simplex.  The boundary of g*sigma keeps g with sign (-1)^i on the face
dropping vertex i >= 1; the face dropping vertex 0 carries the coefficient
through the inverse transport along sigma's leading edge.  The coboundary is
the unique convention that makes the cap boundary identity hold on the nose:

    delta c (sigma) = T[v0<-v1](c(face_0)) + sum_{i>=1} (-1)^i c(face_i)

Relative pairs use full-subcomplex complements: C(M|K) = C(M)/C(complement K).
Coordinates belong to the cells, one fiber block per simplex in `space(k)`
order: an absolute PairComplex reads the base complex's own faces and face
index, and the relative ones over one cell set (pool, killed) read one
tuple and one index per degree, memoized on the base under the cell set's
content, whatever their system.  PairComplex owns this layout: it builds
the (co)boundaries, the chain map a signed map of cells induces
(`cell_map`: transfers, quotients, a cover's deck map, projection and
orbit inclusions, the MV splitting) and rank-1 chains (`chain`,
`coefficients`).  It keeps its (co)boundaries and the presentations of its
homology and cohomology, each kind built for every degree at once as a
ladder that factors no boundary of its own; both take their rows from the
system's table of shared rows (matrices.row_table), as the MV spaces' kept
transfers do.
The direct, facet-by-facet construction of the twisted fundamental class
lives here as well; the construction through the orientation double cover
lives in `covers`, which builds on this module.
"""

from __future__ import annotations

from .complexes import (FullSubcomplex, SimplicialComplex, Subcomplex,
                        memo, star_signs, validate, weak)
from .errors import (CheckFailed, FlatnessViolation, NotClosedPseudomanifold,
                     TwistcapError)
from .fpmodules import HomologyPresentation, homology_presentation
from .localsystems import LocalSystem, orientation_system, validate_flatness
from .matrices import ExactMatrix, row_table


class NotAFundamentalCycle(CheckFailed):
    """Raised when the requested coefficient system admits no such cycle."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PairComplex:
    """Chain/cochain matrices of (pool, killed) with twisted coefficients.

    pool defaults to the whole complex and killed (read only by `contains`)
    to nothing.  Coordinates at degree k are the k-simplices of pool not in
    killed, in lexicographic order, with one fiber block of size rank each.
    The coordinates belong to the cells, not to the system: an absolute
    complex reads the base's own `faces` and `face_index`, and every
    relative complex over one (pool, killed) reads one tuple and one index
    per degree, kept on the base.  The matrices are the complex's own.

    The complex is memoized on its system, so it holds the system and the
    base weakly, and the base's face tables, plain data, strongly.
    """

    base = weak("base")
    system = weak("system")

    def __init__(self, base: SimplicialComplex, system: LocalSystem,
                 pool: Subcomplex | None = None,
                 killed: Subcomplex | FullSubcomplex | None = None):
        # the verdict is checked once per system; a non-flat system keeps
        # its verdict and raises on every construction
        ok, witness = memo(system, "flatness",
                           lambda: validate_flatness(system))
        if not ok:
            raise FlatnessViolation(f"system is not flat at triangle {witness}")
        self.base = base
        self.system = system
        self.ring = system.ring
        self.rank = system.rank
        self.pool = pool
        self.killed = killed
        self._faces = base._faces
        self._index = base._index
        self._cache = {}   # matrices, per degree

    # -- coordinates ------------------------------------------------------

    def space(self, k: int):
        if self.pool is None and self.killed is None:
            return self._faces.get(k, ())

        def build():
            simplices = (self._faces.get(k, ()) if self.pool is None
                         else tuple(sorted(self.pool.faces(k))))
            if self.killed is not None:
                simplices = tuple(s for s in simplices
                                  if not self.killed.contains(s))
            return simplices
        return self._cells("space", k, build)

    def index(self, k: int):
        if self.pool is None and self.killed is None:
            return self._index.get(k, {})
        return self._cells("index", k, lambda: {
            s: i for i, s in enumerate(self.space(k))})

    def _cells(self, kind, k, build):
        """The relative coordinates of one kind at degree k: one value per
        cell set, memoized on the base under (kind, pool, killed, k)."""
        return memo(self.base, (kind, self.pool, self.killed, k), build)

    def length(self, k: int) -> int:
        return len(self.space(k)) * self.rank

    def chain(self, k: int, coefficients: dict) -> tuple:
        """The rank-1 k-chain with the integer coefficient c on each
        simplex s of {s: c}, and 0 elsewhere."""
        return tuple(self.ring.from_int(coefficients.get(s, 0))
                     for s in self.space(k))

    def coefficients(self, k: int, vec) -> dict:
        """The nonzero coefficients of the rank-1 k-chain vec, by simplex,
        in `space(k)` order."""
        return {s: x for s, x in zip(self.space(k), vec) if x}

    def cell_map(self, dst: PairComplex, k: int, images) -> ExactMatrix:
        """The degree-k chain map into dst induced by a signed map of cells:
        s goes to the sum of sign * t over the (t, sign) pairs of images(s),
        distinct cells, each as sign times the identity of the fiber block;
        a t that dst does not hold contributes nothing."""
        ring, r = self.ring, self.rank
        index = dst.index(k)
        data = [{} for _ in range(dst.length(k))]
        for j, s in enumerate(self.space(k)):
            for t, sign in images(s):
                pos = index.get(t)
                if pos is not None:
                    x = ring.from_int(sign)
                    for a in range(r):
                        data[pos * r + a][j * r + a] = x
        return ExactMatrix._from_rows(ring, data, self.length(k))

    # -- matrices ---------------------------------------------------------

    def boundary(self, k: int) -> ExactMatrix:
        """d_k : C_k -> C_{k-1}."""
        return memo(self, ("boundary", k),
                    lambda: self._assemble(k, cochains=False))

    def coboundary(self, k: int) -> ExactMatrix:
        """delta_k : C^k -> C^{k+1}."""
        return memo(self, ("coboundary", k),
                    lambda: self._assemble(k + 1, cochains=True))

    def _assemble(self, k: int, cochains: bool) -> ExactMatrix:
        """d_k, or delta_{k-1} when `cochains`, from one pass over the faces
        of the k-simplices.

        Face i >= 1 enters with sign (-1)^i.  Face 0 enters through the
        leading-edge transport: T[s1<-s0] at (face, simplex) for d_k, and
        T[s0<-s1] at (simplex, face) for delta_{k-1}.
        """
        ring, r = self.ring, self.rank
        transport = self.system.transport
        faces, simplices = self.space(k - 1), self.space(k)
        fidx = self.index(k - 1)
        rows, cols = (simplices, faces) if cochains else (faces, simplices)
        data = [{} for _ in range(len(rows) * r)]
        for j, s in enumerate(simplices):
            for i in range(len(s)):
                pos = fidx.get(s[:i] + s[i + 1:])
                if pos is None:
                    continue
                row, col = (j * r, pos * r) if cochains else (pos * r, j * r)
                if i == 0:
                    u, v = (s[0], s[1]) if cochains else (s[1], s[0])
                    for a, entries in enumerate(transport(u, v).sparse_rows):
                        data[row + a].update(
                            (col + b, x) for b, x in entries.items())
                else:
                    sign = ring.from_int(-1 if i % 2 else 1)
                    for a in range(r):
                        data[row + a][col + a] = sign
        return ExactMatrix._from_rows(ring, data, len(cols) * r).shared(
            row_table(self.system))

    def verify_squares(self):
        """d o d = 0 and delta o delta = 0 in every degree."""
        n = self.base.dimension
        for k in range(n + 2):
            if not (self.boundary(k) @ self.boundary(k + 1)).is_zero():
                raise FlatnessViolation(f"boundary squared != 0 at degree {k + 1}")
        for k in range(-1, n + 1):
            if not (self.coboundary(k + 1) @ self.coboundary(k)).is_zero():
                raise FlatnessViolation(f"coboundary squared != 0 at degree {k}")
        return True

    # -- homology ---------------------------------------------------------

    def homology(self, k: int) -> HomologyPresentation:
        """H_k = ker d_k / im d_{k+1}, presented (see `_ladder`)."""
        return self._ladder("homology", k, self.boundary, 1)

    def cohomology(self, k: int) -> HomologyPresentation:
        """H^k = ker delta_k / im delta_{k-1}, presented (see `_ladder`)."""
        return self._ladder("cohomology", k, self.coboundary, -1)

    def _ladder(self, kind, k, d_out, step):
        """Degree k of the presentations of every degree, memoized as one
        under `kind`; d_out(j) is the map out of degree j and d_out(j +
        step) the map into it.

        The first ask presents every degree, as a ladder: from the degree
        whose d_out has no rows, 0 for homology and the dimension for
        cohomology, each degree hands its relations' factorization to the
        next, which reads its kernel off it and factors no d_out of its own
        (the `rung` of fpmodules.homology_presentation).  So a presentation
        depends only on the pair and the degree, never on which degree was
        asked first, and no factorization outlives the build.  A degree
        outside 0..n has no chains, and is presented afresh.
        """
        n = self.base.dimension
        if not 0 <= k <= n:
            return homology_presentation(d_out(k + step), d_out(k))

        def build():
            rung, table = [None], row_table(self.system)
            degrees = range(n + 1) if step > 0 else range(n, -1, -1)
            presented = {j: homology_presentation(d_out(j + step), d_out(j),
                                                  rung=rung, table=table)
                         for j in degrees}
            return tuple(presented[j] for j in range(n + 1))
        return memo(self, kind, build)[k]


def pair_complex(base, system, pool=None, killed=None) -> PairComplex:
    """The PairComplex of (pool, killed), memoized on the system."""
    owner = system.base
    if owner is not base and owner != base:
        raise TwistcapError("system lives on a different complex")
    return memo(system, ("pair_complex", pool, killed),
                lambda: PairComplex(base, system, pool, killed))


def relative_killed(M: SimplicialComplex, K: FullSubcomplex | None):
    """The full subcomplex that C(M|K) kills, or None when it is empty."""
    if K is None:
        return None
    comp = K.complement()
    return comp if comp.vertex_subset else None


def homology(M, G, k, K: FullSubcomplex | None = None) -> HomologyPresentation:
    return pair_complex(M, G, killed=relative_killed(M, K)).homology(k)


def cohomology(M, G, k, K: FullSubcomplex | None = None) -> HomologyPresentation:
    return pair_complex(M, G, killed=relative_killed(M, K)).cohomology(k)


def transfer_matrix(src: PairComplex, dst: PairComplex, k: int) -> ExactMatrix:
    """Identity-block matrix matching shared simplices.

    Covers inclusion of a subcomplex pair into a larger one and quotient
    projections alike: coordinates present on both sides map by the identity,
    everything else to zero.  Both sides must share base, system and ring.
    A memo that keeps the matrix shares its rows (mv._MVSpaces.transfer).
    """
    if src.system is not dst.system and (src.base != dst.base
                                         or src.rank != dst.rank
                                         or src.ring != dst.ring):
        raise TwistcapError("transfer between unrelated complexes")
    return src.cell_map(dst, k, lambda s: ((s, 1),))


# ---------------------------------------------------------------------------
# fundamental classes
# ---------------------------------------------------------------------------

class FundamentalClassData:
    """A twisted top cycle plus access to its relative restrictions."""

    def __init__(self, base, ring, system, chain):
        self.base = base
        self.ring = ring
        self.system = system
        self.chain = chain
        self._pc = pair_complex(base, system)

    @property
    def degree(self):
        return self.base.dimension

    def restriction(self, K: FullSubcomplex):
        """The image of the cycle in the relative pair C(M|K)."""
        rel = pair_complex(self.base, self.system, killed=relative_killed(self.base, K))
        n = self.degree
        proj = transfer_matrix(self._pc, rel, n)
        return proj.apply(self.chain)


def fundamental_class_direct(M, ring, system=None) -> FundamentalClassData:
    """Assemble the twisted fundamental cycle facet by facet.

    Each facet enters with the sign comparing its canonical ordering against
    the reference orientation at its leading vertex.  With the orientation
    system this is always a cycle; with any other system the boundary defect
    is reported as a witness.
    """
    report = validate(M)
    if not report.closed_pseudomanifold:
        raise NotClosedPseudomanifold("fundamental classes need a closed pseudomanifold")
    if system is None:
        system = orientation_system(M, ring)
    pc = pair_complex(M, system)
    if pc.rank != 1:
        raise TwistcapError("fundamental cycles use a rank-1 system")
    n = M.dimension
    vec = pc.chain(n, {facet: star_signs(M, facet[0])[facet]
                       for facet in M.faces(n)})
    defect = pc.boundary(n).apply(vec)
    if any(x != ring.zero for x in defect):
        raise NotAFundamentalCycle(
            "facet signs do not close up over this system", witness=defect)
    return FundamentalClassData(M, ring, system, vec)


def inclusion_restriction(nu: FundamentalClassData, K1: FullSubcomplex,
                          K2: FullSubcomplex) -> bool:
    """Quotient-map image of nu_{K2} equals nu_{K1} in H_n(M|K1)."""
    if not K1.issubset(K2):
        raise TwistcapError("K1 must be contained in K2")
    M, n = nu.base, nu.degree
    pc2 = pair_complex(M, nu.system, killed=relative_killed(M, K2))
    pc1 = pair_complex(M, nu.system, killed=relative_killed(M, K1))
    proj = transfer_matrix(pc2, pc1, n)
    pres1 = pc1.homology(n)
    image = proj.apply(nu.restriction(K2))
    a = pres1.class_vector(image)
    b = pres1.class_vector(nu.restriction(K1))
    if a is None or b is None:
        raise TwistcapError("restrictions are not cycles")
    return pres1.module.classes_equal(a, b)
