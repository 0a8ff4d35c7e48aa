"""Finitely presented modules, induced maps, and isomorphism certificates.

An FPModule is generators plus a relation matrix, built one way,
FPModule(ring, n, relations); its normal form (free rank and
divisibility-chain torsion) comes from the Smith form of the relations and
is the notion of equality used everywhere.  A HomologyPresentation adds the
lifting data -- a generating set of cycles in chain coordinates -- so that
homology classes can be moved between the abstract module and actual chains.
Homology is presented on its Smith basis: one generator per free summand and
per torsion factor, the module built from its diagonal of invariants, which
is its own Smith form and so is not factored again
(matrices._is_own_smith_form), so every map and check built on it works on
matrices of that size.  A presentation costs one factorization,
of the raw relations, once its d_out is factored: the coordinates of a cycle
on the kernel generators are read off V^-1 of d_out, so the kernel is never
factored, and induced maps check boundaries on the Smith basis, so they
factor nothing.  d_out's factorization is handed up by the degree before:
where every kernel divisor of d_out is 1, the kernel generators K have a
left inverse, the kernel rows of V^-1, so ker d_in = ker R, and the
factorization of the relations R serves the next degree as the
factorization of its d_out (the ladder, chains.PairComplex.homology).
Where a divisor is not 1, which happens only over Z/m, the next degree
factors its own d_out.
A presentation builds no transform whole.  The kernel rows of V^-1 of d_out
give the cycle coordinates, the generator chains are V of d_out applied to
as many columns as there are generators, and the coordinate map is the kept
rows of U of the relations (the kept columns of U^-1 give the generator
chains); each is read off the logs of its elimination by replaying them
backward from those vectors, so the presentation pays no fill for the rows
and columns it drops.  A kernel row that is a unit vector e_c is kept as
its column c, and selects row c of the chains.
Each pair complex memoizes the presentations of every degree as one, so a
presentation is built once for as long as its complex lives; a lone call
presents afresh.  The generator chains and coordinate map of a kept
presentation take their rows from its system's table of shared rows
(`table`, matrices.row_table).

Each question about a presented module is asked one way, of a matrix:
class_matrix is the one route from chains to classes (None unless every
column is a cycle, and class_vector is its one-column case), and
FPModule.zero_classes is the one zero-class test, a single solve against the
relations; is_zero_class, classes_equal and the ModuleMap tests are its
forms.

A map of presented modules owns one factorization, `image`, of [matrix |
target relations], made on first use; surjectivity (generates), exactness and
is_isomorphism's inverse or kernel/cokernel witness are all read off it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (CertificateFailed, CompositionNonzero, NotChainMap,
                     TwistcapError)
from .matrices import (ExactMatrix, SmithDecomposition, SmithSolver,
                       _is_own_smith_form, smith_normal_form)
from .rings import RingSpec


class FPModule:
    """Module given by generators and relations, normalized eagerly."""

    __slots__ = ("ring", "generator_count", "relations", "_rel_solver",
                 "free_rank", "torsion", "__weakref__")

    def __init__(self, ring: RingSpec, generator_count: int,
                 relations: ExactMatrix | None = None):
        if relations is None:
            relations = ExactMatrix.zeros(ring, generator_count, 0)
        if relations.rows != generator_count or relations.ring != ring:
            raise TwistcapError("relation matrix shape/ring mismatch")
        self.ring = ring
        self.generator_count = generator_count
        self.relations = relations
        self._rel_solver = SmithSolver(relations)
        diag = [d for d in self._rel_solver.snf.diagonal() if d != ring.zero]
        self.free_rank = generator_count - len(diag)
        self.torsion = tuple(d for d in diag if not ring.is_unit(d))

    @property
    def normal_form(self):
        return (self.free_rank, self.torsion)

    def __eq__(self, other):
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.normal_form == other.normal_form)

    def __hash__(self):
        return hash((self.ring, self.normal_form))

    def __str__(self):
        free = str(self.ring)
        parts = []
        if self.free_rank == 1:
            parts.append(free)
        elif self.free_rank > 1:
            base = f"({free})" if "/" in free else free
            parts.append(f"{base}^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<FPModule {self} over {self.ring}>"

    # -- class arithmetic on generator coordinates -----------------------

    def zero_classes(self, classes: ExactMatrix) -> bool:
        """True when every column of `classes` is the zero class: the one
        zero-class test, a single solve against the relations, which stops
        once it knows a solution exists."""
        return self._rel_solver.solve_diagonal(classes) is not None

    def is_zero_class(self, coords) -> bool:
        return self.zero_classes(self._class_column(coords))

    def classes_equal(self, a, b) -> bool:
        return self.zero_classes(self._class_column(a) - self._class_column(b))

    def _class_column(self, coords) -> ExactMatrix:
        return ExactMatrix.from_columns(self.ring, [coords], self.generator_count)

    def generates(self, coords) -> bool:
        """True when the map from the ring sending 1 to `coords` is onto."""
        free = FPModule(self.ring, 1)
        onto = ModuleMap(free, self, self._class_column(coords))
        return onto.image_units() == self.generator_count


class HomologyPresentation:
    """FPModule together with its generators in chain coordinates.

    The columns of `cycles` are cycles, one per module generator.  A cycle z
    goes back to class coordinates in two steps: the kernel rows of V^-1 of
    d_out, each quotient divided by its a_j (see
    SmithDecomposition.kernel_positions), write z on the kernel generators,
    and `coords` = U[kept, :] of the raw relations maps those coordinates
    onto the module generators.
    """

    __slots__ = ("module", "cycles", "d_in", "d_out", "_kernel_rows",
                 "_divisors", "_coords", "__weakref__")

    def __init__(self, module: FPModule, cycles: ExactMatrix,
                 kernel_rows: tuple, divisors: tuple, coords: ExactMatrix,
                 d_in: ExactMatrix, d_out: ExactMatrix):
        self.module = module
        self.cycles = cycles
        self.d_in = d_in
        self.d_out = d_out
        self._kernel_rows = kernel_rows
        self._divisors = divisors
        self._coords = coords

    @property
    def ring(self):
        return self.module.ring

    @property
    def chain_rank(self):
        return self.cycles.rows

    def class_vector(self, chain):
        """Coordinates of a cycle on the module generators; None if not a cycle."""
        classes = self.class_matrix(
            ExactMatrix.from_columns(self.ring, [chain], self.chain_rank))
        return None if classes is None else classes.column(0)

    def class_matrix(self, chains: ExactMatrix) -> ExactMatrix | None:
        """Class coordinates of the columns of `chains`; None unless every
        column is a cycle."""
        if not (self.d_out @ chains).is_zero():
            return None
        return self._coords @ _kernel_coordinates(self._kernel_rows,
                                                  self._divisors, chains)


def _kernel_coordinates(kernel_rows, divisors, cycles: ExactMatrix):
    """Coordinates of the columns of `cycles` on the kernel generators
    a_j * V[:, j]: (V^-1 @ cycles)[j, :] / a_j, from the sparse kernel rows
    of V^-1.  The entries of a cycle there lie in the ideal (a_j), so each
    division is exact.  A kernel row stored as a column c (see
    `_compact_row`) selects row c of `cycles`, which is shared as it is
    when a_j = 1, since rows are never mutated."""
    ring = cycles.ring
    norm, divide, zero = ring.normalize, ring.divide, ring.zero
    crows = cycles.sparse_rows
    out = []
    for row, a in zip(kernel_rows, divisors):
        if isinstance(row, int):
            acc = crows[row]
            if a == ring.one:
                out.append(acc)
                continue
        else:
            acc = {}
            get = acc.get
            for k, v in row.items():
                for j, x in crows[k].items():
                    acc[j] = get(j, zero) + v * x
        quotients = {}
        for j, x in acc.items():
            x = norm(x)
            if x:
                q = divide(x, a)
                if q is None:
                    raise TwistcapError("chain is not a cycle")
                quotients[j] = q
        out.append(quotients)
    return ExactMatrix._from_rows(ring, out, cycles.cols)


def _compact_row(row: dict):
    """A kernel row of V^-1 equal to the unit vector {c: 1} as its column c;
    any other row as it is."""
    if len(row) == 1:
        (c, v), = row.items()
        if v == 1:
            return c
    return row


def _smith_form(A: ExactMatrix):
    """The Smith form of A, which A is where _is_own_smith_form says so: at
    a zero chain group or kernel, or a boundary that already is one."""
    return (SmithDecomposition._of_diagonal(A) if _is_own_smith_form(A)
            else smith_normal_form(A))


def homology_presentation(d_in: ExactMatrix, d_out: ExactMatrix,
                          rung: list | None = None,
                          table: dict | None = None) -> HomologyPresentation:
    """ker(d_out) / im(d_in) as a presented module with cycle lifts.

    d_out is factored, U_out @ d_out @ V_out == D_out, unless `rung` hands
    a factorization in.  The kernel generators are a_j * V_out[:, j] at the
    kernel positions j, and a cycle z has coordinates (V_out^-1 z)_j / a_j
    on them, so the boundaries come to kernel coordinates, X, through the
    kernel rows of V_out^-1 without factoring the kernel.  The raw
    presentation has relations R = [X, Krel] (Krel: over Z/m, the torsion
    of the kernel).  R is factored once, U @ R @ V == D.  In the
    coordinates U @ x the relations are the diagonal of D, so the positions
    whose invariant factor is a unit carry nothing and are dropped.  The
    kept positions are the Smith basis: generator chains K @ U^-1[:, kept]
    (K the kernel generators as columns), coordinates U[kept, :].  No
    transform is built whole: the kernel rows of V_out^-1 and the chains,
    V_out applied to len(kept) columns, are read off the column log of
    d_out's elimination, and U[kept, :] and U^-1[:, kept] off the row log
    of R's.

    `rung`, a one-item list, carries a factorization from one degree of a
    ladder to the next (chains.PairComplex.homology).  On entry it holds a
    factorization of a matrix with d_out's columns and d_out's kernel,
    which stands in for d_out's own, or None.  On return it holds R's
    factorization where every kernel divisor a_j is 1, else None.  Then
    Krel is empty and K has a left inverse, the kernel rows of V_out^-1, so
    d_in = K @ X gives ker d_in = ker X = ker R: R's factorization is one
    of the next degree's d_out, d_in here.  Nothing else keeps it.

    `table`, for a presentation a memo keeps, is the table of shared rows of
    the memo's owner (matrices.row_table), which the generator chains and
    the coordinate map take their rows from.
    """
    if d_in.ring != d_out.ring:
        raise TwistcapError("boundary matrices over different rings")
    if d_out.cols != d_in.rows:
        raise TwistcapError("middle chain dimension mismatch")
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out @ d_in != 0")
    ring = d_in.ring
    out_snf = rung[0] if rung else None
    if out_snf is None:
        out_snf = _smith_form(d_out)
    elif out_snf.D.cols != d_out.cols:
        raise TwistcapError("the factorization handed in has the wrong width")
    positions = out_snf.kernel_positions
    kernel_rows = tuple(map(_compact_row, out_snf.v_inv_rows(
        [j for j, _ in positions])))
    divisors = tuple(a for _, a in positions)
    X = _kernel_coordinates(kernel_rows, divisors, d_in)
    snf = _smith_form(ExactMatrix.hstack([X, out_snf.kernel_relations()]))
    diag = snf.diagonal()
    # units lead the divisibility chain and zeros close it, so the kept
    # positions list the torsion factors first
    kept = [i for i in range(len(positions))
            if i >= len(diag) or not ring.is_unit(diag[i])]
    invariants = [d for d in diag if d and not ring.is_unit(d)]
    module = FPModule(ring, len(kept),
                      ExactMatrix.diagonal(ring, len(kept), invariants))
    # generator chain g is column kept[g] of K @ U^-1 = V_out @ C, where
    # C[j, g] = a_j * U^-1[t, kept[g]] at the kernel position j = positions[t]
    combos = [{} for _ in range(d_out.cols)]
    for g, column in enumerate(snf.u_inv_columns(kept)):
        for t, w in column.items():
            j, a = positions[t]
            c = ring.normalize(a * w)
            if c:
                combos[j][g] = c
    cycles = out_snf.v_apply(ExactMatrix._from_rows(ring, combos, len(kept)))
    coords = snf.u_rows(kept)
    if table is not None:
        cycles, coords = cycles.shared(table), coords.shared(table)
    if rung is not None:
        rung[0] = snf if all(a == ring.one for a in divisors) else None
    return HomologyPresentation(module, cycles, kernel_rows, divisors, coords,
                                d_in, d_out)


class ModuleMap:
    def __init__(self, source: FPModule, target: FPModule,
                 matrix: ExactMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    @cached_property
    def image(self) -> SmithSolver:
        """[matrix | target relations], factored once for the map's life."""
        return SmithSolver(ExactMatrix.hstack([self.matrix,
                                               self.target.relations]))

    def image_units(self) -> int:
        """Unit pivots of `image`: one per target generator iff onto."""
        ring = self.matrix.ring
        return sum(1 for d in self.image.snf.diagonal() if ring.is_unit(d))

    def apply(self, coords):
        return self.matrix.apply(coords)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (self @ other), through the same middle object."""
        if other.target is not self.source:
            raise TwistcapError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return self.target.zero_classes(self.matrix)

    def equals(self, other: "ModuleMap") -> bool:
        if self.source is not other.source or self.target is not other.target:
            raise TwistcapError("composition mismatch")
        return self.target.zero_classes(self.matrix - other.matrix)


def induced_map(f_chain: ExactMatrix, src: HomologyPresentation,
                dst: HomologyPresentation) -> ModuleMap:
    """The map on homology induced by a chain-level matrix.

    Checks that f sends cycles to cycles and boundaries to boundaries against
    the stored boundary data, and that relations map into relations.
    Boundaries are checked on the Smith basis, factoring nothing: a cycle of
    the target is a boundary exactly when its class coordinates are a zero
    class, since the cycles are spanned by the generator chains and the
    boundaries, and the dropped unit positions carry nothing.
    """
    if f_chain.cols != src.chain_rank or f_chain.rows != dst.chain_rank:
        raise TwistcapError("chain map shape mismatch")
    M = dst.class_matrix(f_chain @ src.cycles)
    if M is None:
        raise NotChainMap("cycles do not map to cycles")
    boundaries = dst.class_matrix(f_chain @ src.d_in)
    if boundaries is None or not dst.module.zero_classes(boundaries):
        raise NotChainMap("boundaries do not map to boundaries")
    if not dst.module.zero_classes(M @ src.module.relations):
        raise NotChainMap("relations do not map into relations")
    return ModuleMap(src.module, dst.module, M)


class IsoResult(namedtuple("IsoResult", "isomorphism inverse kernel_witness "
                           "cokernel_witness", defaults=(None, None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.isomorphism


def is_isomorphism(f: ModuleMap) -> IsoResult:
    """Certify bijectivity of a well-defined map of presented modules.

    The certificate is a two-sided inverse modulo relations; failure returns
    an explicit nonzero kernel class or a cokernel generator.
    """
    ring = f.matrix.ring
    ts = f.source.generator_count
    tt = f.target.generator_count
    snf = f.image.snf
    units = f.image_units()
    if units < tt:
        # the first non-unit pivot position marks a cokernel class, the
        # element that U sends to that unit vector
        return IsoResult(False, cokernel_witness=snf.u_inverse_column(units))

    ker_gens, _ = snf.kernel_with_relations()
    kernel_classes = _top_rows(ker_gens, ts)
    if not f.source.zero_classes(kernel_classes):
        witness = next(p for p in kernel_classes.columns()
                       if not f.source.is_zero_class(p))
        return IsoResult(False, kernel_witness=witness)

    # N solves f @ N = 1 modulo the target relations, against unit vectors
    # built here rather than by ExactMatrix.identity, so the certificate
    # below checks N against an identity it was not solved from
    units = ExactMatrix._from_rows(ring, [{i: ring.one} for i in range(tt)], tt)
    N = _top_rows(f.image.solve_matrix(units), ts)

    if not (f.source.zero_classes(N @ f.matrix - ExactMatrix.identity(ring, ts))
            and f.target.zero_classes(
                f.matrix @ N - ExactMatrix.identity(ring, tt))):
        raise CertificateFailed("inverse certificate failed verification")
    return IsoResult(True, inverse=N)


def _top_rows(A: ExactMatrix, rows: int) -> ExactMatrix:
    """The first `rows` rows of A, sharing their dicts."""
    return ExactMatrix._from_rows(A.ring, A.sparse_rows[:rows], A.cols)


def is_exact_at(incoming: ModuleMap, outgoing: ModuleMap) -> bool:
    """im(incoming) = ker(outgoing), the kernel read off outgoing.image."""
    if not outgoing.compose(incoming).is_zero():
        return False
    kernel = outgoing.image.snf.kernel_with_relations()[0]
    return incoming.image.solve_matrix(
        _top_rows(kernel, outgoing.source.generator_count)) is not None
