"""Finitely presented modules, induced maps, and isomorphism certificates.

An FPModule is generators plus a relation matrix; its normal form (free rank
and divisibility-chain torsion) comes from the Smith form of the relations and
is the notion of equality used everywhere.  A HomologyPresentation adds the
lifting data -- a generating set of cycles in chain coordinates -- so that
homology classes can be moved between the abstract module and actual chains.
Homology is presented on its Smith basis: one generator per free summand and
per torsion factor, with diagonal relations, so every map and check built on
it works on matrices of that size.  A presentation costs two factorizations,
of d_out and of the raw relations: the coordinates of a cycle on the kernel
generators are read off V^-1 of d_out, so the kernel is never factored, and
induced maps check boundaries on the Smith basis, so they factor nothing.
A presentation builds no transform whole.  The kernel rows of V^-1 of d_out
give the cycle coordinates, the generator chains are V of d_out applied to
as many columns as there are generators, and the coordinate map is the kept
rows of U of the relations (the kept columns of U^-1 give the generator
chains); each is read off the logs of its elimination by replaying them
backward from those vectors, so the presentation pays no fill for the rows
and columns it drops.
Each presentation is memoized on its d_out matrix, so a boundary pair that a
PairComplex owns is presented once for as long as the complex lives.

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

from dataclasses import dataclass
from functools import cached_property

from .errors import (CertificateFailed, CompositionNonzero, NotChainMap,
                     TwistcapError)
from .matrices import ExactMatrix, SmithSolver, smith_normal_form
from .rings import INTEGERS, MODULAR, RingSpec


class FPModule:
    """Module given by generators and relations, normalized eagerly."""

    def __init__(self, ring: RingSpec, generator_count: int,
                 relations: ExactMatrix | None = None):
        if relations is None:
            relations = ExactMatrix.zeros(ring, generator_count, 0)
        if relations.rows != generator_count or relations.ring != ring:
            raise TwistcapError("relation matrix shape/ring mismatch")
        self._adopt(SmithSolver(relations))

    @classmethod
    def _diagonal(cls, ring: RingSpec, generator_count: int, invariants):
        """Trusted constructor: relations invariants[i] * e_i, a divisibility
        chain of canonical non-units read off a Smith form, which is not
        factored again."""
        module = object.__new__(cls)
        module._adopt(SmithSolver._diagonal(ring, generator_count, invariants))
        return module

    def _adopt(self, solver: SmithSolver):
        """Take the relations and their factorization from `solver`."""
        ring = solver.ring
        self.ring = ring
        self.generator_count = solver.A.rows
        self.relations = solver.A
        self._rel_solver = solver
        diag = [d for d in solver.snf.diagonal() if d != ring.zero]
        self.free_rank = self.generator_count - len(diag)
        self.torsion = tuple(ring.canonical_generator(d) for d in diag
                             if not ring.is_unit(d))

    @property
    def normal_form(self):
        return (self.free_rank, self.torsion)

    def __eq__(self, other):
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.normal_form == other.normal_form)

    def __hash__(self):
        return hash((self.ring, self.normal_form))

    def __str__(self):
        ring = self.ring
        if ring.kind == INTEGERS:
            free = "Z"
        elif ring.kind == MODULAR:
            free = f"Z/{ring.modulus}"
        else:
            free = "Q"
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

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

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
        free = FPModule._diagonal(self.ring, 1, ())
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
    division is exact."""
    ring = cycles.ring
    norm, divide, zero = ring.normalize, ring.divide, ring.zero
    crows = cycles.sparse_rows
    out = []
    for row, a in zip(kernel_rows, divisors):
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


def homology_presentation(d_in: ExactMatrix, d_out: ExactMatrix) -> HomologyPresentation:
    """ker(d_out) / im(d_in) as a presented module with cycle lifts.

    d_out is factored once, U_out @ d_out @ V_out == D_out.  The kernel
    generators are a_j * V_out[:, j] at the kernel positions j, and a cycle
    z has coordinates (V_out^-1 z)_j / a_j on them, so the boundaries come
    to kernel coordinates, X, through the kernel rows of V_out^-1 without
    factoring the kernel.  The raw presentation has relations R = [X, Krel]
    (Krel: over Z/m, the torsion of the kernel).  R is factored once,
    U @ R @ V == D.  In the coordinates U @ x the relations are the diagonal
    of D, so the positions whose invariant factor is a unit carry nothing
    and are dropped.  The kept positions are the Smith basis: generator
    chains K @ U^-1[:, kept] (K the kernel generators as columns),
    coordinates U[kept, :].  No transform is built whole: the kernel rows
    of V_out^-1 and the chains, V_out applied to len(kept) columns, are read
    off the column log of d_out's elimination, and U[kept, :] and
    U^-1[:, kept] off the row log of R's.

    The result is memoized on d_out and returned again for the same d_in
    object.  The memo holds d_in, so its id cannot be reused while the memo
    lives; an equal but distinct d_in is presented afresh and replaces it.
    """
    memo = d_out._presentation
    if memo is not None and memo.d_in is d_in:
        return memo
    if d_in.ring != d_out.ring:
        raise TwistcapError("boundary matrices over different rings")
    if d_out.cols != d_in.rows:
        raise TwistcapError("middle chain dimension mismatch")
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out @ d_in != 0")
    ring = d_in.ring
    out_snf = smith_normal_form(d_out)
    positions = out_snf.kernel_positions
    kernel_rows = out_snf.v_inv_rows([j for j, _ in positions])
    divisors = tuple(a for _, a in positions)
    X = _kernel_coordinates(kernel_rows, divisors, d_in)
    snf = smith_normal_form(ExactMatrix.hstack([X, out_snf.kernel_relations()]))
    diag = snf.diagonal()
    # units lead the divisibility chain and zeros close it, so the kept
    # positions list the torsion factors first
    kept = [i for i in range(len(positions))
            if i >= len(diag) or not ring.is_unit(diag[i])]
    invariants = [diag[i] for i in kept
                  if i < len(diag) and diag[i] != ring.zero]
    module = FPModule._diagonal(ring, len(kept), invariants)
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
    memo = HomologyPresentation(module, cycles, kernel_rows, divisors, coords,
                                d_in, d_out)
    d_out._presentation = memo
    return memo


@dataclass(frozen=True)
class ModuleMap:
    source: FPModule
    target: FPModule
    matrix: ExactMatrix

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


@dataclass(frozen=True)
class IsoResult:
    isomorphism: bool
    inverse: ExactMatrix | None = None
    kernel_witness: tuple | None = None
    cokernel_witness: tuple | None = None

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
