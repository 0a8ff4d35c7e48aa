"""Exact matrices over Z, Z/m and Q, with Smith normal form.

Entries are plain Python integers and Fractions, so nothing overflows or
rounds.  ExactMatrix stores its rows as tuples and multiplies through a
row-sparse view of its right operand.  The Smith form eliminates on
sparse storage, since boundary operators are almost all zeros and +-1: rows
of the working matrix, of U and of V^-1 are dicts of their nonzeros, V and
U^-1 are held as sparse columns, and column swaps permute indices.  The
pivot rule is the minimal-pivot one that keeps integer growth tame, and the
elementary operations are exactly those of a dense sweep, so the transforms
(and every kernel basis and certificate derived from them) do not depend on
the storage.

Every decomposition carries its transforms: smith_normal_form returns U, D, V
with U @ A @ V == D, U and V invertible, and the diagonal of D a divisibility
chain, together with U^-1 as sparse columns and V^-1 as sparse rows, which
the elimination updates alongside U and V (a row operation on U is a column
operation on U^-1, a column operation on V a row operation on V^-1).
kernel_with_relations and SmithSolver build on it; together they are the
only linear-algebra primitives the homology layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import TwistcapError
from .rings import INTEGERS, RATIONALS, RingSpec


class ExactMatrix:
    __slots__ = ("ring", "rows", "cols", "data", "_columns")

    def __init__(self, ring: RingSpec, data):
        rows = tuple(tuple(ring.normalize(x) for x in row) for row in data)
        self.ring = ring
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(r) != self.cols for r in rows):
            raise TwistcapError("ragged matrix data")
        self.data = rows
        self._columns = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, ring, rows, cols):
        m = object.__new__(cls)
        m.ring, m.rows, m.cols = ring, rows, cols
        z = ring.zero
        m.data = tuple((z,) * cols for _ in range(rows))
        m._columns = None
        return m

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one, ring.zero
        return cls._raw(ring, [[one if i == j else zero for j in range(n)]
                               for i in range(n)])

    @classmethod
    def from_columns(cls, ring, columns, rows):
        """Build from an iterable of length-`rows` columns."""
        cols = list(columns)
        m = cls._raw(ring, zip(*cols) if cols else [()] * rows)
        m.cols = len(cols)  # preserve width even when rows == 0
        return m

    @classmethod
    def _raw(cls, ring, data):
        """Trusted constructor: entries already normalized."""
        m = object.__new__(cls)
        m.ring = ring
        m.data = tuple(tuple(row) for row in data)
        m.rows = len(m.data)
        m.cols = len(m.data[0]) if m.data else 0
        m._columns = None
        return m

    # -- basic queries ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols})"

    def is_zero(self):
        return not any(map(any, self.data))

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise TwistcapError("ring mismatch in matrix arithmetic")

    def _sized(self, data, cols):
        m = ExactMatrix._raw(self.ring, data)
        m.cols = cols
        return m

    def __add__(self, other):
        self._check(other)
        norm = self.ring.normalize
        return self._sized([[norm(a + b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)], self.cols)

    def __sub__(self, other):
        self._check(other)
        norm = self.ring.normalize
        return self._sized([[norm(a - b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)], self.cols)

    def __neg__(self):
        norm = self.ring.normalize
        return self._sized([[norm(-a) for a in row] for row in self.data],
                           self.cols)

    def scale(self, s):
        norm = self.ring.normalize
        s = norm(s)
        return self._sized([[norm(s * a) for a in row] for row in self.data],
                           self.cols)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise TwistcapError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        norm = self.ring.normalize
        zero = self.ring.zero
        ocols = other.cols
        # the row-sparse view of `other` is built per call: cached on
        # long-lived boundary matrices it raised peak memory, not speed
        orows = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = {}
            get = acc.get
            for k, a in enumerate(row):
                if a:
                    for j, b in orows[k]:
                        acc[j] = get(j, zero) + a * b
            orow = [zero] * ocols
            for j, x in acc.items():
                orow[j] = norm(x)
            out.append(orow)
        return self._sized(out, ocols)

    def apply(self, vec):
        """Matrix times a plain sequence; returns a tuple of length self.rows.

        Uses a lazily built column-sparse view, since the incidence-style
        matrices here are applied to many vectors.
        """
        if len(vec) != self.cols:
            raise TwistcapError("vector length mismatch")
        if self._columns is None:
            cols = [[] for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, a in enumerate(row):
                    if a:
                        cols[j].append((i, a))
            self._columns = cols
        norm = self.ring.normalize
        zero = self.ring.zero
        out = [zero] * self.rows
        for j, x in enumerate(vec):
            if x:
                for i, a in self._columns[j]:
                    out[i] += a * x
        return tuple(norm(x) if x else zero for x in out)

    def kron(self, other):
        """Kronecker product, for tensor products of local systems."""
        self._check(other)
        norm = self.ring.normalize
        out = []
        for arow in self.data:
            for brow in other.data:
                out.append([norm(a * b) for a in arow for b in brow])
        return self._sized(out, self.cols * other.cols)

    @classmethod
    def hstack(cls, blocks):
        blocks = list(blocks)
        ring = blocks[0].ring
        rows = blocks[0].rows
        if any(b.rows != rows or b.ring != ring for b in blocks):
            raise TwistcapError("hstack mismatch")
        m = cls._raw(ring, [sum(row, ())
                            for row in zip(*(b.data for b in blocks))])
        if rows == 0:
            m.cols = sum(b.cols for b in blocks)
        return m

    @classmethod
    def vstack(cls, blocks):
        blocks = list(blocks)
        ring = blocks[0].ring
        cols = blocks[0].cols
        if any(b.cols != cols or b.ring != ring for b in blocks):
            raise TwistcapError("vstack mismatch")
        data = [row for b in blocks for row in b.data]
        m = cls._raw(ring, data)
        m.cols = cols
        return m


def block_diag(ring, blocks) -> ExactMatrix:
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = ring.zero
    data = [[z] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            data[r0 + i][c0:c0 + b.cols] = row
        r0 += b.rows
        c0 += b.cols
    m = ExactMatrix._raw(ring, data)
    m.cols = cols
    return m


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    u_det: object
    v_det: object
    U_inv: tuple  # columns of U^-1, each a dict row -> nonzero entry
    V_inv: tuple  # rows of V^-1, each a dict column -> nonzero entry

    def u_inverse_column(self, j):
        """Column j of U^-1 as a dense tuple: the element of the row space
        that U sends to the j-th unit vector."""
        ring = self.D.ring
        col = [ring.zero] * self.U.rows
        for i, x in self.U_inv[j].items():
            col[i] = x
        return tuple(col)

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.data[i][i] for i in range(n))

    def nonzero_count(self):
        return sum(1 for d in self.diagonal() if d)

    @cached_property
    def kernel_positions(self):
        """(j, a_j) for each generator a_j * (column j of V) of ker(A): a_j is
        1 where the diagonal vanishes and, over Z/m, the annihilator of a
        nonzero diagonal entry d_j that has one.

        A vector z lies in ker(A) exactly when d_j * (V^-1 z)_j == 0 for
        every j, that is when (V^-1 z)_j is a multiple of a_j at these
        positions and zero elsewhere; the quotients are the coordinates of z
        on the generators, unique modulo the annihilators of the a_j.
        """
        ring = self.D.ring
        zero, one = ring.zero, ring.one
        rows = self.D.rows
        diag = self.D.data
        out = []
        for j in range(self.D.cols):
            d = diag[j][j] if j < rows else zero
            a = one if d == zero else ring.annihilator(d)
            if a != zero:
                out.append((j, a))
        return tuple(out)

    def kernel_with_relations(self):
        """Generators K of ker(A) plus the relations among those generators,
        read off this decomposition of A.

        Over Z and Q the generators form a basis and the relation matrix is
        empty.  Over Z/m torsion kernels appear: a diagonal entry d with
        annihilator a contributes the generator a * (column of V) carrying
        the relation annihilator(a).
        """
        ring = self.D.ring
        gens = []
        for j, a in self.kernel_positions:
            col = self.V.column(j)
            gens.append(col if a == ring.one
                        else tuple(ring.normalize(a * x) for x in col))
        K = ExactMatrix.from_columns(ring, gens, self.D.cols)
        return K, self.kernel_relations()

    def kernel_relations(self):
        """The relations among the kernel generators, in the order of
        kernel_positions: annihilator(a_j) on generator j where it is
        nonzero, which happens only over Z/m and never where a_j = 1."""
        ring = self.D.ring
        zero = ring.zero
        t = len(self.kernel_positions)
        rel_cols = []
        for i, (_, a) in enumerate(self.kernel_positions):
            b = zero if a == ring.one else ring.annihilator(a)
            if b != zero:
                col = [zero] * t
                col[i] = b
                rel_cols.append(col)
        return ExactMatrix.from_columns(ring, rel_cols, t)

    def verify(self, A: ExactMatrix) -> bool:
        ring = A.ring
        if not ring.is_unit(self.u_det) or not ring.is_unit(self.v_det):
            return False
        if self.U @ A @ self.V != self.D:
            return False
        diag = self.diagonal()
        for i in range(len(diag) - 1):
            if not ring.divides(diag[i], diag[i + 1]):
                return False
        # off-diagonal must vanish
        z = ring.zero
        for i, row in enumerate(self.D.data):
            for j, x in enumerate(row):
                if i != j and x != z:
                    return False
        return True


def smith_normal_form(A: ExactMatrix) -> SmithDecomposition:
    kind = A.ring.kind
    if kind == RATIONALS:
        return _snf_field(A)
    if kind == INTEGERS:
        return _snf_euclidean(A, None)
    return _snf_euclidean(A, A.ring.modulus)


def _euclid_core(M, r, c, m):
    """Minimal-pivot integer elimination; entries of M are plain ints, in
    range(m) when m is given.

    Mutates M to diagonal form and returns (U, U_inv, V, V_inv, udet, vdet)
    with U @ A @ V == D over Z, reducing mod m throughout when m is given;
    U_inv is U^-1 as a list of sparse columns (dicts row -> nonzero entry)
    and V_inv is V^-1 as a list of sparse rows (dicts column -> nonzero).

    The pivot is the first entry of least absolute value in row-major order
    (columns in their current order).  Its column is cleared downward and its
    row rightward in index order, a smaller remainder becoming the new pivot;
    then an entry the pivot does not divide is folded into the pivot row.
    Another pivot order would change V, hence kernel bases and certificate
    hashes downstream.

    The work runs on sparse storage, so row and column operations touch only
    nonzero entries: rows of M, U and V^-1 are dicts of their nonzeros, V and
    U^-1 are kept as sparse columns, and a column swap only updates the map
    between logical and physical (dict key) columns that M, V and the rows
    of V^-1 share.  Zeros are never stored.  Each operation on the rows of U
    is mirrored on the columns of U^-1, and each operation on the columns of
    V on the rows of V^-1, so neither inverse needs a solve.
    """
    S = [{j: v for j, v in enumerate(row) if v} for row in M]  # rows of M
    U = [{i: 1} for i in range(r)]  # rows of U
    W = [{i: 1} for i in range(r)]  # columns of U^-1
    V = [{j: 1} for j in range(c)]  # columns of V, by physical column
    Y = [{j: 1} for j in range(c)]  # rows of V^-1, by physical column of V
    phys = list(range(c))  # logical column -> physical column
    logical = list(range(c))  # physical column -> logical column
    udet = vdet = 1

    def axpy(dst, src, q):
        # dst -= q * src over the nonzeros of src; q != 0
        get = dst.get
        if m:
            for k, v in src.items():
                x = (get(k, 0) - q * v) % m
                if x:
                    dst[k] = x
                else:
                    dst.pop(k, None)
        else:
            for k, v in src.items():
                x = get(k, 0) - q * v
                if x:
                    dst[k] = x
                else:
                    del dst[k]  # q * v != 0, so the entry was stored

    def rowop(i, t, q):
        # row i -= q * row t, so column t of U^-1 += q * its column i
        axpy(S[i], S[t], q)
        axpy(U[i], U[t], q)
        axpy(W[t], W[i], -q)

    def colop(pj, pt, q, holders):
        # column pj -= q * column pt, so row pt of V^-1 += q * its row pj;
        # holders are the rows storing column pt
        for i in holders:
            Si = S[i]
            x = Si.get(pj, 0) - q * Si[pt]
            if m:
                x %= m
            if x:
                Si[pj] = x
            else:
                Si.pop(pj, None)
        axpy(V[pj], V[pt], q)
        axpy(Y[pt], Y[pj], -q)

    def swap_rows(i, k):
        nonlocal udet
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]
        W[i], W[k] = W[k], W[i]
        udet = -udet

    def swap_cols(j, k):
        nonlocal vdet
        pj, pk = phys[j], phys[k]
        phys[j], phys[k] = pk, pj
        logical[pk], logical[pj] = j, k
        vdet = -vdet

    limit = min(r, c)
    for t in range(limit):
        # choose the smallest nonzero entry as pivot to damp growth; rows from
        # t on store nothing left of column t
        best = None
        for i in range(t, r):
            Si = S[i]
            if Si:
                key = min(map(abs, Si.values()))
                if best is None or key < best[0]:
                    best = (key, i, min(logical[k] for k, v in Si.items()
                                        if abs(v) == key))
                    if key == 1:
                        break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        while True:
            pt = phys[t]
            # clear the column below the pivot
            i = t + 1
            while i < r:
                v = S[i].get(pt)
                if v:
                    q = v // S[t][pt]
                    if q:
                        rowop(i, t, q)
                    if pt in S[i]:
                        swap_rows(t, i)  # strictly smaller pivot
                        i = t + 1
                        continue
                i += 1
            # clear the row to the right; until a column swap only the pivot
            # row stores column t
            St = S[t]
            holders = (t,)
            dirty = False
            todo = sorted(logical[k] for k in St if k != pt)
            n = 0
            while n < len(todo):
                j = todo[n]
                pj = phys[j]
                q = St[pj] // St[pt]
                if q:
                    colop(pj, pt, q, holders)
                if pj in St:
                    swap_cols(t, j)
                    dirty = True
                    pt = pj
                    holders = [i for i in range(t, r) if pt in S[i]]
                    todo = sorted(logical[k] for k in St if k != pt)
                    n = 0
                    continue
                n += 1
            if dirty:
                continue
            # fold in an entry the pivot misses, to force the chain; a unit
            # pivot divides everything
            p = St[pt]
            g = gcd(p, m) if m else abs(p)
            if g == 1:
                break
            fold = next((i for i in range(t + 1, r)
                         if any(v % g for v in S[i].values())), None)
            if fold is None:
                break
            rowop(t, fold, -1)  # row_t += row_fold

    # positive diagonal over Z (Z/m canonicalizes in its wrapper instead)
    if m is None:
        for t in range(limit):
            St = S[t]
            pt = phys[t]
            if St.get(pt, 0) < 0:
                St[pt] = -St[pt]
                U[t] = {k: -v for k, v in U[t].items()}
                W[t] = {k: -v for k, v in W[t].items()}
                udet = -udet

    # densify into the plain lists the wrappers take
    for i, Si in enumerate(S):
        row = [0] * c
        for k, v in Si.items():
            row[logical[k]] = v
        M[i] = row
    Ud = []
    for Ui in U:
        row = [0] * r
        for k, v in Ui.items():
            row[k] = v
        Ud.append(row)
    Vd = [[0] * c for _ in range(c)]
    for j in range(c):
        for i, v in V[phys[j]].items():
            Vd[i][j] = v
    return Ud, W, Vd, [Y[phys[j]] for j in range(c)], udet, vdet


def _snf_euclidean(A: ExactMatrix, modulus) -> SmithDecomposition:
    """Smith form over Z, or over Z/m on canonical lifts."""
    ring = A.ring
    r, c = A.rows, A.cols
    m = modulus
    M = [list(row) for row in A.data]
    U, W, V, Y, udet, vdet = _euclid_core(M, r, c, m)

    if m is not None:
        # scale each nonzero diagonal entry to its canonical gcd-with-m form
        for t in range(min(r, c)):
            d = M[t][t]
            if not d:
                continue
            u = ring.unit_scaling_to_canonical(d)
            if u != 1:
                M[t][t] = d * u % m  # D is diagonal
                Ut = U[t]
                for j, x in enumerate(Ut):
                    if x:
                        Ut[j] = x * u % m
                u_inv = pow(u, -1, m)
                W[t] = {i: x * u_inv % m for i, x in W[t].items()}
                udet = udet * u
        udet %= m
        vdet %= m
    Um = ExactMatrix._raw(ring, U)
    Vm = ExactMatrix._raw(ring, V)
    Dm = ExactMatrix._raw(ring, M)
    Dm.cols = c
    Um.cols, Vm.cols = r, c
    return SmithDecomposition(Um, Dm, Vm, ring.normalize(udet),
                              ring.normalize(vdet), tuple(W), tuple(Y))


def _snf_field(A: ExactMatrix) -> SmithDecomposition:
    """Smith form over Q: clear denominators row by row, run the integer
    elimination, then rescale pivots to 1.  Qualitatively faster than naive
    fraction pivoting because the boundary matrices are integral."""
    ring = A.ring
    r, c = A.rows, A.cols
    scales = []
    M = []
    for row in A.data:
        denom = 1
        for x in row:
            if x:
                denom = denom * x.denominator // gcd(denom, x.denominator)
        scales.append(denom)
        M.append([x.numerator * (denom // x.denominator) if x else 0
                  for x in row])
    U, W, V, Y, udet, vdet = _euclid_core(M, r, c, None)

    # U scales column j by scales[j], so U^-1 divides row j by it
    zero = Fraction(0)
    Uq = [[Fraction(x * scales[j]) if x else zero for j, x in enumerate(row)]
          for row in U]
    Wq = [{i: Fraction(x, scales[i]) for i, x in col.items()} for col in W]
    udet_q = Fraction(udet)
    for s in scales:
        udet_q *= s
    Dq = [[Fraction(x) if x else zero for x in row] for row in M]
    for t in range(min(r, c)):
        d = Dq[t][t]
        if d and d != 1:
            inv = 1 / d
            Dq[t][t] = d * inv  # D is diagonal
            Ut = Uq[t]
            for j, x in enumerate(Ut):
                if x:
                    Ut[j] = x * inv
            Wq[t] = {i: x * d for i, x in Wq[t].items()}
            udet_q *= inv

    Um = ExactMatrix._raw(ring, Uq)
    Vm = ExactMatrix._raw(ring, [[Fraction(x) if x else zero for x in row]
                                 for row in V])
    Dm = ExactMatrix._raw(ring, Dq)
    Dm.cols = c
    Um.cols, Vm.cols = r, c
    Yq = tuple({j: Fraction(x) for j, x in row.items()} for row in Y)
    return SmithDecomposition(Um, Dm, Vm, udet_q, Fraction(vdet), tuple(Wq),
                              Yq)


# ---------------------------------------------------------------------------
# kernels and linear solving, all through the Smith form
# ---------------------------------------------------------------------------

def kernel_with_relations(A: ExactMatrix):
    """Generators K of ker(A) plus the relations among those generators."""
    return smith_normal_form(A).kernel_with_relations()


def kernel(A: ExactMatrix) -> ExactMatrix:
    return kernel_with_relations(A)[0]


class SmithSolver:
    """Exact solver for A @ x = b.  A is factored once, on construction, and
    the decomposition is public as `snf` for callers that need its diagonal
    or kernel too."""

    def __init__(self, A: ExactMatrix):
        self.A = A
        self.ring = A.ring
        self.snf = smith_normal_form(A)

    @classmethod
    def _diagonal(cls, ring: RingSpec, rows: int, invariants):
        """Trusted constructor for the rows x len(invariants) matrix with the
        invariants on its diagonal.  They must be a divisibility chain in
        canonical form, read off a Smith form, so the matrix is its own Smith
        form and nothing is factored."""
        zero, one = ring.zero, ring.one
        cols = len(invariants)
        D = ExactMatrix._raw(ring, [[invariants[i] if i == j else zero
                                     for j in range(cols)]
                                    for i in range(rows)])
        D.cols = cols
        solver = object.__new__(cls)
        solver.A = D
        solver.ring = ring
        solver.snf = SmithDecomposition(
            ExactMatrix.identity(ring, rows), D, ExactMatrix.identity(ring, cols),
            one, one, tuple({i: one} for i in range(rows)),
            tuple({j: one} for j in range(cols)))
        return solver

    def solve_vector(self, b):
        ring = self.ring
        snf = self.snf
        if len(b) != self.A.rows:
            raise TwistcapError("rhs length mismatch")
        cvec = snf.U.apply(b)
        y = [ring.zero] * self.A.cols
        for i in range(self.A.rows):
            d = snf.D.data[i][i] if i < self.A.cols else ring.zero
            if d == ring.zero:
                if cvec[i] != ring.zero:
                    return None
            else:
                q = ring.divide(cvec[i], d)
                if q is None:
                    return None
                y[i] = q
        return snf.V.apply(y)

    def solve_matrix(self, B: ExactMatrix):
        ring = self.ring
        snf = self.snf
        if B.rows != self.A.rows:
            raise TwistcapError("rhs row count mismatch")
        C = snf.U @ B
        zero = ring.zero
        Y = [[zero] * B.cols for _ in range(self.A.cols)]
        for i in range(self.A.rows):
            d = snf.D.data[i][i] if i < self.A.cols else zero
            crow = C.data[i]
            if d == zero:
                if any(x != zero for x in crow):
                    return None
            else:
                yrow = Y[i]
                for j, x in enumerate(crow):
                    if x != zero:
                        q = ring.divide(x, d)
                        if q is None:
                            return None
                        yrow[j] = q
        Ym = ExactMatrix._raw(ring, Y)
        Ym.cols = B.cols
        return snf.V @ Ym


def is_invertible(A: ExactMatrix) -> bool:
    if A.rows != A.cols:
        return False
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    return len(diag) == A.rows and all(A.ring.is_unit(d) for d in diag)


def inverse(A: ExactMatrix) -> ExactMatrix:
    if A.rows != A.cols:
        raise TwistcapError("only square matrices invert")
    inv = SmithSolver(A).solve_matrix(ExactMatrix.identity(A.ring, A.rows))
    if inv is None or (A @ inv) != ExactMatrix.identity(A.ring, A.rows):
        raise TwistcapError("matrix is not invertible")
    return inv
