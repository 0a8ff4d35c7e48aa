"""Exact matrices over Z, Z/m and Q, with Smith normal form.

Entries are plain Python integers and Fractions, so nothing overflows or
rounds.  They are stored in the ring's canonical form (rings.RingSpec.
normalize): over Z/m reduced into range(m), over Q an int when integral and
a Fraction otherwise; every operation that computes an entry normalizes
it.  An ExactMatrix has one representation: each row is a dict
{column: nonzero entry}, and zeros are never stored.  Boundary, transfer and
deck matrices are almost all zeros, so every operation -- products, sums,
stacking, Kronecker products, solves and the Smith form -- touches nonzeros
only.  Rows are never mutated once a matrix holds them, so matrices built
from others (vstack, block_diag, the coordinate rows of a presentation)
share them.  `.data` is a dense tuple-of-tuples view, built on each read and
never stored, for the few readers that want every cell (certificate hashes,
serialization); over Q it renders every cell as a Fraction.

The Smith form eliminates on the same storage: rows of the working matrix,
of U and of V^-1 are dicts of their nonzeros, V and U^-1 are held as sparse
columns, and column swaps permute indices.  The pivot rule is the
minimal-pivot one that keeps integer growth tame, and the elementary
operations are exactly those of a dense sweep, so the transforms (and every
kernel basis and certificate derived from them) do not depend on the
storage.  One integer elimination serves all three rings, and
smith_normal_form is its one wrapper: over Q it clears the denominators of
each row by a row scale, and then, in one loop for every ring, scales each
pivot by a unit to the canonical generator of its ideal (|d| over Z,
gcd(d, m) over Z/m, 1 over Q).

Every decomposition carries its transforms: smith_normal_form returns U, D, V
with U @ A @ V == D, U and V invertible, and the diagonal of D a divisibility
chain, together with U^-1 as sparse columns and V^-1 as sparse rows, which
the elimination updates alongside U and V (a row operation on U is a column
operation on U^-1, a column operation on V a row operation on V^-1).
kernel_with_relations and SmithSolver build on it; together they are the
only linear-algebra primitives the homology layer needs.  SmithSolver has one
solve, solve_matrix, which takes every right-hand side as a matrix: a
question about one vector is asked of a one-column matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import TwistcapError
from .rings import RATIONALS, RingSpec


class ExactMatrix:
    """A rows x cols matrix; `sparse_rows[i]` is row i as a dict {column:
    nonzero entry}.  Matrices are immutable: neither the tuple nor its dicts
    change after construction.  The one slot written later is
    `_presentation`, where fpmodules.homology_presentation memoizes the
    homology presented with this matrix as d_out.  The presentation holds
    this matrix back, so a presented matrix sits in a reference cycle and is
    freed by the cycle collector."""

    __slots__ = ("ring", "rows", "cols", "sparse_rows", "_presentation")

    def __init__(self, ring: RingSpec, data):
        norm = ring.normalize
        sparse = []
        cols = None
        for row in data:
            row = [norm(x) for x in row]
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise TwistcapError("ragged matrix data")
            sparse.append({j: x for j, x in enumerate(row) if x})
        self.ring = ring
        self.rows = len(sparse)
        self.cols = cols or 0
        self.sparse_rows = tuple(sparse)
        self._presentation = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_rows(cls, ring, rows, cols):
        """Trusted constructor: `rows` are dicts of normalized nonzero
        entries, owned by the new matrix from now on."""
        m = object.__new__(cls)
        m.ring = ring
        m.sparse_rows = tuple(rows)
        m.rows = len(m.sparse_rows)
        m.cols = cols
        m._presentation = None
        return m

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls._from_rows(ring, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, ring, n):
        one = ring.one
        return cls._from_rows(ring, [{i: one} for i in range(n)], n)

    @classmethod
    def from_columns(cls, ring, columns, rows):
        """Build from an iterable of length-`rows` columns of normalized
        entries; a column of any other length is an error."""
        out = [{} for _ in range(rows)]
        cols = 0
        for j, col in enumerate(columns):
            cols = j + 1
            if len(col) != rows:
                raise TwistcapError("vector length mismatch")
            for i, x in enumerate(col):
                if x:
                    out[i][j] = x
        return cls._from_rows(ring, out, cols)

    # -- basic queries ---------------------------------------------------

    @property
    def data(self):
        """Dense view: a tuple of row tuples with the ring's zeros filled
        in.  Built on each read; nothing keeps it.  Over Q every cell,
        zeros included, is rendered as a Fraction, the one form that
        certificate hashes, serialization and their readers see."""
        rational, cols = self.ring.kind == RATIONALS, self.cols
        zero = Fraction(0) if rational else 0
        out = []
        for row in self.sparse_rows:
            dense = [zero] * cols
            for j, x in row.items():
                dense[j] = Fraction(x) if rational else x
            out.append(tuple(dense))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def __repr__(self):
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols})"

    def is_zero(self):
        return not any(self.sparse_rows)

    def entry(self, i, j):
        return self.sparse_rows[i].get(j, self.ring.zero)

    def column(self, j):
        zero = self.ring.zero
        return tuple(row.get(j, zero) for row in self.sparse_rows)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise TwistcapError("ring mismatch in matrix arithmetic")

    def _combine(self, other, sign):
        """self + sign * other, for sign +-1."""
        self._check(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise TwistcapError(
                f"shape mismatch {self.rows}x{self.cols} +- "
                f"{other.rows}x{other.cols}")
        m = self.ring.modulus
        norm = self.ring.normalize if self.ring.kind == RATIONALS else None
        out = []
        for a, b in zip(self.sparse_rows, other.sparse_rows):
            row = dict(a)
            get = row.get
            for j, y in b.items():
                x = get(j, 0) + sign * y
                if m:
                    x %= m
                elif norm:
                    x = norm(x)
                if x:
                    row[j] = x
                else:
                    del row[j]  # y != 0, so the entry was stored
            out.append(row)
        return ExactMatrix._from_rows(self.ring, out, self.cols)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        norm = self.ring.normalize
        s = norm(s)
        out = []
        for row in self.sparse_rows:
            scaled = {}
            for j, a in row.items():
                x = norm(s * a)
                if x:
                    scaled[j] = x
            out.append(scaled)
        return ExactMatrix._from_rows(self.ring, out, self.cols)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise TwistcapError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = self.ring.modulus
        norm = self.ring.normalize if self.ring.kind == RATIONALS else None
        orows = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc = {}
            get = acc.get
            for k, a in row.items():
                for j, b in orows[k].items():
                    acc[j] = get(j, 0) + a * b
            if m:
                out.append({j: y for j, x in acc.items() if (y := x % m)})
            elif norm:
                out.append({j: norm(x) for j, x in acc.items() if x})
            else:
                out.append({j: x for j, x in acc.items() if x})
        return ExactMatrix._from_rows(self.ring, out, other.cols)

    def apply(self, vec):
        """Matrix times a plain sequence; returns a tuple of length self.rows."""
        if len(vec) != self.cols:
            raise TwistcapError("vector length mismatch")
        norm = self.ring.normalize
        zero = self.ring.zero
        out = []
        for row in self.sparse_rows:
            acc = 0
            for j, a in row.items():
                x = vec[j]
                if x:
                    acc += a * x
            out.append(norm(acc) if acc else zero)
        return tuple(out)

    def kron(self, other):
        """Kronecker product, for tensor products of local systems."""
        self._check(other)
        norm = self.ring.normalize
        width = other.cols
        out = []
        for arow in self.sparse_rows:
            for brow in other.sparse_rows:
                row = {}
                for ja, a in arow.items():
                    base = ja * width
                    for jb, b in brow.items():
                        x = norm(a * b)
                        if x:
                            row[base + jb] = x
                out.append(row)
        return ExactMatrix._from_rows(self.ring, out, self.cols * width)

    @classmethod
    def hstack(cls, blocks):
        blocks = list(blocks)
        ring = blocks[0].ring
        rows = blocks[0].rows
        if any(b.rows != rows or b.ring != ring for b in blocks):
            raise TwistcapError("hstack mismatch")
        out = [dict(row) for row in blocks[0].sparse_rows]
        offset = blocks[0].cols
        for b in blocks[1:]:
            for row, brow in zip(out, b.sparse_rows):
                for j, x in brow.items():
                    row[offset + j] = x
            offset += b.cols
        return cls._from_rows(ring, out, offset)

    @classmethod
    def vstack(cls, blocks):
        blocks = list(blocks)
        ring = blocks[0].ring
        cols = blocks[0].cols
        if any(b.cols != cols or b.ring != ring for b in blocks):
            raise TwistcapError("vstack mismatch")
        return cls._from_rows(ring, [row for b in blocks
                                     for row in b.sparse_rows], cols)


def block_diag(ring, blocks) -> ExactMatrix:
    out = []
    c0 = 0
    for b in blocks:
        out += [{c0 + j: x for j, x in row.items()} if c0 else row
                for row in b.sparse_rows]
        c0 += b.cols
    return ExactMatrix._from_rows(ring, out, c0)


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
        zero = self.D.ring.zero
        rows = self.D.sparse_rows
        return tuple(rows[i].get(i, zero)
                     for i in range(min(self.D.rows, self.D.cols)))

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
        diag = self.diagonal()
        out = []
        for j in range(self.D.cols):
            d = diag[j] if j < len(diag) else zero
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
        one, norm = ring.one, ring.normalize
        where = {j: (n, a) for n, (j, a) in enumerate(self.kernel_positions)}
        rows = []
        for vrow in self.V.sparse_rows:
            row = {}
            for j, x in vrow.items():
                hit = where.get(j)
                if hit is not None:
                    n, a = hit
                    y = x if a == one else norm(a * x)
                    if y:
                        row[n] = y
            rows.append(row)
        K = ExactMatrix._from_rows(ring, rows, len(where))
        return K, self.kernel_relations()

    def kernel_relations(self):
        """The relations among the kernel generators, in the order of
        kernel_positions: annihilator(a_j) on generator j where it is
        nonzero, which happens only over Z/m and never where a_j = 1."""
        ring = self.D.ring
        zero = ring.zero
        rows = [{} for _ in self.kernel_positions]
        n = 0
        for i, (_, a) in enumerate(self.kernel_positions):
            b = zero if a == ring.one else ring.annihilator(a)
            if b != zero:
                rows[i][n] = b
                n += 1
        return ExactMatrix._from_rows(ring, rows, n)

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
        return all(j == i for i, row in enumerate(self.D.sparse_rows)
                   for j in row)


def smith_normal_form(A: ExactMatrix) -> SmithDecomposition:
    """U, D, V with U @ A @ V == D, over any of the three rings.

    The integer elimination runs on canonical lifts: over Z/m reducing mod
    m, over Q on the rows of A each multiplied by a row scale, the least
    common denominator of its entries.  No transform is converted to
    Fractions: the elimination of diag(scales) @ A gives U, V, V^-1 and the
    determinants in integers, U takes the scales into its columns and
    U^-1 divides its row i by scales[i], which touches only the rows whose
    scale is not 1 (none for the integral boundary matrices).  Each pivot d
    is then scaled to the canonical generator of its ideal -- |d| over Z,
    gcd(d, m) over Z/m, 1 over Q -- by the unit u that takes it there: row
    t of U times u, column t of U^-1 times u^-1.
    """
    ring = A.ring
    r, c = A.rows, A.cols
    rational = ring.kind == RATIONALS
    scales = {}  # row -> its scale, for the rows of a Q matrix not integral
    S = []
    for i, row in enumerate(A.sparse_rows):
        denom = 1
        if rational:
            for x in row.values():
                if type(x) is not int:
                    denom = denom * x.denominator // gcd(denom, x.denominator)
        if denom == 1:
            S.append(dict(row))
        else:
            scales[i] = denom
            S.append({j: x.numerator * (denom // x.denominator)
                      for j, x in row.items()})
    U, W, V, Y, udet, vdet = _euclid_core(S, r, c, ring.modulus)
    norm = ring.normalize
    if scales:
        # U scales column i by scales[i], so U^-1 divides row i by it
        U = [{j: x * scales.get(j, 1) for j, x in row.items()} for row in U]
        W = [{i: norm(Fraction(x, scales[i])) if i in scales else x
              for i, x in col.items()} for col in W]
        for s in scales.values():
            udet *= s

    for t in range(min(r, c)):
        d = S[t].get(t)
        if not d:
            continue
        g = ring.canonical_generator(d)
        if g == d:
            continue
        u = ring.unit_scaling_to_canonical(d)
        u_inv = ring.divide(ring.one, u)
        S[t][t] = g  # D is diagonal
        U[t] = {j: norm(x * u) for j, x in U[t].items()}
        W[t] = {i: norm(x * u_inv) for i, x in W[t].items()}
        udet = norm(udet * u)
    return SmithDecomposition(
        ExactMatrix._from_rows(ring, U, r), ExactMatrix._from_rows(ring, S, c),
        ExactMatrix._from_rows(ring, V, c), norm(udet), norm(vdet),
        tuple(W), tuple(Y))


def _euclid_core(S, r, c, m):
    """Minimal-pivot integer elimination on the r x c matrix whose rows are
    the dicts S ({column: nonzero}, plain ints, in range(m) when m is given).

    Mutates S to the rows of the diagonal D and returns (U, U_inv, V, V_inv,
    udet, vdet) with U @ A @ V == D over Z, reducing mod m throughout when m
    is given.  The pivots are left as the elimination finds them;
    smith_normal_form scales each to its canonical form.  U and V are lists
    of sparse rows like S, U_inv is U^-1 as a list of sparse columns (dicts
    row -> nonzero entry) and V_inv is V^-1 as a list of sparse rows (dicts
    column -> nonzero).

    The pivot is the first entry of least absolute value in row-major order
    (columns in their current order).  Its column is cleared downward and its
    row rightward in index order, a smaller remainder becoming the new pivot;
    then an entry the pivot does not divide is folded into the pivot row.
    Another pivot order would change V, hence kernel bases and certificate
    hashes downstream.

    Row and column operations touch only nonzero entries: V and U^-1 are
    kept as sparse columns while the elimination runs, and a column swap
    only updates the map between logical and physical (dict key) columns
    that S, V and the rows of V^-1 share.  Zeros are never stored.  Each
    operation on the rows of U is mirrored on the columns of U^-1, and each
    operation on the columns of V on the rows of V^-1, so neither inverse
    needs a solve.
    """
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

    for t in range(min(r, c)):
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

    # back to logical columns: D in place, V from its columns to its rows
    for i, Si in enumerate(S):
        S[i] = {logical[k]: v for k, v in Si.items()}
    Vrows = [{} for _ in range(c)]
    for j in range(c):
        for i, v in V[phys[j]].items():
            Vrows[i][j] = v
    return U, W, Vrows, [Y[phys[j]] for j in range(c)], udet, vdet


# ---------------------------------------------------------------------------
# kernels and linear solving, all through the Smith form
# ---------------------------------------------------------------------------

def kernel_with_relations(A: ExactMatrix):
    """Generators K of ker(A) plus the relations among those generators."""
    return smith_normal_form(A).kernel_with_relations()


def kernel(A: ExactMatrix) -> ExactMatrix:
    return kernel_with_relations(A)[0]


class SmithSolver:
    """Exact solver for A @ X = B.  A is factored once, on construction, and
    the decomposition is public as `snf` for callers that need its diagonal
    or kernel too.  solve_matrix is the one solve: a single right-hand side
    is a one-column B."""

    def __init__(self, A: ExactMatrix):
        self.A = A
        self.ring = A.ring
        self.snf = smith_normal_form(A)

    @classmethod
    def _diagonal(cls, ring: RingSpec, rows: int, invariants):
        """Trusted constructor for the rows x len(invariants) matrix with the
        invariants on its diagonal.  They must be a divisibility chain in
        canonical form, read off a Smith form, so the matrix is its own Smith
        form and nothing is factored.  Every transform is the identity, so
        U, U^-1, V and V^-1 share the rows of one identity matrix (cols <=
        rows)."""
        one = ring.one
        cols = len(invariants)
        D = ExactMatrix._from_rows(
            ring, [{i: invariants[i]} if i < cols and invariants[i] else {}
                   for i in range(rows)], cols)
        ident = ExactMatrix.identity(ring, rows)
        units = ident.sparse_rows
        solver = object.__new__(cls)
        solver.A = D
        solver.ring = ring
        solver.snf = SmithDecomposition(
            ident, D, ExactMatrix._from_rows(ring, units[:cols], cols),
            one, one, units, units[:cols])
        return solver

    def solve_matrix(self, B: ExactMatrix):
        """An X with A @ X == B, or None when some column of B has none."""
        ring = self.ring
        snf = self.snf
        if B.rows != self.A.rows:
            raise TwistcapError("rhs row count mismatch")
        C = snf.U @ B
        diag = snf.diagonal()
        Y = [{} for _ in range(self.A.cols)]
        for i, crow in enumerate(C.sparse_rows):
            if not crow:
                continue
            if i >= len(diag) or diag[i] == ring.zero:
                return None
            d, yrow = diag[i], Y[i]
            for j, x in crow.items():
                q = ring.divide(x, d)
                if q is None:
                    return None
                if q:
                    yrow[j] = q
        return snf.V @ ExactMatrix._from_rows(ring, Y, B.cols)


def inverse(A: ExactMatrix) -> ExactMatrix:
    if A.rows != A.cols:
        raise TwistcapError("only square matrices invert")
    inv = SmithSolver(A).solve_matrix(ExactMatrix.identity(A.ring, A.rows))
    if inv is None or (A @ inv) != ExactMatrix.identity(A.ring, A.rows):
        raise TwistcapError("matrix is not invertible")
    return inv
