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
from others (vstack, block_diag, hstack where later blocks add nothing to a
row, a presentation's coordinate rows, a product with a unit row {k: 1} on
the left) share them, and a matrix that a memo keeps takes every row equal
to one its owner's table holds from that table (ExactMatrix.shared,
row_table), so equal rows of the kept matrices of one complex, over every
system and ring on it, are one dict.  `.data` is a dense
tuple-of-tuples view, built on each read and never stored, for the few
readers that want every cell (certificate hashes, serialization); over Q it
renders every cell as a Fraction.

The Smith form eliminates on the same storage: the rows of the working
matrix are dicts of their nonzeros, and column swaps permute indices.  The
pivot rule is the minimal-pivot one that keeps integer growth tame, and the
elementary operations are exactly those of a dense sweep, so the transforms
(and every kernel basis and certificate derived from them) do not depend on
the storage.  One integer elimination serves all three rings, and
smith_normal_form is its one wrapper: over Q it clears the denominators of
each row by a row scale, and then, in one loop for every ring, scales each
pivot by a unit to the canonical generator of its ideal (|d| over Z,
gcd(d, m) over Z/m, 1 over Q).

The elimination updates the working matrix only and records what it does: a
row log of row operations and swaps, and a column log of column operations.
smith_normal_form returns D and those logs, with U @ A @ V == D, U and V
invertible, and the diagonal of D a divisibility chain.  The transforms are
kept as these products of elementary operations (the product form of the
inverse, Dantzig & Orchard-Hays 1954) and only ever applied to the vectors a
reader asks for: U @ B replays the row log forward on the rows of B
(u_apply), and rows of U, columns of U^-1, V @ Z and rows of V^-1 replay a
log backward from just those vectors (u_rows, u_inv_columns, v_apply,
v_inv_rows).  So a solve pays for its right-hand sides and a homology
presentation for the parts of the transforms it keeps, and the library
builds no transform whole.
kernel_with_relations and SmithSolver build on it; together they are the
only linear-algebra primitives the homology layer needs.  SmithSolver has one
solve, solve_matrix, which takes every right-hand side as a matrix: a
question about one vector is asked of a one-column matrix.  solve_diagonal
is that solve short of its last product with V, for a caller that only asks
whether a solution exists.  A matrix the elimination leaves as it is (no
rows or no columns, or a canonical divisibility chain on the diagonal,
zeros last: _is_own_smith_form) is its own Smith form with empty logs, which
SmithSolver and fpmodules take as it is.  The test sits beside
smith_normal_form, not in it, so a tracer wrapping smith_normal_form, which
reads the transforms of every call, never meets the n x 0 relations of a
large free module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from types import MappingProxyType

from .complexes import memo
from .errors import TwistcapError
from .rings import RATIONALS, RingSpec


# The empty row of every zero matrix, diagonal relation and kept matrix.
_EMPTY_ROW = {}

# The scales and units of every decomposition that has none to record.
_NO_ENTRIES = MappingProxyType({})


class ExactMatrix:
    """A rows x cols matrix; `sparse_rows[i]` is row i as a dict {column:
    nonzero entry}.  Matrices are immutable: neither the tuple nor its dicts
    change after construction.

    Since no row changes, equal rows can be one object.  A matrix that a
    memo keeps (boundaries, transfers, a presentation's cycles and
    coordinates, the +/- splittings, computed system transports and path
    transports, and the MV row maps, splittings, zig-zags and gluings)
    takes its rows through `shared` from the table of the owner whose
    memos keep it (`row_table`): a row equal to one the table holds is that
    row, whatever the ring of the matrix that brought it, and the empty row
    is `_EMPTY_ROW`.  A table holds only rows of matrices kept on its
    owner, so it grows with the distinct inputs asked about, never with the
    number of checks, and dies with its owner.  Zero matrices and the
    diagonal relations of a presented module take the empty row too.  A
    product shares the rows of its right factor where a row of the left is
    {k: 1}.  A transient matrix is built with its own rows: `_from_rows`
    adds no work per row."""

    __slots__ = ("ring", "rows", "cols", "sparse_rows")

    def __init__(self, ring: RingSpec, data):
        """Build from dense rows of ints and Fractions, integral ones over
        Z and Z/m; any other entry is refused, never rounded."""
        norm, integral = ring.normalize, ring.kind != RATIONALS
        sparse = []
        cols = None
        for row in data:
            row = list(row)
            for x in row:
                if not isinstance(x, (int, Fraction)) or (
                        integral and x.denominator != 1):
                    raise TwistcapError(f"entry {x!r} is not exact in {ring}")
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
        return m

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls._from_rows(ring, [_EMPTY_ROW] * rows, cols)

    @classmethod
    def identity(cls, ring, n):
        return cls._from_rows(ring, [{i: 1} for i in range(n)], n)

    @classmethod
    def diagonal(cls, ring, rows, entries):
        """The rows x len(entries) matrix with the normalized `entries` on
        its diagonal; a row holding none is the shared empty row."""
        cols = len(entries)
        return cls._from_rows(ring, [{i: entries[i]} if i < cols and entries[i]
                                     else _EMPTY_ROW for i in range(rows)], cols)

    @classmethod
    def from_columns(cls, ring, columns, rows):
        """Build from an iterable of length-`rows` columns through the dense
        constructor, which refuses an entry not exact in the ring and
        normalizes the rest; a column of any other length is an error."""
        columns = list(columns)
        if any(len(col) != rows for col in columns):
            raise TwistcapError("vector length mismatch")
        if not rows or not columns:
            return cls.zeros(ring, rows, len(columns))
        return cls(ring, zip(*columns))

    def shared(self, table: dict) -> ExactMatrix:
        """This matrix, for a memo to keep, with each row equal to a row of
        `table` (the `row_table` of the memo's owner) taken from it, and
        each empty row `_EMPTY_ROW`; the matrix itself when that changes no
        row.  The table keys each row it took by the hash of its items, or
        on a collision with an unequal row by the next free integer after
        it: a row is looked up from its hash on until an equal row or a free
        key turns up, which stays valid since a table only grows."""
        rows = []
        changed = False
        take = table.setdefault
        for old in self.sparse_rows:
            if old:
                key = hash(frozenset(old.items()))
                row = take(key, old)
                while row is not old and row != old:
                    key += 1
                    row = take(key, old)
            else:
                row = _EMPTY_ROW
            changed = changed or row is not old
            rows.append(row)
        if not changed:
            return self
        return ExactMatrix._from_rows(self.ring, rows, self.cols)

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
        if not other.cols:
            return ExactMatrix.zeros(self.ring, self.rows, 0)
        m = self.ring.modulus
        norm = self.ring.normalize if self.ring.kind == RATIONALS else None
        orows = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            if len(row) == 1:
                (k, a), = row.items()
                if a == 1:  # the product row is row k of other, shared
                    out.append(orows[k])
                    continue
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
            if not row:
                out.append(zero)
                continue
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
        if not blocks:
            raise TwistcapError("hstack of no blocks")
        ring = blocks[0].ring
        rows = blocks[0].rows
        if any(b.rows != rows or b.ring != ring for b in blocks):
            raise TwistcapError("hstack mismatch")
        out = list(blocks[0].sparse_rows)
        offset = blocks[0].cols
        for b in blocks[1:]:
            for i, brow in enumerate(b.sparse_rows):
                if brow:
                    out[i] = out[i] | {offset + j: x for j, x in brow.items()}
            offset += b.cols
        return cls._from_rows(ring, out, offset)

    @classmethod
    def vstack(cls, blocks):
        blocks = list(blocks)
        if not blocks:
            raise TwistcapError("vstack of no blocks")
        ring = blocks[0].ring
        cols = blocks[0].cols
        if any(b.cols != cols or b.ring != ring for b in blocks):
            raise TwistcapError("vstack mismatch")
        return cls._from_rows(ring, [row for b in blocks
                                     for row in b.sparse_rows], cols)


def row_table(owner, keeper=None) -> dict:
    """The table of shared rows of `owner`, a complex, system or cover,
    memoized on it, that the matrices its memos keep take their rows from
    (ExactMatrix.shared): the table of `keeper` when a memo of `keeper`
    keeps `owner`, else a table of its own, which dies with it.  The first
    ask decides, so an owner that a memo keeps is given its keeper as it is
    built, before anything reads its table.  So everything that lives as
    long as a complex shares the complex's table, and a passing system
    leaves nothing in it."""
    return memo(owner, "rows",
                dict if keeper is None else lambda: row_table(keeper))


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

def _axpy(dst, src, q, m):
    """dst -= q * src over the nonzeros of src, reducing mod m when m is
    given; q != 0.  Zeros are never stored."""
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


def _transpose(vectors, count):
    """`count` dicts, the g-th holding {k: x} for every vectors[k][g] == x."""
    out = [{} for _ in range(count)]
    for k, vec in enumerate(vectors):
        for g, x in vec.items():
            out[g][k] = x
    return out


def _canonical_q(ring, B, rows):
    """`rows`, read off a log with B as the operand, in canonical form.
    Every logged q is an integer, so over Q only a Fraction in B can leave
    an entry out of it."""
    if ring.kind == RATIONALS and any(type(x) is not int
                                      for row in B.sparse_rows
                                      for x in row.values()):
        norm = ring.normalize
        return [{k: norm(x) for k, x in row.items()} for row in rows]
    return rows


class SmithDecomposition:
    """U @ A @ V == D, with U and V kept as the logs of the elimination.

    `row_log` lists the row operations in order: (i, t, q) with q != 0 is
    row i -= q * row t, and (i, k, 0) swaps rows i and k.  `col_log` lists
    the column operations (pj, pt, q), column pj -= q * column pt, on
    physical columns; column swaps only move `phys`, where phys[j] is the
    physical column that ends as column j.  Over Q, row i of A was scaled by
    `scales[i]` before the elimination, and `units[t]` = (u, u^-1) scaled
    pivot t to its canonical generator.  So U is diag(units) @ E @
    diag(scales), E the product of the row operations, and V is the product
    of the column operations followed by the permutation phys.

    Each transform is read only through its log, on the vectors asked
    for: u_apply (U @ B) replays the row log forward on the rows of B,
    while u_rows, u_inv_columns, v_apply (V @ Z) and v_inv_rows replay a
    log backward.  Nothing builds or keeps a whole transform: U and V are
    u_apply and v_apply of the identity, read anew each time, for verify
    and the perfbench tracer.
    """

    def __init__(self, D: ExactMatrix, u_det, v_det, row_log: tuple,
                 col_log: tuple, phys: tuple, scales: dict, units: dict):
        self.D = D
        self.u_det = u_det
        self.v_det = v_det
        self.row_log = row_log
        self.col_log = col_log
        self.phys = phys
        self.scales = scales  # row -> its scale, for the Q rows not integral
        self.units = units    # pivot position t -> (u, u^-1)

    @classmethod
    def _of_diagonal(cls, D: ExactMatrix):
        """D as its own Smith form, where _is_own_smith_form holds: empty
        logs, equal to what smith_normal_form would return for D."""
        one = D.ring.one
        return cls(D, one, one, (), (), tuple(range(D.cols)), _NO_ENTRIES,
                   _NO_ENTRIES)

    # -- whole transforms, for verify ----------------------------------------

    @property
    def U(self) -> ExactMatrix:
        return self.u_apply(ExactMatrix.identity(self.D.ring, self.D.rows))

    @property
    def V(self) -> ExactMatrix:
        return self.v_apply(ExactMatrix.identity(self.D.ring, self.D.cols))

    # -- reads of the transforms, replayed from their logs ------------------

    def u_apply(self, B: ExactMatrix) -> ExactMatrix:
        """U @ B.  Row i of B is multiplied by its scale, then row i -= q *
        row t for each row operation, the first first, and row t times its
        unit u."""
        ring = self.D.ring
        if B.rows != self.D.rows:
            raise TwistcapError("shape mismatch in U @ B")
        m, norm, scales = ring.modulus, ring.normalize, self.scales
        X = [{k: x * scales[i] for k, x in row.items()} if i in scales
             else dict(row) for i, row in enumerate(B.sparse_rows)]
        for i, t, q in self.row_log:
            if not q:
                X[i], X[t] = X[t], X[i]
            elif X[t]:
                _axpy(X[i], X[t], q, m)
        for t, (u, _) in self.units.items():
            X[t] = {k: norm(x * u) for k, x in X[t].items()}
        return ExactMatrix._from_rows(ring, _canonical_q(ring, B, X), B.cols)

    def u_rows(self, idx) -> ExactMatrix:
        """Rows idx of U.  A row x of E takes x[t] -= q * x[i] for each row
        operation, the last first; then column i is multiplied by its scale
        and row t by its unit u."""
        r, m = self.D.rows, self.D.ring.modulus
        norm, scales, units = self.D.ring.normalize, self.scales, self.units
        X = [{} for _ in range(r)]  # X[k][g]: entry k of row idx[g]
        for g, k in enumerate(idx):
            X[k][g] = 1
        for i, t, q in reversed(self.row_log):
            if not q:
                X[i], X[t] = X[t], X[i]
            elif X[i]:
                _axpy(X[t], X[i], q, m)
        rows = _transpose(X, len(idx))
        if scales:
            rows = [{j: x * scales.get(j, 1) for j, x in row.items()}
                    for row in rows]
        for g, t in enumerate(idx):
            if t in units:
                u = units[t][0]
                rows[g] = {j: norm(x * u) for j, x in rows[g].items()}
        return ExactMatrix._from_rows(self.D.ring, rows, r)

    def u_inv_columns(self, idx) -> tuple:
        """Columns idx of U^-1, each a dict row -> nonzero entry.  A column
        y takes y[i] += q * y[t] for each row operation, the last first;
        then row i is divided by its scale and column t times u^-1."""
        r, m = self.D.rows, self.D.ring.modulus
        norm, scales, units = self.D.ring.normalize, self.scales, self.units
        Y = [{} for _ in range(r)]  # Y[i][g]: entry i of column idx[g]
        for g, k in enumerate(idx):
            Y[k][g] = 1
        for i, t, q in reversed(self.row_log):
            if not q:
                Y[i], Y[t] = Y[t], Y[i]
            elif Y[t]:
                _axpy(Y[i], Y[t], -q, m)
        cols = _transpose(Y, len(idx))
        if scales:
            cols = [{i: norm(Fraction(x, scales[i])) if i in scales else x
                     for i, x in col.items()} for col in cols]
        for g, t in enumerate(idx):
            if t in units:
                u_inv = units[t][1]
                cols[g] = {i: norm(x * u_inv) for i, x in cols[g].items()}
        return tuple(cols)

    def v_apply(self, Z: ExactMatrix) -> ExactMatrix:
        """V @ Z.  Row j of Z moves to physical column phys[j], then z[pt]
        -= q * z[pj] for each column operation, the last first."""
        ring = self.D.ring
        if Z.rows != self.D.cols:
            raise TwistcapError("shape mismatch in V @ Z")
        m = ring.modulus
        P = [None] * Z.rows
        for j, p in enumerate(self.phys):
            P[p] = dict(Z.sparse_rows[j])
        for pj, pt, q in reversed(self.col_log):
            if P[pj]:
                _axpy(P[pt], P[pj], q, m)
        return ExactMatrix._from_rows(ring, _canonical_q(ring, Z, P), Z.cols)

    def v_inv_rows(self, idx) -> tuple:
        """Rows idx of V^-1, each a dict column -> nonzero entry.  Row j
        starts as row phys[j] of the identity and takes x[pj] += q * x[pt]
        for each column operation, the last first."""
        X = [{} for _ in range(self.D.cols)]  # X[p][g]: entry p of row idx[g]
        for g, j in enumerate(idx):
            X[self.phys[j]][g] = 1
        m = self.D.ring.modulus
        for pj, pt, q in reversed(self.col_log):
            if X[pt]:
                _axpy(X[pj], X[pt], -q, m)
        return tuple(_transpose(X, len(idx)))

    # -- reads of the diagonal ---------------------------------------------

    def diagonal(self):
        zero = self.D.ring.zero
        rows = self.D.sparse_rows
        return tuple(rows[i].get(i, zero)
                     for i in range(min(self.D.rows, self.D.cols)))

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
        the relation annihilator(a).  K is V applied to the selection with
        entry a_j at row j, column n for the n-th kernel position j.
        """
        positions = self.kernel_positions
        select = [{} for _ in range(self.D.cols)]
        for n, (j, a) in enumerate(positions):
            select[j][n] = a
        K = self.v_apply(ExactMatrix._from_rows(self.D.ring, select,
                                                len(positions)))
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
        """U and V are invertible, U @ A @ V == D, and D is a Smith form:
        one the elimination leaves as it is."""
        ring = A.ring
        if not ring.is_unit(self.u_det) or not ring.is_unit(self.v_det):
            return False
        return self.U @ A @ self.V == self.D and _is_own_smith_form(self.D)


def smith_normal_form(A: ExactMatrix) -> SmithDecomposition:
    """U, D, V with U @ A @ V == D, over any of the three rings.

    The integer elimination runs on canonical lifts: over Z/m reducing mod
    m, over Q on the rows of A each multiplied by a row scale, the least
    common denominator of its entries.  No transform is converted to
    Fractions: the elimination of diag(scales) @ A is logged on integers, U
    takes the scales into its columns and U^-1 divides its row i by
    scales[i], which touches only the rows whose scale is not 1 (none for
    the integral boundary matrices).  Each pivot d is then scaled to the
    canonical generator of its ideal -- |d| over Z, gcd(d, m) over Z/m, 1
    over Q -- by the unit u that takes it there: row t of U times u, column
    t of U^-1 times u^-1.  The scales and units are recorded beside the
    logs and applied wherever a transform is read.
    """
    ring = A.ring
    r, c = A.rows, A.cols
    rational = ring.kind == RATIONALS
    scales = {}
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
    row_log, col_log, phys, udet, vdet = _euclid_core(S, r, c, ring.modulus)
    norm = ring.normalize
    for s in scales.values():
        udet *= s

    units = {}
    for t in range(min(r, c)):
        d = S[t].get(t)
        if not d:
            continue
        g = ring.canonical_generator(d)
        if g == d:
            continue
        u = ring.unit_scaling_to_canonical(d)
        units[t] = (u, ring.divide(ring.one, u))
        S[t][t] = g  # D is diagonal
        udet = norm(udet * u)
    return SmithDecomposition(
        ExactMatrix._from_rows(ring, S, c), norm(udet), norm(vdet),
        tuple(row_log), tuple(col_log), tuple(phys), scales, units)


def _is_own_smith_form(A: ExactMatrix) -> bool:
    """True when A has no rows or no columns, or is a diagonal of canonical
    entries, each dividing the next, with zeros last (zero divides only
    zero): exactly the matrices the elimination leaves as they are, with
    empty logs and no scales or units."""
    ring, rows = A.ring, A.sparse_rows
    prev = ring.one
    for i, row in enumerate(rows[:A.cols]):
        d = row.get(i, ring.zero)
        if len(row) > (i in row) or ring.canonical_generator(d) != d \
                or not ring.divides(prev, d):
            return False
        prev = d
    return not any(rows[A.cols:])  # the rows beyond the diagonal are empty


def _euclid_core(S, r, c, m):
    """Minimal-pivot integer elimination on the r x c matrix whose rows are
    the dicts S ({column: nonzero}, plain ints, in range(m) when m is given).

    Mutates S to the rows of the diagonal D and returns (row_log, col_log,
    phys, udet, vdet), the operations that take A to D over Z, reducing mod
    m throughout when m is given, in the form SmithDecomposition reads.  The
    pivots are left as the elimination finds them; smith_normal_form scales
    each to its canonical form.

    The pivot is the first entry of least absolute value in row-major order
    (columns in their current order).  Its column is cleared downward and its
    row rightward in index order, a smaller remainder becoming the new pivot;
    then an entry the pivot does not divide is folded into the pivot row.
    Another pivot order would change V, hence kernel bases and certificate
    hashes downstream.

    Only the working matrix is eliminated, and row and column operations
    touch only its nonzero entries.  Each row operation and row swap is
    appended to the row log and each column operation to the column log, on
    physical (dict key) columns; a column swap only updates the map between
    logical and physical columns.  No transform is built, here or later:
    SmithDecomposition reads each off its log, on the vectors asked for.
    """
    row_log = []  # (i, t, q): row i -= q * row t; (i, k, 0): swap i and k
    col_log = []  # (pj, pt, q): physical column pj -= q * column pt
    phys = list(range(c))  # logical column -> physical column
    logical = list(range(c))  # physical column -> logical column
    udet = vdet = 1

    def rowop(i, t, q):
        _axpy(S[i], S[t], q, m)
        row_log.append((i, t, q))

    def colop(pj, pt, q, holders):
        # column pj -= q * column pt; holders are the rows storing column pt
        for i in holders:
            Si = S[i]
            x = Si.get(pj, 0) - q * Si[pt]
            if m:
                x %= m
            if x:
                Si[pj] = x
            else:
                Si.pop(pj, None)
        col_log.append((pj, pt, q))

    def swap_rows(i, k):
        nonlocal udet
        S[i], S[k] = S[k], S[i]
        row_log.append((i, k, 0))
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

    # back to logical columns: D in place
    for i, Si in enumerate(S):
        S[i] = {logical[k]: v for k, v in Si.items()}
    return row_log, col_log, phys, udet, vdet


# ---------------------------------------------------------------------------
# kernels and linear solving, all through the Smith form
# ---------------------------------------------------------------------------

def kernel_with_relations(A: ExactMatrix):
    """Generators K of ker(A) plus the relations among those generators."""
    return smith_normal_form(A).kernel_with_relations()


class SmithSolver:
    """Exact solver for A @ X = B.  A is factored once, on construction, and
    the decomposition is public as `snf` for callers that need its diagonal
    or kernel too.  solve_matrix is the one solve: a single right-hand side
    is a one-column B."""

    __slots__ = ("A", "ring", "snf", "__weakref__")

    def __init__(self, A: ExactMatrix):
        self.A = A
        self.ring = A.ring
        self.snf = (SmithDecomposition._of_diagonal(A)
                    if _is_own_smith_form(A) else smith_normal_form(A))

    def solve_diagonal(self, B: ExactMatrix):
        """A Y with D @ Y == U @ B, or None when some column of B has no X
        with A @ X == B: the solve up to its last product, X = V @ Y, for
        callers that only ask whether X exists.  U @ B is read off the row
        log, so no solve builds U."""
        ring = self.ring
        snf = self.snf
        if B.rows != self.A.rows:
            raise TwistcapError("rhs row count mismatch")
        C = snf.u_apply(B)
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
        return ExactMatrix._from_rows(ring, Y, B.cols)

    def solve_matrix(self, B: ExactMatrix):
        """An X with A @ X == B, or None when some column of B has none."""
        Y = self.solve_diagonal(B)
        return None if Y is None else self.snf.v_apply(Y)


def inverse(A: ExactMatrix) -> ExactMatrix:
    if A.rows != A.cols:
        raise TwistcapError("only square matrices invert")
    inv = SmithSolver(A).solve_matrix(ExactMatrix.identity(A.ring, A.rows))
    if inv is None or (A @ inv) != ExactMatrix.identity(A.ring, A.rows):
        raise TwistcapError("matrix is not invertible")
    return inv
