import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistcap import complexes, matrices
from twistcap.errors import TwistcapError
from twistcap.matrices import (ExactMatrix, SmithDecomposition, SmithSolver,
                               block_diag, inverse, kernel_with_relations,
                               smith_normal_form)
from twistcap.rings import MODULAR, Q, RATIONALS, Z, Zmod

from oracles import (RP2_FACETS, boundary_matrix, invariant_factors_by_minors,
                     rational_rank)


def mat(ring, rows):
    return ExactMatrix(ring, rows)


def diag_of(snf):
    return [int(d) for d in snf.diagonal()]


def test_snf_two_by_two():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8 -> diag (2, 4)
    A = mat(Z, [[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    assert snf.verify(A)
    assert diag_of(snf) == [2, 4]
    assert invariant_factors_by_minors([[2, 4], [6, 8]]) == [2, 4]
    # with a non-unit determinant the logs still give U @ A @ V == D, and
    # only the determinant says that the transform is not invertible
    fields = {name: getattr(snf, name)
              for name in ("D", "u_det", "v_det", "row_log", "col_log",
                           "phys", "scales", "units")}
    for det in ("u_det", "v_det"):
        assert not SmithDecomposition(**{**fields, det: 2}).verify(A)


def test_snf_identity_and_zero():
    I3 = ExactMatrix.identity(Z, 3)
    snf = smith_normal_form(I3)
    assert snf.verify(I3)
    assert diag_of(snf) == [1, 1, 1]

    Z32 = ExactMatrix.zeros(Z, 3, 2)
    snf = smith_normal_form(Z32)
    assert snf.verify(Z32)
    assert snf.D.is_zero()


def test_snf_rationals_zero_one_diagonal():
    A = mat(Q, [[2, 4, 0], [1, 2, 0]])
    snf = smith_normal_form(A)
    assert snf.verify(A)
    assert sorted(diag_of(snf), reverse=True) == [1, 0, 0][:min(2, 3)]
    assert all(d in (0, 1) for d in diag_of(snf))


def test_snf_modular_torsion():
    A = mat(Zmod(4), [[2, 0], [0, 2]])
    snf = smith_normal_form(A)
    assert snf.verify(A)
    assert diag_of(snf) == [2, 2]


def test_snf_modular_divisibility_chain():
    ring = Zmod(12)
    A = mat(ring, [[4, 0, 0], [0, 6, 0], [0, 0, 3]])
    snf = smith_normal_form(A)
    assert snf.verify(A)
    diag = diag_of(snf)
    for a, b in zip(diag, diag[1:]):
        assert ring.divides(a, b)


@pytest.mark.parametrize("seed", range(30))
def test_snf_random_integer_matrices(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 6)
    c = rng.randint(1, 6)
    rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
    A = mat(Z, rows)
    snf = smith_normal_form(A)
    assert snf.verify(A)
    assert sum(map(bool, snf.diagonal())) == rational_rank(rows)
    if r <= 4 and c <= 4:
        expected = [d for d in invariant_factors_by_minors(rows)]
        got = [d for d in diag_of(snf) if d]
        assert got == expected


@pytest.mark.parametrize("m", [2, 3, 4, 6, 9])
def test_snf_random_modular(m):
    rng = random.Random(m * 17)
    ring = Zmod(m)
    for _ in range(20):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        A = mat(ring, [[rng.randrange(m) for _ in range(c)] for _ in range(r)])
        snf = smith_normal_form(A)
        assert snf.verify(A)


def test_kernel_is_exact():
    A = mat(Z, [[1, 2, 3], [2, 4, 6]])
    K = kernel_with_relations(A)[0]
    assert (A @ K).is_zero()
    assert K.cols == 2
    # saturation: (1,1,-1) lies in the kernel and must be expressible over Z
    assert SmithSolver(K).solve_matrix(mat(Z, [[1], [1], [-1]])) is not None


def test_kernel_torsion_modular():
    ring = Zmod(4)
    A = mat(ring, [[2]])
    K, Krel = kernel_with_relations(A)
    assert K.cols == 1
    assert K.column(0) == (2,)
    assert Krel.cols == 1 and Krel.column(0) == (2,)


def test_solver_exact_and_unsolvable():
    A = mat(Z, [[2, 0], [0, 3]])
    s = SmithSolver(A)
    assert s.solve_matrix(mat(Z, [[4], [9]])) == mat(Z, [[2], [3]])
    assert s.solve_matrix(mat(Z, [[1], [0]])) is None

    ring = Zmod(6)
    s = SmithSolver(mat(ring, [[2]]))
    x = s.solve_matrix(mat(ring, [[4]]))
    assert x is not None and (2 * x.entry(0, 0)) % 6 == 4
    assert s.solve_matrix(mat(ring, [[3]])) is None


def test_inverse_roundtrip():
    A = mat(Z, [[1, 2], [0, -1]])
    B = inverse(A)
    assert (A @ B) == ExactMatrix.identity(Z, 2)


@pytest.mark.parametrize("ring", [Z, Zmod(5), Q])
def test_a_product_shares_the_rows_a_unit_row_selects(ring):
    A = mat(ring, [[0, 1, 0], [2, 0, 0], [0, 0, 1], [0, -1, 0]])
    B = mat(ring, [[1, 2], [Fraction(1, 3) if ring == Q else 3, 0], [0, 4]])
    P = A @ B
    assert P.sparse_rows[0] is B.sparse_rows[1]
    assert P.sparse_rows[2] is B.sparse_rows[2]
    assert P.sparse_rows[1] is not B.sparse_rows[0]
    assert P.sparse_rows[3] is not B.sparse_rows[1]
    assert P.data == tuple(
        tuple(ring.normalize(sum(a * b for a, b in zip(arow, bcol)))
              for bcol in zip(*B.data)) for arow in A.data)


def test_hstack_shares_the_first_block_rows_no_later_block_extends():
    A = mat(Z, [[1, 0], [0, 2], [3, 4]])
    before = [dict(row) for row in A.sparse_rows]
    B, C = mat(Z, [[0], [5], [0]]), mat(Z, [[0], [7], [6]])
    H = ExactMatrix.hstack([A, B, C])
    assert H.sparse_rows[0] is A.sparse_rows[0]
    assert all(H.sparse_rows[i] is not A.sparse_rows[i] for i in (1, 2))
    assert list(A.sparse_rows) == before
    assert H.data == ((1, 0, 0, 0), (0, 2, 5, 7), (3, 4, 0, 6))
    # the rows of a zero block are one shared empty row, copied per row
    zero = ExactMatrix.zeros(Z, 2, 1)
    H = ExactMatrix.hstack([zero, ExactMatrix.identity(Z, 2)])
    assert H.data == ((0, 1, 0), (0, 0, 1)) and zero.is_zero()


def test_rows_whose_hashes_collide_are_both_shared():
    # hash(-1) == hash(-2), so the two rows' items hash alike
    a, b = {0: 1, 1: -1}, {0: 1, 1: -2}
    assert hash(frozenset(a.items())) == hash(frozenset(b.items()))
    table = {}
    first = ExactMatrix._from_rows(Z, [a, b], 2)
    assert first.shared(table) is first and len(table) == 2
    again = ExactMatrix._from_rows(Z, [dict(a), dict(b)], 2).shared(table)
    assert again.sparse_rows[0] is a and again.sparse_rows[1] is b
    assert len(table) == 2


def test_kron_and_apply():
    A = mat(Z, [[0, 1], [1, 0]])
    B = mat(Z, [[-1]])
    K = A.kron(B)
    assert K.data == ((0, -1), (-1, 0))
    assert A.apply((3, 5)) == (5, 3)


# ---------------------------------------------------------------------------
# The sparse elimination against a frozen dense reference
# ---------------------------------------------------------------------------

# A verbatim copy of the dense elimination that the sparse one replaced.  The
# sparse core must make the same pivot choices and elementary operations, so
# every transform, and with it every kernel basis and certificate, is equal.

def _reference_core(M, r, c, m):
    """The dense elimination that twistcap.matrices._euclid_core must match
    operation for operation; entries of M are plain ints.

    Mutates M to diagonal form and returns (U, U_inv, V, V_inv, udet, vdet)
    with U @ A @ V == D over Z, reducing mod m throughout when m is given;
    U_inv is tracked densely and returned as sparse columns, V_inv tracked
    densely and returned as sparse rows.
    """
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Uinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    Vinv = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    udet = vdet = 1

    def red(x):
        return x % m if m else x

    def rowop(i, t, q):
        Mi, Mt = M[i], M[t]
        for j in range(c):
            Mi[j] = red(Mi[j] - q * Mt[j])
        Ui, Ut = U[i], U[t]
        for j in range(r):
            Ui[j] = red(Ui[j] - q * Ut[j])
        for row in Uinv:
            row[t] = red(row[t] + q * row[i])

    def colop(j, t, q):
        for i in range(r):
            Mi = M[i]
            Mi[j] = red(Mi[j] - q * Mi[t])
        for i in range(c):
            Vi = V[i]
            Vi[j] = red(Vi[j] - q * Vi[t])
        Yt, Yj = Vinv[t], Vinv[j]
        for k in range(c):
            Yt[k] = red(Yt[k] + q * Yj[k])

    def swap_rows(i, k):
        nonlocal udet
        M[i], M[k] = M[k], M[i]
        U[i], U[k] = U[k], U[i]
        for row in Uinv:
            row[i], row[k] = row[k], row[i]
        udet = -udet

    def swap_cols(j, k):
        nonlocal vdet
        for i in range(r):
            Mi = M[i]
            Mi[j], Mi[k] = Mi[k], Mi[j]
        for i in range(c):
            Vi = V[i]
            Vi[j], Vi[k] = Vi[k], Vi[j]
        Vinv[j], Vinv[k] = Vinv[k], Vinv[j]
        vdet = -vdet

    def divides(p, v):
        if m:
            return v % gcd(p, m) == 0
        return v % p == 0

    limit = min(r, c)
    for t in range(limit):
        # choose the smallest nonzero entry as pivot to damp growth
        best = None
        for i in range(t, r):
            Mi = M[i]
            for j in range(t, c):
                v = Mi[j]
                if v:
                    key = abs(v)
                    if best is None or key < best[0]:
                        best = (key, i, j)
                        if key == 1:
                            break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        while True:
            # clear the column below the pivot
            i = t + 1
            while i < r:
                v = M[i][t]
                if v:
                    q = v // M[t][t]
                    if q:
                        rowop(i, t, q)
                    if M[i][t]:
                        swap_rows(t, i)  # strictly smaller pivot
                        i = t + 1
                        continue
                i += 1
            # clear the row to the right
            dirty = False
            j = t + 1
            while j < c:
                v = M[t][j]
                if v:
                    q = v // M[t][t]
                    if q:
                        colop(j, t, q)
                    if M[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        j = t + 1
                        continue
                j += 1
            if dirty or any(M[i][t] for i in range(t + 1, r)):
                continue
            # fold in an entry the pivot misses, to force the chain
            p = M[t][t]
            fold = None
            for i in range(t + 1, r):
                Mi = M[i]
                for j in range(t + 1, c):
                    v = Mi[j]
                    if v and not divides(p, v):
                        fold = i
                        break
                if fold is not None:
                    break
            if fold is None:
                break
            rowop(t, fold, -1)  # row_t += row_fold

    # positive diagonal over Z (Z/m canonicalizes in its wrapper instead)
    if m is None:
        for t in range(limit):
            if M[t][t] < 0:
                for j in range(c):
                    M[t][j] = -M[t][j]
                for j in range(r):
                    U[t][j] = -U[t][j]
                for row in Uinv:
                    row[t] = -row[t]
                udet = -udet
    Uinv_columns = [{i: Uinv[i][j] for i in range(r) if Uinv[i][j]}
                    for j in range(r)]
    Vinv_rows = [{k: x for k, x in enumerate(row) if x} for row in Vinv]
    return U, Uinv_columns, V, Vinv_rows, udet, vdet


@dataclass(frozen=True)
class _Reference:
    """The transforms of a Smith form, fully built."""
    D: ExactMatrix
    U: ExactMatrix
    U_inv: tuple  # columns of U^-1, each a dict row -> nonzero entry
    V: ExactMatrix
    V_inv: tuple  # rows of V^-1, each a dict column -> nonzero entry
    u_det: object
    v_det: object


def transforms(snf):
    """D, U, U^-1, V and V^-1 of a decomposition, each read off its log over
    every position, with the determinants, in the form of the reference."""
    return _Reference(snf.D, snf.U, snf.u_inv_columns(range(snf.D.rows)),
                      snf.V, snf.v_inv_rows(range(snf.D.cols)), snf.u_det,
                      snf.v_det)


def reference_snf(A):
    """The Smith form of A from the dense reference core, with the wrapper
    that smith_normal_form put around its core when the core returned whole
    transforms: Q rows lifted by their row scales, then each pivot scaled by
    the unit that takes it to its canonical generator."""
    ring = A.ring
    r, c = A.rows, A.cols
    norm = ring.normalize
    scales = {}
    M = []
    for i, row in enumerate(A.sparse_rows):
        denom = 1
        if ring.kind == RATIONALS:
            for x in row.values():
                if type(x) is not int:
                    denom = denom * x.denominator // gcd(denom, x.denominator)
        if denom != 1:
            scales[i] = denom
        M.append([int(row.get(j, 0) * denom) for j in range(c)])
    U, W, V, Y, udet, vdet = _reference_core(M, r, c, ring.modulus)
    U = [{j: x for j, x in enumerate(row) if x} for row in U]
    S = [{j: x for j, x in enumerate(row) if x} for row in M]
    V = [{j: x for j, x in enumerate(row) if x} for row in V]
    if scales:
        U = [{j: x * scales.get(j, 1) for j, x in row.items()} for row in U]
        W = [{i: norm(Fraction(x, scales[i])) if i in scales else x
              for i, x in col.items()} for col in W]
        for s in scales.values():
            udet *= s
    for t in range(min(r, c)):
        d = S[t].get(t)
        if not d or ring.canonical_generator(d) == d:
            continue
        u = ring.unit_scaling_to_canonical(d)
        u_inv = ring.divide(ring.one, u)
        S[t][t] = ring.canonical_generator(d)
        U[t] = {j: norm(x * u) for j, x in U[t].items()}
        W[t] = {i: norm(x * u_inv) for i, x in W[t].items()}
        udet = norm(udet * u)
    return _Reference(
        ExactMatrix._from_rows(ring, S, c), ExactMatrix._from_rows(ring, U, r),
        tuple(W), ExactMatrix._from_rows(ring, V, c), tuple(Y), norm(udet),
        norm(vdet))


def build(ring, rows, r, c):
    if r == 0:
        return ExactMatrix.zeros(ring, 0, c)
    return ExactMatrix(ring, rows)


def expected_canonical_diagonal(ring, rows, r, c):
    """Canonical diagonal from the minors oracle on an integral version."""
    if ring.kind == RATIONALS:  # clear denominators row by row
        cleared = []
        for row in rows:
            den = 1
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
            cleared.append([int(x * den) for x in row])
        rows = cleared
    factors = invariant_factors_by_minors(rows) if r and c else []
    padded = factors + [0] * (min(r, c) - len(factors))
    if ring.kind == RATIONALS:
        return [1 if d else 0 for d in padded]
    if ring.kind == MODULAR:
        return [gcd(d, ring.modulus) % ring.modulus for d in padded]
    return padded


RINGS = [Z, Zmod(2), Zmod(12), Zmod(36), Zmod(10007), Zmod(1000003), Q]

SPARSE_UNITS = st.sampled_from([0, 0, 0, 0, 1, -1])
SMALL = st.integers(-9, 9)
WIDE = st.integers(-10**6, 10**6)


@st.composite
def matrix_rows(draw, ring, max_side=6):
    r = draw(st.integers(0, max_side))
    c = draw(st.integers(0, max_side))
    entry = draw(st.sampled_from([SPARSE_UNITS, SMALL, WIDE]))
    if ring.kind == RATIONALS:
        entry = st.builds(Fraction, entry, st.sampled_from([1, 1, 2, 3]))
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r and c and draw(st.booleans()):  # a zero row and a zero column
        zi, zj = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
        rows = [[0 if i == zi or j == zj else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return r, c, rows


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_snf_matches_frozen_reference(ring, data):
    r, c, rows = data.draw(matrix_rows(ring))
    A = build(ring, rows, r, c)
    snf = smith_normal_form(A)
    assert transforms(snf) == reference_snf(A)
    assert snf.verify(A)
    if r <= 4 and c <= 4:
        got = [ring.canonical_generator(d) for d in snf.diagonal()]
        assert got == expected_canonical_diagonal(ring, [list(x) for x in A.data],
                                                  r, c)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_u_inverse_is_a_two_sided_inverse(ring, data):
    r, c, rows = data.draw(matrix_rows(ring))
    snf = smith_normal_form(build(ring, rows, r, c))
    assert all(x for col in snf.u_inv_columns(range(r))
               for x in col.values())  # sparse
    U_inv = ExactMatrix.from_columns(
        ring, [[col.get(i, ring.zero) for i in range(r)]
               for col in snf.u_inv_columns(range(r))], r)
    ident = ExactMatrix.identity(ring, r)
    assert snf.U @ U_inv == ident
    assert U_inv @ snf.U == ident


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_v_inverse_is_a_two_sided_inverse(ring, data):
    r, c, rows = data.draw(matrix_rows(ring))
    snf = smith_normal_form(build(ring, rows, r, c))
    rows_of_v_inv = snf.v_inv_rows(range(c))
    assert all(x for row in rows_of_v_inv for x in row.values())  # sparse
    V_inv = ExactMatrix.from_columns(
        ring, [[row.get(k, ring.zero) for row in rows_of_v_inv]
               for k in range(c)], c)
    ident = ExactMatrix.identity(ring, c)
    assert snf.V @ V_inv == ident
    assert V_inv @ snf.V == ident


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(12), Q], ids=str)
@pytest.mark.parametrize("surface", ["rp2", "klein", "torus"])
def test_snf_of_boundary_matrices_matches_reference(ring, surface):
    # mid-sized sparse +-1 matrices, where swaps, folds and fill-in interact
    facets = {"rp2": lambda: RP2_FACETS,
              "klein": lambda: complexes._grid_klein(4, 4).facets,
              "torus": lambda: complexes._grid_torus(4, 4).facets}[surface]()
    for k in (1, 2):
        rows = boundary_matrix(facets, k)[0]
        for A in (ExactMatrix(ring, rows), ExactMatrix(ring, zip(*rows))):
            snf = smith_normal_form(A)
            assert transforms(snf) == reference_snf(A)
            assert snf.verify(A)


@pytest.mark.parametrize("ring,rows,diagonal", [
    # non-unit pivots that need the fold to reach a divisibility chain
    (Z, [[2, 0], [0, 3]], [1, 6]),
    (Zmod(12), [[2, 0], [0, 3]], [1, 6]),
    (Z, [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
    # unit pivots beside entries they do not divide as integers
    (Zmod(12), [[5, 0], [0, 7]], [1, 1]),
    (Zmod(10007), [[0, 3, 2], [5, 0, 7]], [1, 1]),
    (Z, [[-1, 0], [0, 3]], [1, 3]),
], ids=str)
def test_snf_fold_path_matches_reference(ring, rows, diagonal):
    A = ExactMatrix(ring, rows)
    snf = smith_normal_form(A)
    ref = reference_snf(A)
    assert (snf.D, snf.U, snf.V) == (ref.D, ref.U, ref.V)
    assert (snf.u_det, snf.v_det) == (ref.u_det, ref.v_det)
    assert [int(d) for d in snf.diagonal()] == diagonal
    assert snf.verify(A)


# ---------------------------------------------------------------------------
# Parts of the transforms, read by replaying the logs
# ---------------------------------------------------------------------------

PARTIAL_RINGS = [Z, Zmod(12), Zmod(10007), Q]
WHOLE = ("U", "V")


def assert_partial_reads_match(A, idx, B, jdx, C):
    """u_rows(idx), u_inv_columns(idx), v_apply(B), v_inv_rows(jdx) and
    u_apply(C), read while the decomposition keeps no whole transform,
    equal the rows of U, the columns of U^-1, V @ B, the rows of V^-1 and
    U @ C, both as the decomposition reads them over every position and as
    the dense reference builds them, with every entry stored in canonical
    form."""
    ring = A.ring
    snf = smith_normal_form(A)
    rows, columns, applied = (snf.u_rows(idx), snf.u_inv_columns(idx),
                              snf.v_apply(B))
    v_inv_rows, u_applied = snf.v_inv_rows(jdx), snf.u_apply(C)
    assert not [name for name in WHOLE if name in snf.__dict__]
    for whole in (transforms(snf), reference_snf(A)):
        assert rows == ExactMatrix._from_rows(
            ring, [whole.U.sparse_rows[i] for i in idx], A.rows)
        assert columns == tuple(whole.U_inv[i] for i in idx)
        assert applied == whole.V @ B
        assert v_inv_rows == tuple(whole.V_inv[j] for j in jdx)
        assert u_applied == whole.U @ C
    stored = [x for part in (rows.sparse_rows, columns, applied.sparse_rows,
                             v_inv_rows, u_applied.sparse_rows)
              for vec in part for x in vec.values()]
    norm = ring.normalize
    assert all(x and x == norm(x) and type(x) is type(norm(x))
               for x in stored)


@st.composite
def positions_and_rhs(draw, ring, r, c):
    """Distinct positions in range(r), in any order, and a c-row matrix."""
    idx = draw(st.lists(st.integers(0, r - 1), unique=True, max_size=r)
               if r else st.just([]))
    n = draw(st.integers(0, 3))
    entry = SMALL
    if ring.kind == RATIONALS:
        entry = st.builds(Fraction, SMALL, st.sampled_from([1, 2, 3]))
    return idx, build(ring, [[draw(entry) for _ in range(n)]
                             for _ in range(c)], c, n)


@pytest.mark.parametrize("ring", PARTIAL_RINGS, ids=str)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_partial_reads_match_the_whole_transforms(ring, data):
    # matrix_rows draws empty matrices and, over Q, rows that are not
    # integral, so row scales apply
    r, c, rows = data.draw(matrix_rows(ring))
    idx, B = data.draw(positions_and_rhs(ring, r, c))
    jdx, C = data.draw(positions_and_rhs(ring, c, r))
    assert_partial_reads_match(build(ring, rows, r, c), idx, B, jdx, C)


@st.composite
def swap_heavy_rows(draw, ring):
    """A matrix whose entries sit on a random permutation and a few more
    cells.  Row 0 holds only entries that are not +-1 in any of the rings
    and the last row holds a 1, so the first pivot is swapped up; the other
    entries are ones the pivots may not divide, so the elimination swaps and
    folds."""
    n = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(n)))
    big = st.sampled_from([2, 3, 4, 6, -9])
    anything = st.sampled_from([-1, 1, 2, 3, 4, 6, -9])
    rows = [[0] * n for _ in range(n)]
    cells = list(enumerate(perm)) + [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(draw(st.integers(0, n)))]
    for i, j in cells:
        rows[i][j] = draw(big if i == 0 else anything)
    rows[n - 1][perm[n - 1]] = 1
    if ring.kind == RATIONALS:
        # the last row stays integral: scaled by a denominator 2, its 1
        # would become a 2 and the first pivot could stay in row 0
        rows[1:-1] = [[Fraction(x, draw(st.sampled_from([1, 2])))
                       for x in row] for row in rows[1:-1]]
    return n, rows


@pytest.mark.parametrize("ring", PARTIAL_RINGS, ids=str)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_partial_reads_match_on_swap_heavy_matrices(ring, data):
    n, rows = data.draw(swap_heavy_rows(ring))
    A = ExactMatrix(ring, rows)
    snf = smith_normal_form(A)
    assert snf.row_log and any(q == 0 for _, _, q in snf.row_log)
    idx, B = data.draw(positions_and_rhs(ring, n, n))
    jdx, C = data.draw(positions_and_rhs(ring, n, n))
    assert_partial_reads_match(A, idx, B, jdx, C)


@pytest.mark.parametrize("ring", PARTIAL_RINGS, ids=str)
@pytest.mark.parametrize("rows,shape", [
    ([], (0, 0)), ([], (0, 3)), ([[], [], []], (3, 0)),
    # the fold path, and rows of Q that are not integral
    ([[2, 0], [0, 3]], (2, 2)), ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (3, 3)),
    ([[0, 3, 2], [5, 0, 7]], (2, 3)),
    ([[0, Fraction(1, 2)], [Fraction(2, 3), 1], [1, Fraction(5, 6)]], (3, 2)),
], ids=str)
def test_partial_reads_of_every_position(ring, rows, shape):
    r, c = shape
    rows = [[ring.normalize(x) for x in row] for row in rows]
    A = ExactMatrix(ring, rows) if r else ExactMatrix.zeros(ring, 0, c)
    ident = ExactMatrix.identity(ring, c)
    assert_partial_reads_match(A, list(reversed(range(r))), ident,
                               list(reversed(range(c))),
                               ExactMatrix.identity(ring, r))
    assert smith_normal_form(A).v_apply(ident) == reference_snf(A).V


@pytest.mark.parametrize("ring", [Z, Q, Zmod(6)], ids=str)
@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (1, 0), (0, 1), (0, 0)],
                         ids=str)
def test_a_matrix_with_no_rows_or_no_columns_is_its_own_smith_form(ring,
                                                                   shape):
    # a solver takes such a matrix as its own Smith form, with empty logs,
    # and factors nothing; the elimination would give the same decomposition
    A = ExactMatrix.zeros(ring, *shape)
    made, own = smith_normal_form(A), SmithDecomposition._of_diagonal(A)
    for field in ("D", "u_det", "v_det", "row_log", "col_log", "phys",
                  "scales", "units", "kernel_positions"):
        assert getattr(made, field) == getattr(own, field), field
    assert SmithSolver(A).snf.D is A


@pytest.mark.parametrize("rows,operand", [
    # U @ C: row 1 -= row 0 takes 3/2 - 1/2 to an integral Fraction
    ([[1, 0], [1, 1]], [[Fraction(1, 2)], [Fraction(3, 2)]]),
    # V @ B: column 1 -= column 0 takes 1/2 - 3/2 to an integral Fraction
    ([[1, 1]], [[Fraction(1, 2)], [Fraction(3, 2)]]),
], ids=str)
def test_reads_of_fraction_operands_store_canonical_entries(rows, operand):
    A, B = ExactMatrix(Q, rows), ExactMatrix(Q, operand)
    r, c = A.rows, A.cols
    assert_partial_reads_match(
        A, [], B if c == B.rows else ExactMatrix.zeros(Q, c, 0),
        [], B if r == B.rows else ExactMatrix.zeros(Q, r, 0))


@pytest.mark.parametrize("ring", [Z, Zmod(12), Q], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_matmul_and_apply_match_dense_products(ring, data):
    n = data.draw(st.integers(0, 5))
    _, k, left = data.draw(matrix_rows(ring))
    rows_b = [[data.draw(SMALL) for _ in range(n)] for _ in range(k)]
    A = build(ring, left, len(left), k)
    B = build(ring, rows_b, k, n)
    expected = [[ring.normalize(sum((a * b for a, b in zip(row, col)),
                                    ring.zero))
                 for col in B.columns()] for row in A.data]
    product = A @ B
    assert (product.rows, product.cols) == (A.rows, n)
    assert [list(row) for row in product.data] == expected
    assert product @ ExactMatrix.identity(ring, n) == product
    for j, col in enumerate(B.columns()):
        assert A.apply(col) == tuple(row[j] for row in expected)


# ---------------------------------------------------------------------------
# The sparse storage against a dense reference
# ---------------------------------------------------------------------------

@st.composite
def shaped_rows(draw, ring, r, c):
    entry = draw(st.sampled_from([SPARSE_UNITS, SMALL, WIDE]))
    if ring.kind == RATIONALS:
        entry = st.builds(Fraction, entry, st.sampled_from([1, 1, 2, 3]))
    return [[draw(entry) for _ in range(c)] for _ in range(r)]


def dense_view(M, rows, cols):
    """M.data as lists, after checking the shape, that no zero is stored and
    that the view holds ring elements (Fractions over Q, zeros included)."""
    assert (M.rows, M.cols) == (rows, cols)
    assert len(M.sparse_rows) == rows
    assert all(x and 0 <= j < cols
               for row in M.sparse_rows for j, x in row.items())
    view = [list(row) for row in M.data]
    assert all(len(row) == cols for row in view)
    if M.ring.kind == RATIONALS:
        assert all(type(x) is Fraction for row in view for x in row)
    return view


def dense_product(ring, a, b, inner, width):
    return [[ring.normalize(sum((row[k] * b[k][j] for k in range(inner)),
                                ring.zero)) for j in range(width)]
            for row in a]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_operations_match_dense_reference(ring, data):
    r, c, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    norm = ring.normalize
    a, b = (data.draw(shaped_rows(ring, r, c)) for _ in range(2))
    e = data.draw(shaped_rows(ring, c, n))
    A, B, E = build(ring, a, r, c), build(ring, b, r, c), build(ring, e, c, n)
    a, b, e = ([[norm(x) for x in row] for row in m] for m in (a, b, e))

    assert dense_view(A, r, c) == a
    assert dense_view(A + B, r, c) == [[norm(x + y) for x, y in zip(p, q)]
                                       for p, q in zip(a, b)]
    assert dense_view(A - B, r, c) == [[norm(x - y) for x, y in zip(p, q)]
                                       for p, q in zip(a, b)]
    assert dense_view(-A, r, c) == [[norm(-x) for x in row] for row in a]
    s = norm(data.draw(SMALL))
    assert dense_view(A.scale(s), r, c) == [[norm(s * x) for x in row]
                                            for row in a]
    assert dense_view(A @ E, r, n) == dense_product(ring, a, e, c, n)
    assert dense_view(A.kron(E), r * c, c * n) == [
        [norm(x * y) for x in p for y in q] for p in a for q in e]
    assert dense_view(ExactMatrix.hstack([A, B]), r, 2 * c) == [
        p + q for p, q in zip(a, b)]
    assert dense_view(ExactMatrix.vstack([A, B]), 2 * r, c) == a + b
    assert dense_view(block_diag(ring, [A, E]), r + c, c + n) == (
        [row + [ring.zero] * n for row in a]
        + [[ring.zero] * c + row for row in e])
    assert dense_view(ExactMatrix.zeros(ring, r, c), r, c) == [
        [ring.zero] * c for _ in range(r)]
    assert dense_view(ExactMatrix.identity(ring, n), n, n) == [
        [ring.one if i == j else ring.zero for j in range(n)]
        for i in range(n)]

    assert A.is_zero() == (not any(x for row in a for x in row))
    assert A.columns() == [tuple(row[j] for row in a) for j in range(c)]
    for i in range(r):
        for j in range(c):
            assert A.entry(i, j) == a[i][j]
    vec = [norm(x) for x in data.draw(shaped_rows(ring, 1, c))[0]] \
        if c else []
    assert A.apply(vec) == tuple(dense_product(ring, a, [[x] for x in vec],
                                               c, 1)[i][0] for i in range(r))
    assert A + B - B == A and A - A == ExactMatrix.zeros(ring, r, c)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_constructor_gives_equal_and_equally_hashed_matrices(ring, data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    rows = [[ring.normalize(x) for x in row]
            for row in data.draw(shaped_rows(ring, r, c))]
    columns = [tuple(row[j] for row in rows) for j in range(c)]
    raw = ExactMatrix._from_rows(
        ring, [{j: x for j, x in enumerate(row) if x} for row in rows], c)
    split = data.draw(st.integers(0, c))
    built = [
        build(ring, rows, r, c),
        raw,
        ExactMatrix.from_columns(ring, columns, r),
        ExactMatrix.hstack([ExactMatrix.from_columns(ring, columns[:split], r),
                            ExactMatrix.from_columns(ring, columns[split:], r)]),
        ExactMatrix.hstack([ExactMatrix.from_columns(ring, [col], r)
                            for col in columns]
                           or [ExactMatrix.zeros(ring, r, 0)]),
    ]
    # rows listing their nonzeros in another order are the same matrix
    built.append(ExactMatrix._from_rows(
        ring, [dict(reversed(row.items())) for row in built[0].sparse_rows],
        c))
    for M in built:
        assert M == built[0]
        assert hash(M) == hash(built[0])
        assert dense_view(M, r, c) == rows


# Diagonal candidates per ring: canonical generators, entries that are not
# canonical (negative, a non-canonical generator of an ideal, a non-unit
# rational) and zeros, so that random picks give chains and non-chains.
RECOGNITION_POOLS = {
    Z: [0, 1, 1, 2, 2, 3, 4, 6, 12, -1, -2],
    Q: [0, 1, 1, 1, 2, -1, Fraction(1, 2)],
    Zmod(4): [0, 1, 2, 3],
    Zmod(7): [0, 1, 1, 3],
    Zmod(12): [0, 1, 2, 3, 4, 6, 5, 8, 10],
    Zmod(30): [0, 1, 2, 3, 5, 6, 10, 15, 4, 7, 12],
}


def near_diagonal(rng, ring):
    """Up to 4 x 4: a diagonal picked from the ring's pool, most often
    sorted with zeros last, and sometimes one stray entry anywhere,
    beyond the diagonal included."""
    r, c = rng.randint(0, 4), rng.randint(0, 4)
    diag = [rng.choice(RECOGNITION_POOLS[ring]) for _ in range(min(r, c))]
    if rng.random() < 0.7:
        diag.sort(key=lambda d: (d == 0, abs(d)))
    rows = [[diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
    if r and c and rng.random() < 0.3:
        rows[rng.randrange(r)][rng.randrange(c)] = rng.choice([1, 2, -3])
    return ExactMatrix(ring, rows)


@pytest.mark.parametrize("ring", list(RECOGNITION_POOLS), ids=str)
def test_a_matrix_is_recognised_as_its_own_smith_form_iff_nothing_moves(ring):
    rng = random.Random(f"own-smith-form {ring}")
    recognised = 0
    for _ in range(1500):
        A = near_diagonal(rng, ring)
        snf = smith_normal_form(A)
        untouched = (not snf.row_log and not snf.col_log and not snf.scales
                     and not snf.units and snf.phys == tuple(range(A.cols))
                     and snf.D == A)
        assert matrices._is_own_smith_form(A) == untouched, A.data
        if untouched:
            recognised += 1
            own = SmithDecomposition._of_diagonal(A)
            for field in ("D", "u_det", "v_det", "row_log", "col_log", "phys",
                          "scales", "units", "kernel_positions"):
                assert getattr(own, field) == getattr(snf, field), field
            assert SmithSolver(A).snf.D is A
    assert 300 < recognised < 1200


@pytest.mark.parametrize("ring,rows", [
    (Z, [[Fraction(1, 2), 2]]),      # would truncate to 0
    (Z, [[2.7]]),                    # a float, would truncate to 2
    (Z, [["x"]]),
    (Zmod(5), [[Fraction(7, 2)]]),   # would truncate to 3, not 7 * 2^-1
    (Zmod(5), [[1.0]]),
    (Q, [[0.5]]),
    (Q, [[1, None]]),
], ids=str)
def test_the_dense_constructor_refuses_inexact_entries(ring, rows):
    with pytest.raises(TwistcapError, match="not exact"):
        ExactMatrix(ring, rows)


def test_the_dense_constructor_keeps_exact_entries():
    assert ExactMatrix(Z, [[Fraction(4, 2), -3]]).sparse_rows == ({0: 2, 1: -3},)
    assert ExactMatrix(Zmod(5), [[7, Fraction(10, 5)]]).sparse_rows == (
        {0: 2, 1: 2},)
    assert ExactMatrix(Q, [[Fraction(1, 2), Fraction(4, 2)]]).sparse_rows == (
        {0: Fraction(1, 2), 1: 2},)


def test_from_columns_goes_through_the_dense_constructor():
    assert ExactMatrix.from_columns(Zmod(5), [(5, 6)], 2).sparse_rows == (
        {}, {0: 1})
    for entry in (Fraction(1, 2), 0.5):
        with pytest.raises(TwistcapError, match="not exact"):
            ExactMatrix.from_columns(Z, [(entry,)], 1)
    no_rows = ExactMatrix.from_columns(Z, [(), ()], 0)
    assert (no_rows.rows, no_rows.cols) == (0, 2)
    no_columns = ExactMatrix.from_columns(Z, [], 3)
    assert (no_columns.rows, no_columns.cols) == (3, 0)


@pytest.mark.parametrize("stack", [ExactMatrix.hstack, ExactMatrix.vstack])
def test_stacking_no_blocks_is_refused(stack):
    with pytest.raises(TwistcapError, match="no blocks"):
        stack([])
