import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistcap import complexes, matrices
from twistcap.matrices import (ExactMatrix, SmithSolver, inverse,
                               is_invertible, kernel, kernel_with_relations,
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
    assert snf.nonzero_count() == rational_rank(rows)
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
    K = kernel(A)
    assert (A @ K).is_zero()
    assert K.cols == 2
    # saturation: (1,1,-1) lies in the kernel and must be expressible over Z
    assert SmithSolver(K).solve_vector((1, 1, -1)) is not None


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
    assert s.solve_vector((4, 9)) == (2, 3)
    assert s.solve_vector((1, 0)) is None

    ring = Zmod(6)
    s = SmithSolver(mat(ring, [[2]]))
    x = s.solve_vector((4,))
    assert x is not None and (2 * x[0]) % 6 == 4
    assert s.solve_vector((3,)) is None


def test_inverse_roundtrip():
    A = mat(Z, [[1, 2], [0, -1]])
    assert is_invertible(A)
    B = inverse(A)
    assert (A @ B) == ExactMatrix.identity(Z, 2)

    assert not is_invertible(mat(Z, [[2]]))


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

    Mutates M to diagonal form and returns (U, V, udet, vdet) with
    U @ A @ V == D over Z, reducing mod m throughout when m is given.
    """
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
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

    def colop(j, t, q):
        for i in range(r):
            Mi = M[i]
            Mi[j] = red(Mi[j] - q * Mi[t])
        for i in range(c):
            Vi = V[i]
            Vi[j] = red(Vi[j] - q * Vi[t])

    def swap_rows(i, k):
        nonlocal udet
        M[i], M[k] = M[k], M[i]
        U[i], U[k] = U[k], U[i]
        udet = -udet

    def swap_cols(j, k):
        nonlocal vdet
        for i in range(r):
            Mi = M[i]
            Mi[j], Mi[k] = Mi[k], Mi[j]
        for i in range(c):
            Vi = V[i]
            Vi[j], Vi[k] = Vi[k], Vi[j]
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
                udet = -udet
    return U, V, udet, vdet


def reference_snf(A):
    """smith_normal_form(A) computed with the dense reference core."""
    with mock.patch.object(matrices, "_euclid_core", _reference_core):
        return smith_normal_form(A)


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
    assert snf == reference_snf(A)
    assert snf.verify(A)
    if r <= 4 and c <= 4:
        got = [ring.canonical_generator(d) for d in snf.diagonal()]
        assert got == expected_canonical_diagonal(ring, [list(x) for x in A.data],
                                                  r, c)


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
            assert snf == reference_snf(A)
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
