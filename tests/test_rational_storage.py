"""Over Q a matrix stores each entry in canonical form: an int when it is
integral and a Fraction otherwise, never a float.  The dense `.data` view
renders every Q cell as a Fraction, so certificate hashes and serialized
systems read the same cells as before integral entries were stored as ints.
"""

import hashlib
from fractions import Fraction

from twistcap import complexes
from twistcap.cli import main
from twistcap.complexes import corpus
from twistcap.localsystems import _parse_entry, loads_local_system
from twistcap.matrices import ExactMatrix, inverse, smith_normal_form
from twistcap.rings import Q


def non_canonical(x):
    return type(x) is not int and not (type(x) is Fraction
                                       and x.denominator != 1)


def guard_storage(monkeypatch):
    """Record every Q entry that reaches a matrix through the trusted
    constructor in non-canonical form; return (bad entries, Q matrices
    built).  The corpus is rebuilt, so no memo from another test hides a
    construction."""
    bad, built = [], []
    original = ExactMatrix._from_rows.__func__

    def guarded(cls, ring, rows, cols):
        rows = list(rows)
        if ring == Q:
            built.append(1)
            bad.extend(x for row in rows for x in row.values()
                       if non_canonical(x))
        return original(cls, ring, rows, cols)

    monkeypatch.setattr(ExactMatrix, "_from_rows", classmethod(guarded))
    monkeypatch.setattr(complexes, "_named", {})
    return bad, built


def test_q_commands_store_only_canonical_entries(monkeypatch, capsys):
    bad, built = guard_storage(monkeypatch)
    commands = [
        ["verify-duality", "--complex", "klein", "--system", "orientation",
         "--ring", "Q"],
        ["verify-duality", "--complex", "klein", "--system",
         "random-flat:3:2", "--ring", "Q", "--seed", "3"],
        ["check-mv", "--complex", "torus", "--cover", "cylinders",
         "--ring", "Q"],
        ["phi-check", "--complex", "rp2", "--ring", "Q"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
        assert "# result=pass" in capsys.readouterr().out
    assert built
    assert not bad, bad[:5]


def test_a_loaded_q_system_stores_only_canonical_entries(monkeypatch):
    bad, built = guard_storage(monkeypatch)
    g = loads_local_system("ring Q\nrank 2\nedge 0 1\n1/3 0\n0 6/3\n",
                           corpus("circle"))
    mat = g.transport(0, 1)
    assert mat.sparse_rows == ({0: Fraction(1, 3)}, {1: 2})
    assert type(mat.sparse_rows[1][1]) is int
    inv = g.transport(1, 0)
    assert inv.sparse_rows == ({0: 3}, {1: Fraction(1, 2)})
    assert built
    assert not bad, bad


def test_an_integral_parsed_rational_is_an_int():
    assert type(_parse_entry("6/3", Q)) is int
    assert _parse_entry("1/3", Q) == Fraction(1, 3)


def test_integral_sums_and_products_of_fractions_are_stored_as_ints():
    half = ExactMatrix(Q, [[Fraction(1, 2), Fraction(1, 2)]])
    ones = ExactMatrix(Q, [[1], [1]])
    assert (half + half).sparse_rows == ({0: 1, 1: 1},)
    assert (half @ ones).sparse_rows == ({0: 1},)
    stored = [x for M in (half + half, half @ ones, half - half)
              for row in M.sparse_rows for x in row.values()]
    assert not [x for x in stored if non_canonical(x)]


def test_a_scaled_row_of_u_inverse_stores_integral_entries_as_ints():
    # row 1 has scale 2, and U^-1 divides an even entry of it by 2
    A = ExactMatrix(Q, [[0, 1], [Fraction(1, 2), 1]])
    snf = smith_normal_form(A)
    assert snf.verify(A)
    entries = [x for M in (snf.U, snf.D, snf.V) for row in M.sparse_rows
               for x in row.values()]
    entries += [x for part in (snf.U_inv, snf.V_inv) for vec in part
                for x in vec.values()]
    entries += [snf.u_det, snf.v_det]
    assert not [x for x in entries if non_canonical(x)]


PINNED = ExactMatrix(Q, [[0, 2], [Fraction(1, 2), -1]])


def test_q_dense_view_holds_only_fractions():
    for M in (PINNED, inverse(PINNED)):
        assert all(type(x) is Fraction for row in M.data for x in row)
    assert PINNED.data == ((0, 2), (Fraction(1, 2), -1))
    assert inverse(PINNED).data == ((1, 2), (Fraction(1, 2), 0))


def test_q_certificate_payload_is_unchanged():
    # digests recorded when every Q entry was stored as a Fraction
    def digest(M):
        return hashlib.sha256(repr(("inverse", M.data)).encode()).hexdigest()

    assert digest(PINNED) == ("1972325e49dbacdf6e4d41f0aaddef8b"
                              "1e2f7e9cb74f4b89d695d6505ad6bac4")
    assert digest(inverse(PINNED)) == ("75656588d6d6bcd0a263da4a94ed83b0"
                                       "972390b0b57994d90c188f6af6eb8536")
