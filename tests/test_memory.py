"""Memory stays bounded however many checks one process runs: a fixed list
of CLI commands, repeated in-process, keeps its tracemalloc peak flat.
tracemalloc traces this test's own allocations only.

Derived objects are memoized on their source and refer back to it only
weakly, so they form no reference cycle with it: a complex the caller drops
is freed by reference counting, with everything memoized on it, before any
collection, and the collector finds nothing of it.  The caller keeps a
complex alive while it uses anything derived from it; reading what a
derived object was derived from after that raises TwistcapError.  Each run
still starts after a full collection, so its peak measures what the earlier
runs retain.  The argument parser is built once per process and leaves no
cycles behind per run.

Kept matrices share every equal row through the table of the owner whose
memos keep them (`matrices.row_table`): a complex's table serves every
system memoized on it, and a system built directly has a table of its own.
Nothing writes into a shared row, the kept matrices do share them, a table
grows with the distinct inputs, not with the checks run, and a passing
system leaves nothing in its complex's table.  The tests of the tables run
the commands on fresh built-in complexes, so every memo they read is built
under the tables they see.

Each kept object exists once per complex: every pair complex over one cell
set, whatever its system, reads one coordinate tuple and one index per
degree, and the rank-1 system whose every transport is 1 is the unit of
the tensor product, so tensoring with it builds no second system.

The Mayer-Vietoris spaces hang on their system, keyed by the cover's
pieces: a lasting cover keeps nothing of the systems it is asked about, and
a lasting system shares one set of spaces among equal covers."""

import contextlib
import gc
import io
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from twistcap import complexes, covers, matrices, mv
from twistcap.cap import verify_duality
from twistcap.chains import pair_complex, relative_killed, transfer_matrix
from twistcap.cli import build_parser, main
from twistcap.complexes import (FullSubcomplex, SimplicialComplex,
                                Subcomplex, closed_star, corpus, validate,
                                whole_subcomplex)
from twistcap.errors import TwistcapError
from twistcap.fpmodules import homology_presentation
from twistcap.localsystems import (LocalSystem, constant_system, orientation_system,
                                   random_flat_system, random_sign_cocycle,
                                   sign_system, tensor)
from twistcap.matrices import ExactMatrix, row_table
from twistcap.rings import Q, Z, Zmod

COMMANDS = (
    ("verify-duality", "--complex", "klein", "--ring", "Z"),
    ("verify-duality", "--complex", "rp2", "--system", "random-flat:1:2",
     "--ring", "Z/3"),
    ("check-mv", "--complex", "torus", "--cover", "cylinders", "--ring", "Z/3"),
    ("cap-identity", "--complex", "torus", "--system", "orientation",
     "--trials", "10"),
    ("cap-identity", "--complex", "klein", "--system", "random-flat:2:2",
     "--ring", "Z/3", "--trials", "3"),
    ("diagram6", "--config", "sphere", "--system", "random-flat:3:2"),
    ("fundamental-class", "--complex", "klein", "--ring", "Z/3"),
    ("lemma2", "--complex", "rp2"),
    ("phi-check", "--complex", "klein", "--ring", "Z/3"),
)


def peak_of_one_run():
    gc.collect()
    tracemalloc.reset_peak()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(list(argv)) for argv in COMMANDS]
    assert codes == [0] * len(COMMANDS)
    return tracemalloc.get_traced_memory()[1]


def test_repeated_cli_runs_keep_peak_memory_flat():
    tracemalloc.start()
    try:
        peaks = [peak_of_one_run() for _ in range(3)]
    finally:
        tracemalloc.stop()
    assert peaks[2] <= 1.1 * peaks[0], peaks


def test_cli_runs_leave_no_argparse_garbage():
    build_parser()  # built once per process; building it leaves formatters
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                assert main(["validate", "--complex", "rp2"]) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


class ReadOnlyRow(dict):
    """A shared row that raises on every write."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared row was written")

    __setitem__ = __delitem__ = __ior__ = _refuse
    pop = popitem = update = setdefault = clear = _refuse


def fresh(name):
    """A copy of a corpus complex that shares no cache with the corpus."""
    return SimplicialComplex(corpus(name).vertex_count, corpus(name).facets)


def run_quietly(argv_list):
    with contextlib.redirect_stdout(io.StringIO()):
        return [main(list(argv)) for argv in argv_list]


class ReadOnlyRows:
    """A stand-in for a table of shared rows: the table keeps, and hands
    out, a read-only copy of each row it is given."""

    def __init__(self, table, made):
        self.table, self.made = table, made

    def setdefault(self, key, row):
        if key not in self.table:
            self.made.append(ReadOnlyRow(row))
            self.table[key] = self.made[-1]
        return self.table[key]


def in_table(row, table):
    """True when `row` is the row that `table` holds for its content: the
    first equal row on the keys from its hash on."""
    key = hash(frozenset(row.items()))
    while key in table and table[key] != row:
        key += 1
    return table.get(key) is row


def test_nothing_writes_into_a_shared_row(monkeypatch):
    made = []
    shared = ExactMatrix.shared
    monkeypatch.setattr(ExactMatrix, "shared", lambda self, table: shared(
        self, ReadOnlyRows(table, made)))
    monkeypatch.setattr(matrices, "_EMPTY_ROW", ReadOnlyRow())
    monkeypatch.setattr(complexes, "_named", {})
    commands = COMMANDS + (("corpus-all", "--seed", "0", "--trials", "2"),)
    assert run_quietly(commands) == [0] * len(commands)
    assert matrices._EMPTY_ROW == {}
    assert len(made) > 1000  # every kept row is a read-only copy


def tables_of_named_complexes():
    """The number of rows in the table of each named complex."""
    return {name: len(row_table(M)) for name, M in complexes._named.items()}


def test_a_second_run_adds_no_shared_row(monkeypatch):
    monkeypatch.setattr(complexes, "_named", {})
    assert run_quietly(COMMANDS) == [0] * len(COMMANDS)
    first = tables_of_named_complexes()
    assert run_quietly(COMMANDS) == [0] * len(COMMANDS)
    assert tables_of_named_complexes() == first
    assert first and all(first.values())


def test_kept_transfers_share_their_rows():
    _, named = mv.named_cover("torus", "cylinders")
    M = fresh("torus")
    G = constant_system(M, Z, 2)
    pair = mv.CoverPair(M, *(Subcomplex(M, piece.faces(2))
                             for piece in (named.A, named.B)))
    spaces = mv._mv_spaces(pair, G)
    rows = [row for src, dst in ((spaces.inter, spaces.left),
                                 (spaces.inter, spaces.right),
                                 (spaces.left, spaces.whole),
                                 (spaces.whole, spaces.absolute))
            for row in spaces.transfer(src, dst, 1).sparse_rows if row]
    # the transfers of a system memoized on M take M's table: equal rows of
    # different transfers are one dict
    assert row_table(G) is row_table(M)
    assert rows and all(in_table(row, row_table(M)) for row in rows)
    assert len({id(row) for row in rows}) == len(
        {frozenset(row.items()) for row in rows}) < len(rows)


def test_the_rows_of_kept_cycles_are_the_shared_rows():
    M = fresh("klein")
    pc = pair_complex(M, constant_system(M, Z))
    cycles = pc.homology(1).cycles
    assert cycles.rows and all(in_table(row, row_table(M))
                               for row in cycles.sparse_rows if row)
    assert all(row is matrices._EMPTY_ROW
               for row in cycles.sparse_rows if not row)


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Q])
def test_a_tensor_of_sign_systems_holds_four_transports(ring):
    M = fresh("klein")
    G = orientation_system(M, ring)
    H = sign_system(M, ring, random_sign_cocycle(M, seed=5))
    T = tensor(G, H)
    held = {id(m) for m in (*T._transport.values(), *T._reverse.values())}
    assert len(held) <= 4


def systems_on(M, ring):
    return [constant_system(M, ring), constant_system(M, ring, 2),
            orientation_system(M, ring), random_flat_system(M, ring, 1, 4),
            random_flat_system(M, ring, 2, 4)]


def test_pair_complexes_share_one_coordinate_object_per_cell_set():
    M = fresh("klein")

    def cell_sets():
        """Equal cell sets, built anew for each system."""
        yield None, None
        for vertices in ({0}, {0, 1}):
            yield None, relative_killed(M, FullSubcomplex(M, vertices))
        yield closed_star(M, {0}), None
        yield closed_star(M, {0, 3}), FullSubcomplex(M, {3})

    seen = {}
    for ring in (Z, Zmod(3), Q):
        for G in systems_on(M, ring):
            for n, (pool, killed) in enumerate(cell_sets()):
                pc = pair_complex(M, G, pool=pool, killed=killed)
                for k in range(M.dimension + 1):
                    seen.setdefault((n, k), set()).add(
                        (id(pc.space(k)), id(pc.index(k))))
    assert len(seen) == 5 * (M.dimension + 1)
    assert all(len(ids) == 1 for ids in seen.values())
    pc = pair_complex(M, constant_system(M, Z))
    for k in range(M.dimension + 1):
        assert pc.space(k) is M.faces(k) and pc.index(k) is M.face_index(k)
    rel = pair_complex(M, constant_system(M, Z), killed=relative_killed(
        M, FullSubcomplex(M, {0})))
    assert 0 < len(rel.space(1)) < len(M.faces(1))


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_the_unit_system_is_the_unit_of_tensor(ring):
    M = fresh("klein")
    unit = constant_system(M, ring)
    for G in systems_on(M, ring):
        assert tensor(unit, G) is G and tensor(G, unit) is G
    # a rank-1 system of +1 transports that is not the constant one
    ones = sign_system(M, ring, {e: 1 for e in M.faces(1)})
    G = orientation_system(M, ring)
    assert tensor(ones, G) is G and tensor(G, ones) is G


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_a_rank_one_system_with_a_minus_one_edge_is_no_unit(ring):
    M = fresh("klein")
    edges = M.faces(1)
    flipped = edges[len(edges) // 2]
    H = sign_system(M, ring, {e: -1 if e == flipped else 1 for e in edges})
    G = random_flat_system(M, ring, 2, 4)
    minus = ring.from_int(-1)
    for T in (tensor(H, G), tensor(G, H)):
        assert T is not G and T.rank == 2
        for e in edges:
            want = G.transport(*e)
            if e == flipped:
                want = ExactMatrix._from_rows(ring, [
                    {j: ring.normalize(minus * x) for j, x in row.items()}
                    for row in want.sparse_rows], 2)
                assert T.transport(*e) == want
            else:
                # a 1x1 identity factor gives the other factor's matrix
                assert T.transport(*e) is want


def test_system_transports_take_the_shared_rows():
    M = fresh("klein")
    G = random_flat_system(M, Z, 2, 4)
    rows = [row for e in M.faces(1)
            for m in (G.transport(*e), G.transport(*reversed(e)))
            for row in m.sparse_rows]
    assert row_table(G) is row_table(M)
    assert rows and all(in_table(row, row_table(M)) for row in rows)
    assert len({id(row) for row in rows}) < len(rows)
    # a transport with no row to share is kept as the object given
    two = ExactMatrix(Q, [[2]])
    half = ExactMatrix(Q, [[Fraction(1, 2)]])
    circle = corpus("circle")
    edge = circle.faces(1)[0]
    H = LocalSystem(circle, Q, 1, {edge: two}, {edge: half})
    assert H.transport(*edge) is two and H.transport(*reversed(edge)) is half


def test_free_modules_share_the_empty_row():
    M = fresh("klein")
    pc = pair_complex(M, constant_system(M, Z))
    module = homology_presentation(pc.boundary(2), pc.boundary(1)).module
    relations = module.relations
    assert relations.rows == module.free_rank + len(module.torsion) > 0
    empty = [row for row in relations.sparse_rows if not row]
    assert empty and all(row is matrices._EMPTY_ROW for row in empty)
    assert all(row is matrices._EMPTY_ROW
               for row in ExactMatrix.zeros(Z, 3, 0).sparse_rows)


def live_mv_spaces():
    return sum(isinstance(o, mv._MVSpaces) for o in gc.get_objects())


def test_fresh_equal_systems_leave_nothing_on_a_lasting_cover():
    M, pair = mv.named_cover("torus", "cylinders")
    signs = random_sign_cocycle(M, seed=5)

    def check():
        G = sign_system(M, Z, signs)
        assert mv.mv_homology(pair, G).all_exact
        assert mv.mv_cohomology(pair, G).all_exact
        assert mv.splitting_holds(pair, G)

    check()   # fills the memos of the complex: the relative coordinates
    gc.collect()
    alive = live_mv_spaces()
    tracemalloc.start()
    try:
        for _ in range(6):
            check()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one set of spaces is about 75 KB
    assert retained < 20_000, retained
    assert live_mv_spaces() == alive
    assert not hasattr(pair, "_cache")


def test_dropped_unequal_systems_leave_nothing_on_a_lasting_cover():
    # unequal systems build unequal rows, which the complex's table would
    # keep for the complex's life were it the table of every system
    M, pair = mv.named_cover("torus", "cylinders")
    cocycles = [random_sign_cocycle(M, seed) for seed in range(7)]
    assert len({tuple(sorted(c.items())) for c in cocycles}) == 7

    def check(signs):
        G = sign_system(M, Z, signs)
        assert mv.mv_homology(pair, G).all_exact
        assert mv.mv_cohomology(pair, G).all_exact
        assert mv.splitting_holds(pair, G)

    check(cocycles[0])   # fills the memos of the complex
    gc.collect()
    alive, rows = live_mv_spaces(), len(row_table(M))
    tracemalloc.start()
    try:
        for signs in cocycles[1:]:
            check(signs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 20_000, retained
    assert live_mv_spaces() == alive
    assert len(row_table(M)) == rows


def test_a_passing_system_keeps_its_rows_off_its_complex():
    M = fresh("klein")
    assert verify_duality(M, orientation_system(M, Z), Z).all_verified
    kept = dict(row_table(M))
    H = sign_system(M, Z, random_sign_cocycle(M, seed=5))
    assert verify_duality(M, H, Z).all_verified
    assert row_table(H) is not row_table(M) and row_table(H)
    assert row_table(M) == kept


def test_a_lasting_system_shares_spaces_among_equal_covers(monkeypatch):
    built = []
    init = mv._MVSpaces.__init__

    def counting(self, pair, G):
        built.append(pair)
        init(self, pair, G)

    monkeypatch.setattr(mv._MVSpaces, "__init__", counting)
    _, named = mv.named_cover("torus", "cylinders")
    M = fresh("torus")
    G = constant_system(M, Z)
    reports = []
    for _ in range(5):
        A, B = (Subcomplex(M, piece.faces(2)) for piece in (named.A, named.B))
        pair = mv.CoverPair(M, A, B)
        reports.append((mv.mv_homology(pair, G).exactness,
                        mv.mv_cohomology(pair, G).exactness))
    assert len(built) == 1
    assert reports == [reports[0]] * 5 and all(map(all, reports[0]))


def banded_grid(twisted, n, seed):
    """A relabelled n x n grid Klein bottle (twisted) or torus, and its cover
    by the bands of columns 0..n/2 and n/2..n-1,0, which meet in two
    annuli."""
    perm = list(range(n * n))
    random.Random(seed).shuffle(perm)
    cells = {xy: [tuple(sorted(perm[v] for v in t)) for t in pair] for xy, pair
             in complexes._grid_cells(n, n, twisted).items()}
    M = SimplicialComplex(n * n, [t for pair in cells.values() for t in pair])
    h = n // 2
    A = Subcomplex(M, [t for (x, _), p in cells.items() if x <= h for t in p])
    B = Subcomplex(M, [t for (x, _), p in cells.items()
                       if x >= h or x == 0 for t in p])
    return M, mv.CoverPair(M, A, B)


def first_splitting(pair, G):
    inter = pair_complex(pair.X, G, pool=pair.AB)
    alpha = [G.ring.zero] * inter.length(1)
    alpha[0] = G.ring.one
    return mv.mv_splitting(pair, G, 1, tuple(alpha))


def duality(system, ring):
    def check(M, pair):
        G = (random_flat_system(M, ring, 2, 7) if system == "random-flat"
             else {"constant": constant_system,
                   "orientation": orientation_system}[system](M, ring))
        assert verify_duality(M, G, ring).all_verified
    return check


def mv_check(step):
    return lambda M, pair: step(pair, orientation_system(M, Z))


def cover_check(step):
    return lambda M, pair: step(covers.build_double_cover(
        M, orientation_system(M, Z)), Q)


# each kind of check the grid benchmark runs, on a complex and its cover
LIFETIME_CHECKS = {
    "validate": lambda M, pair: validate(M),
    **{f"duality-{system}-{ring}": duality(system, ring)
       for system in ("constant", "orientation", "random-flat")
       for ring in (Z, Zmod(3), Q)},
    "mv_homology": mv_check(mv.mv_homology),
    "mv_cohomology": mv_check(mv.mv_cohomology),
    "mv_splitting": mv_check(first_splitting),
    "build_double_cover": cover_check(lambda cover, ring: cover),
    "split_maps": cover_check(covers.split_maps),
    "check_split_exactness": cover_check(
        lambda cover, ring: covers.check_split_exactness(
            covers.split_maps(cover, ring))),
    "phi_identify": cover_check(covers.phi_identify),
}


@pytest.mark.parametrize("twisted", [True, False], ids=["klein", "torus"])
@pytest.mark.parametrize("kind", LIFETIME_CHECKS)
def test_a_dropped_complex_is_freed_without_the_collector(kind, twisted):
    gc.collect()
    gc.disable()
    try:
        M, pair = banded_grid(twisted, 4, seed=len(kind))
        LIFETIME_CHECKS[kind](M, pair)
        ref = weakref.ref(M)
        del M, pair
        alive = ref() is not None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({type(o).__qualname__ for o in gc.garbage
                         if type(o).__module__.startswith("twistcap")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not alive and cyclic == []


def _cover_of(M):
    return covers.build_double_cover(M, orientation_system(M, Z))


# (object derived from a complex M, attribute naming what it derives from);
# nothing but the object is kept, so dropping M drops what it names
WEAK_READS = {
    "LocalSystem.base": lambda M: (orientation_system(M, Z), "base"),
    "PairComplex.base": lambda M: (
        pair_complex(M, orientation_system(M, Z)), "base"),
    "PairComplex.system": lambda M: (
        pair_complex(M, orientation_system(M, Z)), "system"),
    "Subcomplex.ambient": lambda M: (closed_star(M, {0}), "ambient"),
    "FullSubcomplex.ambient": lambda M: (FullSubcomplex(M, {0}), "ambient"),
    "CoverPair.X": lambda M: (mv.CoverPair(
        M, whole_subcomplex(M), whole_subcomplex(M)), "X"),
    "DoubleCover.base": lambda M: (_cover_of(M), "base"),
    "DoubleCover.cocycle": lambda M: (_cover_of(M), "cocycle"),
    "CoverOrientation.cover": lambda M: (
        covers.orient_cover(_cover_of(M)), "cover"),
    "SplitMaps.cover": lambda M: (covers.split_maps(_cover_of(M), Q), "cover"),
}


@pytest.mark.parametrize("kind", WEAK_READS)
def test_reading_what_a_dropped_owner_was_raises(kind):
    M = fresh("klein")
    derived, name = WEAK_READS[kind](M)
    del M
    with pytest.raises(TwistcapError, match="is gone"):
        getattr(derived, name)
