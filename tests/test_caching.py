"""Derived objects are memoized on their source and die with it; each
presented module factors a given matrix once; read-only checks build
nothing."""

import contextlib
import gc
import random
import sys
import weakref

import pytest

from twistcap import (cap, chains, complexes, covers, fpmodules, localsystems,
                      matrices, mv)
from twistcap.acceptance import (NONORIENTABLE, cap_identity_failures,
                                 phi_rows)
from twistcap.cap import boundary_identity_check, cap_setting, verify_duality
from twistcap.chains import pair_complex
from twistcap.cli import main
from twistcap.complexes import (CORPUS_NAMES, FullSubcomplex,
                                SimplicialComplex, Subcomplex, corpus)
from twistcap.covers import (SplitMaps, build_double_cover,
                             check_split_exactness, lemma2_check, split_maps)
from twistcap.errors import NotClosedPseudomanifold, NotInStar
from twistcap.fpmodules import (FPModule, ModuleMap, homology_presentation,
                                induced_map, is_isomorphism)
from twistcap.localsystems import (constant_system, is_trivializable,
                                   orientation_system, random_flat_system,
                                   random_sign_cocycle, sign_system, tensor,
                                   validate_flatness)
from twistcap.matrices import ExactMatrix, inverse
from twistcap.rings import Q, Z, Zmod


@contextlib.contextmanager
def collector_off():
    """The cycle collector off, after a full collection: what dies inside
    dies by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_factorizations(monkeypatch):
    """Smith-form calls through both names: matrices' own and the one
    fpmodules imports."""
    calls = count_calls(monkeypatch, matrices, "smith_normal_form")
    original = fpmodules.smith_normal_form

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fpmodules, "smith_normal_form", counting)
    return calls


def count_calls_under(monkeypatch, owner, name, caller):
    """The calls to owner.name made while the function `caller` runs."""
    calls = []
    original = getattr(owner, name)
    code = caller.__code__

    def counting(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_presentation_eliminations(monkeypatch):
    """The `_euclid_core` calls made while `homology_presentation` runs."""
    return count_calls_under(monkeypatch, matrices, "_euclid_core",
                             fpmodules.homology_presentation)


def fresh(name):
    """A copy of a corpus complex that shares no cache with the corpus."""
    return SimplicialComplex(corpus(name).vertex_count, corpus(name).facets)


def fresh_torus():
    return fresh("torus")


def fresh_cover(complex_name, cover_name):
    """A copy of a built-in cover on a copy of its complex, sharing no cache
    with them: the built-in covers last for the process."""
    M, pair = mv.named_cover(complex_name, cover_name)
    X = SimplicialComplex(M.vertex_count, M.facets)
    A, B = (Subcomplex(X, piece.faces(M.dimension))
            for piece in (pair.A, pair.B))
    assert (A, B) == (pair.A, pair.B)
    return X, mv.CoverPair(X, A, B)


def test_repeated_cap_trials_build_no_new_systems_or_pairs(monkeypatch):
    M = fresh_torus()
    G = random_flat_system(M, Zmod(3), 2, seed=1)
    Gp = orientation_system(M, Zmod(3))
    cap_identity_failures(M, G, random.Random(0), 5)
    GT = tensor(G, Gp)
    built = count_calls(monkeypatch, chains.PairComplex, "__init__")
    rng = random.Random(1)
    cochain_pc, chain_pc, _ = cap_setting(M, G, Gp)
    for _ in range(20):
        k = rng.randint(0, 2)
        n = rng.randint(k, 2)
        c = tuple(rng.randint(-3, 3) % 3 for _ in range(cochain_pc.length(k)))
        a = tuple(rng.randint(-3, 3) % 3 for _ in range(chain_pc.length(n)))
        assert boundary_identity_check(M, G, Gp, k, n, c, a)[0]
        assert tensor(G, Gp) is GT
    assert built == []


def test_pair_complexes_and_covers_die_with_their_system():
    # each of LocalSystem and DoubleCover is watched through a pair complex
    # that only it keeps alive; random flat systems live on their complex,
    # so the whole chain complex -> system -> pair complex is released, and
    # by reference counting alone: the collector is off until it is checked
    with collector_off():
        M = fresh_torus()
        G = random_flat_system(M, Z, 2, seed=4)
        omega = random_flat_system(M, Z, 1, seed=4)
        cover = build_double_cover(M, omega)
        assert build_double_cover(M, omega) is cover
        watched = [pair_complex(M, G),
                   pair_complex(M, tensor(G, orientation_system(M, Z))),
                   pair_complex(cover.total, constant_system(cover.total, Z))]
        refs = [weakref.ref(pc) for pc in watched]
        del M, G, omega, cover, watched
        assert [r() for r in refs] == [None, None, None]


def test_pair_complex_rejects_a_foreign_system_on_every_call():
    M = fresh_torus()
    G = constant_system(M, Z)
    pair_complex(M, G)
    with pytest.raises(Exception, match="different complex"):
        pair_complex(corpus("klein"), G)


def test_homology_presentation_factors_two_matrices(monkeypatch):
    M = fresh("rp2")
    pc = pair_complex(M, constant_system(M, Z))
    d_in, d_out = pc.boundary(2), pc.boundary(1)
    calls = count_factorizations(monkeypatch)
    pres = homology_presentation(d_in, d_out)
    assert pres.module.normal_form == (0, (2,))
    assert len(calls) == 2
    assert len({A for (A,) in calls}) == 2
    assert calls[0] == (d_out,)


def test_no_zero_by_zero_matrix_is_factored(monkeypatch):
    # zero chain groups, zero kernels, direct sums of zero modules and the
    # images of maps between them meet 0 x 0 matrices, each its own Smith
    # form with empty logs
    M, pair = fresh_cover("torus", "cylinders")
    G = constant_system(M, Z)
    calls = count_factorizations(monkeypatch)
    reports = (mv.mv_homology(pair, G), mv.mv_cohomology(pair, G))
    assert all(report.all_exact for report in reports)
    assert calls
    for ring in (Z, Zmod(4), Q):
        empty = ExactMatrix.zeros(ring, 0, 0)
        snf = matrices.SmithSolver(empty).snf
        assert snf.verify(empty) and snf.kernel_positions == ()
        pres = homology_presentation(empty, empty)
        assert pres.module.normal_form == (0, ())
    assert [A for (A,) in calls if not A.rows or not A.cols] == []


def record_transform_builds(monkeypatch):
    """(decomposition, name) for each whole transform, U or V, that a Smith
    decomposition builds from its logs: every read of either builds it."""
    built = []
    cls = matrices.SmithDecomposition
    for name in ("U", "V"):
        whole = cls.__dict__[name]

        def read(self, whole=whole, name=name):
            built.append((self, name))
            return whole.__get__(self, type(self))

        monkeypatch.setattr(cls, name, property(read))
    return built


def record_factorizations(monkeypatch):
    """The decompositions smith_normal_form returns inside fpmodules."""
    made = []
    original = fpmodules.smith_normal_form

    def recording(A):
        made.append(original(A))
        return made[-1]

    monkeypatch.setattr(fpmodules, "smith_normal_form", recording)
    return made


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q], ids=str)
@pytest.mark.parametrize("name", ["rp2", "klein"])
def test_a_presentation_builds_only_v_inverse_of_d_out(monkeypatch, ring,
                                                       name):
    # the transform rows and columns a presentation keeps, the kernel rows
    # of V^-1 of d_out among them, are read off the logs, so it builds no
    # whole transform (the name predates the read of V^-1 off its log and
    # is kept so that the test keeps its id)
    M = fresh(name)
    pc = pair_complex(M, orientation_system(M, ring))
    for k in range(3):
        d_in, d_out = pc.boundary(k + 1), pc.boundary(k)
        asked = count_calls(monkeypatch, fpmodules, "_smith_form")
        made = record_factorizations(monkeypatch)
        built = record_transform_builds(monkeypatch)
        pres = homology_presentation(d_in, d_out)
        # d_out and the raw relations, each factored unless it has no rows
        # or no columns, when it is its own Smith form
        assert len(asked) == 2 and asked[0][0] is d_out
        assert len(made) == sum(1 for (A,) in asked if A.rows and A.cols)
        assert built == []
        assert pres.class_matrix(pres.cycles) == ExactMatrix.identity(
            ring, pres.module.generator_count)
        monkeypatch.undo()


def test_a_first_duality_and_mv_triple_build_no_whole_transform(
        monkeypatch):
    # every solve reads U @ B and V @ Y off the logs, so neither the
    # zero-class tests of a duality nor exactness and isomorphism checks
    # build U or V
    built = record_transform_builds(monkeypatch)
    isos = count_calls(monkeypatch, cap, "is_isomorphism")
    exact = count_calls(monkeypatch, mv, "is_exact_at")
    M = fresh("klein")
    G = random_flat_system(M, Zmod(3), 2, seed=1)
    assert verify_duality(M, G, Zmod(3)).all_verified
    M, pair = mv.named_cover("torus", "cylinders")
    G = random_flat_system(M, Z, 2, seed=7)
    reports = (mv.mv_homology(pair, G), mv.mv_cohomology(pair, G))
    assert all(report.all_exact for report in reports)
    assert mv.splitting_holds(pair, G)
    assert isos and exact and built == []


def test_repeated_duality_presents_nothing_again(monkeypatch):
    # the first duality presents each ladder, the cohomology of G and the
    # homology of G (x) M_R, once, every degree; the second reads the
    # presentations off the two pair complexes' memos
    M = fresh("klein")
    G = random_flat_system(M, Zmod(3), 2, seed=1)
    presented = count_calls(monkeypatch, chains, "homology_presentation")
    eliminations = count_presentation_eliminations(monkeypatch)
    first = verify_duality(M, G, Zmod(3))
    assert len(presented) == 2 * (M.dimension + 1) and eliminations
    del presented[:], eliminations[:]
    second = verify_duality(M, G, Zmod(3))
    assert presented == [] and eliminations == []
    assert all(a.left is b.left and a.right is b.right
               for a, b in zip(first.rows, second.rows))
    assert ([row.certificate_hash() for row in second.rows]
            == [row.certificate_hash() for row in first.rows])


def test_a_first_duality_factors_no_d_out(monkeypatch):
    # Klein 8x8 over Z: the parent factored 11 matrices, d_1, d_2, delta_0
    # and delta_1 among them; each ladder now reads every kernel off the
    # relations of the degree before, so it factors only relations, R_0
    # and R_1 of the homology and R_2 and R_1 of the cohomology, and the
    # three duality maps factor their images
    M = complexes._grid_klein(8, 8)
    G = constant_system(M, Z)
    eliminations = count_calls(monkeypatch, matrices, "_euclid_core")
    presenting = count_presentation_eliminations(monkeypatch)
    assert verify_duality(M, G, Z).all_verified
    assert len(eliminations) == 11 - 4
    assert len(presenting) == 4


def test_repeated_mv_sequences_present_nothing_again(monkeypatch):
    M, pair = mv.named_cover("torus", "cylinders")
    G = random_flat_system(M, Z, 2, seed=7)
    first = (mv.mv_homology(pair, G), mv.mv_cohomology(pair, G))
    assert all(report.all_exact for report in first)
    calls = count_presentation_eliminations(monkeypatch)
    second = (mv.mv_homology(pair, G), mv.mv_cohomology(pair, G))
    assert calls == []
    assert all(report.all_exact for report in second)


def test_an_equal_but_distinct_d_in_is_presented_afresh(monkeypatch):
    # a lone presentation is not memoized: each call factors d_out and the
    # relations again, and the pair complex's own presentation stays
    M = fresh("rp2")
    pc = pair_complex(M, constant_system(M, Z))
    d_in, d_out = pc.boundary(2), pc.boundary(1)
    kept = pc.homology(1)
    first = homology_presentation(d_in, d_out)
    twin = ExactMatrix._from_rows(Z, d_in.sparse_rows, d_in.cols)
    assert twin == d_in and twin is not d_in
    calls = count_presentation_eliminations(monkeypatch)
    second = homology_presentation(twin, d_out)
    assert len(calls) == 2
    assert second is not first and second.d_in is twin
    assert second.class_matrix(first.cycles) == first.class_matrix(first.cycles)
    assert homology_presentation(twin, d_out) is not second
    assert len(calls) == 4
    assert pc.homology(1) is kept


def test_presentations_die_with_their_pair_complex():
    # the whole chain complex -> system -> pair complex -> presentation is
    # released, since random flat systems live on their complex, and by
    # reference counting alone
    with collector_off():
        M = fresh_torus()
        G = random_flat_system(M, Z, 2, seed=4)
        pc = pair_complex(M, G)
        pres = pc.homology(1)
        assert pc.homology(1) is pres
        refs = [weakref.ref(pc), weakref.ref(pres)]
        del M, G, pc, pres
        assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("ring", [Z, Zmod(4), Q], ids=str)
def test_induced_map_factors_nothing(monkeypatch, ring):
    M = corpus("klein")
    pc = pair_complex(M, constant_system(M, ring))
    pres = [homology_presentation(pc.boundary(k + 1), pc.boundary(k))
            for k in range(3)]
    calls = count_factorizations(monkeypatch)
    solvers = count_calls(monkeypatch, matrices.SmithSolver, "__init__")
    for k, p in enumerate(pres):
        f = ExactMatrix.identity(ring, pc.length(k)).scale(ring.from_int(3))
        assert induced_map(f, p, p).matrix.rows == p.module.generator_count
    assert calls == [] and solvers == []


def test_fpmodule_factors_its_relations_once(monkeypatch):
    relations = ExactMatrix(Z, [[2, 0], [0, 3]])
    calls = count_calls(monkeypatch, matrices, "smith_normal_form")
    module = FPModule(Z, 2, relations)
    assert module.normal_form == (0, (6,))
    assert calls == [(relations,)]


def test_is_isomorphism_factors_the_stacked_matrix_once(monkeypatch):
    source = FPModule(Z, 1, ExactMatrix(Z, [[4]]))
    target = FPModule(Z, 1, ExactMatrix(Z, [[4]]))
    f = ModuleMap(source, target, ExactMatrix(Z, [[3]]))
    calls = count_calls(monkeypatch, matrices, "smith_normal_form")
    assert is_isomorphism(f).isomorphism
    assert len(calls) == 1


def test_is_isomorphism_solves_as_often_for_every_target_size(monkeypatch):
    solves = [count_calls(monkeypatch, matrices.SmithSolver, name)
              for name in dir(matrices.SmithSolver) if name.startswith("solve")]
    counts = []
    for n in (1, 3, 6):
        module = FPModule(Z, n + 1, ExactMatrix(Z, [[4]] + [[0]] * n))
        shear = ExactMatrix(Z, [[int(j >= i) for j in range(n + 1)]
                                for i in range(n + 1)])
        for calls in solves:
            calls.clear()
        assert is_isomorphism(ModuleMap(module, module, shear)).isomorphism
        counts.append(sum(map(len, solves)))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_is_isomorphism_reads_the_cokernel_witness_off_u_inverse(monkeypatch):
    module = FPModule(Z, 2)
    # [[1, 0], [0, 2]] would be its own Smith form, factored by nobody
    f = ModuleMap(module, module, ExactMatrix(Z, [[2, 0], [0, 1]]))
    calls = count_calls(monkeypatch, matrices, "smith_normal_form")
    result = is_isomorphism(f)
    assert not result.isomorphism
    assert len(calls) == 1
    # the witness is a class outside the image of f
    stacked = ExactMatrix.hstack([f.matrix, module.relations])
    witness = ExactMatrix.from_columns(Z, [result.cokernel_witness], stacked.rows)
    assert matrices.SmithSolver(stacked).solve_matrix(witness) is None


def test_a_matrix_that_is_its_own_smith_form_is_not_factored(monkeypatch):
    calls = count_calls(monkeypatch, matrices, "_euclid_core")
    free = FPModule(Z, 3)
    assert ModuleMap(free, free, ExactMatrix.identity(Z, 3)).image_units() == 3
    module = FPModule(Z, 3, ExactMatrix.diagonal(Z, 3, [2, 4]))
    assert module.normal_form == (1, (2, 4))
    assert calls == []
    # a negative or out-of-order diagonal is factored, once
    for relations in ([[-2]], [[4, 0], [0, 2]]):
        module = FPModule(Z, len(relations), ExactMatrix(Z, relations))
        assert len(calls) == 1 and module.relations.rows == len(relations)
        calls.clear()


def test_is_isomorphism_reads_the_image_the_map_owns(monkeypatch):
    module = FPModule(Z, 2, ExactMatrix(Z, [[4], [0]]))
    f = ModuleMap(module, module, ExactMatrix(Z, [[3, 1], [0, 1]]))
    image = f.image
    calls = count_calls(monkeypatch, matrices, "smith_normal_form")
    assert is_isomorphism(f).isomorphism
    assert f.image is image and calls == []


def test_each_map_of_an_mv_sequence_is_factored_once(monkeypatch):
    # every interior node reads the images of its two maps, so each map
    # meets two nodes but is factored once (a fresh cover, since the
    # built-in one keeps its maps for the process)
    M, pair = fresh_cover("torus", "cylinders")
    solvers = count_calls_under(monkeypatch, matrices.SmithSolver, "__init__",
                                fpmodules.is_exact_at)
    report = mv.mv_homology(pair, constant_system(M, Z))
    assert report.all_exact
    assert len(solvers) == len(report.maps)


def test_a_warm_mv_triple_factors_only_map_images_and_sums(monkeypatch):
    M, pair = mv.named_cover("torus", "cylinders")
    G = constant_system(M, Z)

    def triple():
        return (mv.mv_homology(pair, G), mv.mv_cohomology(pair, G),
                mv.splitting_holds(pair, G))

    first = triple()
    calls = count_factorizations(monkeypatch)
    second = triple()
    # the induced maps, direct sums and end maps are memoized with their
    # images, so only the images of the 2 connecting maps of each sequence,
    # derived again on every call, are factored (26 before that memo: 20
    # map images and 6 direct sums)
    assert len(calls) == 4
    assert [r.exactness for r in second[:2]] == \
        [r.exactness for r in first[:2]]
    assert second[2] == first[2]


def test_relative_pairs_are_keyed_by_the_vertices_they_kill(monkeypatch):
    M = fresh("klein")
    G = constant_system(M, Z)
    first = chains.homology(M, G, 1, FullSubcomplex(M, {0, 1, 2}))
    built = count_calls(monkeypatch, complexes.Subcomplex, "__init__")
    assert chains.homology(M, G, 1, FullSubcomplex(M, [2, 1, 0])) is first
    assert built == []
    everything = FullSubcomplex(M, range(M.vertex_count))
    assert chains.relative_killed(M, everything) is None


def test_split_exactness_factors_nothing(monkeypatch):
    M = fresh("rp2")
    cover = build_double_cover(M, orientation_system(M, Z))
    split = split_maps(cover, Z)
    calls = count_factorizations(monkeypatch)
    verdicts = check_split_exactness(split)
    assert all(v["seq1"] and v["seq2"] for v in verdicts.values())
    assert calls == []
    # the verdicts are memoized on the splitting, which is memoized on the
    # cover
    assert check_split_exactness(split_maps(cover, Z)) is verdicts
    assert calls == []


def test_a_replaced_splitting_is_checked_afresh(monkeypatch):
    M = fresh("rp2")
    split = split_maps(build_double_cover(M, orientation_system(M, Z)), Z)
    verdicts = check_split_exactness(split)
    twin = SplitMaps(split.cover, split.ring, split.K, split.degrees)
    calls = count_calls(monkeypatch, covers, "_split_exact")
    assert check_split_exactness(twin) == verdicts
    assert len(calls) == 2 * len(split.degrees)
    assert check_split_exactness(split) is verdicts


def test_a_failed_exactness_check_memoizes_nothing(monkeypatch):
    M = fresh("rp2")
    split = split_maps(build_double_cover(M, orientation_system(M, Z)), Z)
    degrees = []
    original = covers._split_exact

    def failing_in_the_last_degree(*args):
        degrees.append(None)
        if len(degrees) > 2 * (len(split.degrees) - 1):
            raise RuntimeError("interrupted")
        return original(*args)

    monkeypatch.setattr(covers, "_split_exact", failing_in_the_last_degree)
    with pytest.raises(RuntimeError, match="interrupted"):
        check_split_exactness(split)
    assert split._cache == {}
    monkeypatch.setattr(covers, "_split_exact", original)
    verdicts = check_split_exactness(split)
    assert sorted(verdicts) == sorted(split.degrees)


def test_is_trivializable_inverts_nothing_and_builds_no_system(monkeypatch):
    systems = []
    for name in CORPUS_NAMES:
        M = corpus(name)
        systems += [orientation_system(M, Z), random_flat_system(M, Z, 2, 5)]
    inverted = count_calls(monkeypatch, localsystems, "inverse")
    built = count_calls(monkeypatch, localsystems.LocalSystem, "__init__")
    verdicts = [is_trivializable(G) for G in systems]
    assert inverted == [] and built == []
    assert [ok for ok, _ in verdicts[0::2]] == \
        [name not in NONORIENTABLE for name in CORPUS_NAMES]
    for G, (ok, gauge) in zip(systems, verdicts):
        if ok:
            ident = ExactMatrix.identity(Z, G.rank)
            gauged = localsystems.gauge_transform(G, gauge)
            assert all(T == ident for _, T in gauged.edge_items())


def test_mv_spaces_and_transfers_are_built_once_per_cover(monkeypatch):
    M, pair = fresh_cover("torus", "cylinders")
    G = constant_system(M, Z)
    spaces = count_calls(monkeypatch, mv._MVSpaces, "__init__")
    built = count_calls(monkeypatch, mv, "transfer_matrix")
    assert mv.mv_homology(pair, G).all_exact
    assert mv.mv_cohomology(pair, G).all_exact
    assert mv.splitting_holds(pair, G)
    assert len(spaces) == 1
    assert built and len(built) == len(set(built))


def test_row_maps_are_built_once_and_signed_once():
    M, pair = mv.named_cover("torus", "cylinders")
    sp = mv._mv_spaces(pair, constant_system(M, Z))
    # the minus sign sits on the B part of the map at the intersection node:
    # out of it in the homology row, into it in the cohomology row
    into, out = sp.row_maps(sp.inter, sp.whole, 1)
    assert into[1] == -sp.transfer(sp.inter, sp.right, 1)
    assert out[1] is sp.transfer(sp.right, sp.whole, 1)
    into, out = sp.row_maps(sp.whole, sp.inter, 1)
    assert out[1] == -sp.transfer(sp.right, sp.inter, 1)
    assert into[1] is sp.transfer(sp.whole, sp.right, 1)
    for first, last in ((sp.inter, sp.whole), (sp.whole, sp.inter)):
        maps, again = sp.row_maps(first, last, 1), sp.row_maps(first, last, 1)
        assert all(a is b for a, b in zip(maps[0] + maps[1],
                                          again[0] + again[1]))


def test_phi_identify_factors_nothing(monkeypatch):
    # a cover holds its base weakly, so the test keeps the fresh complexes
    bases = [fresh(name) for name in ("sphere2", "rp2", "klein")]
    built = [build_double_cover(M, orientation_system(M, Z)) for M in bases]
    calls = count_factorizations(monkeypatch)
    for cover in built:
        for ring in (Z, Zmod(3), Q):
            for K in (None, FullSubcomplex(cover.base, {0})):
                phi = covers.phi_identify(cover, ring, K)
                assert phi.boundary_commutes and phi.degreewise_iso
    assert calls == []


def test_mv_sequences_factor_no_zero_module(monkeypatch):
    # the zero modules at both ends of each sequence have nothing to factor
    M, pair = mv.named_cover("torus", "cylinders")
    G = constant_system(M, Z)
    calls = count_factorizations(monkeypatch)
    per_zero_module = []
    original = mv._zero_module

    def counting(ring):
        before = len(calls)
        module = original(ring)
        per_zero_module.append(len(calls) - before)
        return module

    monkeypatch.setattr(mv, "_zero_module", counting)
    assert mv.mv_homology(pair, G).all_exact
    assert mv.mv_cohomology(pair, G).all_exact
    assert calls and per_zero_module
    assert not any(per_zero_module)


def test_mv_spaces_die_with_their_system():
    # the built-in cover lasts for the process and keeps nothing of the
    # systems it is asked about; the spaces, with every memo on them, die
    # by reference counting alone
    M, pair = mv.named_cover("octahedron", "hemispheres")
    with collector_off():
        G = sign_system(M, Z, {e: 1 for e in M.faces(1)})
        mv.mv_homology(pair, G)
        mv.mv_cohomology(pair, G)
        assert mv.splitting_holds(pair, G)
        [spaces] = [v for v in G._cache.values()
                    if isinstance(v, mv._MVSpaces)]
        ref = weakref.ref(spaces)
        del G, spaces
        assert ref() is None
    assert not hasattr(pair, "_cache")


def test_phi_rows_build_each_splitting_once(monkeypatch):
    M = fresh("klein")
    built = count_calls(monkeypatch, covers, "deck_chain_matrix")
    rows = list(phi_rows(M, Z))
    assert all(ok for _, ok, _ in rows)
    assert len(built) == 6   # 3 degrees for each of the 2 K choices
    # a second call reads the splittings and their verdicts off the cover
    del built[:]
    calls = count_factorizations(monkeypatch)
    assert list(phi_rows(M, Z)) == rows
    assert built == [] and calls == []


def test_lemma2_presents_the_cover_homology_once(monkeypatch):
    # the cover's and the base's top homology, each read off its pair
    # complex's ladder, which presents every degree once
    M = fresh("rp2")
    presented = count_calls(monkeypatch, chains, "homology_presentation")
    assert lemma2_check(M, Z)
    assert len(presented) == 2 * (M.dimension + 1)
    assert lemma2_check(M, Z)
    assert len(presented) == 2 * (M.dimension + 1)


def test_random_flat_system_builds_one_system(monkeypatch):
    M = fresh_torus()
    inverted = count_calls(monkeypatch, localsystems, "inverse")
    built = count_calls(monkeypatch, localsystems.LocalSystem, "__init__")
    random_flat_system(M, Z, 2, seed=3)
    assert len(built) == 1
    assert inverted == []   # each gauge comes with its inverse


def test_random_flat_systems_are_memoized_on_their_complex():
    M = fresh_torus()
    G = random_flat_system(M, Z, 2, seed=3)
    assert random_flat_system(M, Z, 2, seed=3) is G
    assert random_flat_system(M, Z, 1, seed=3) is random_flat_system(M, Z, 1, 3)
    others = [random_flat_system(M, Zmod(3), 2, seed=3),
              random_flat_system(M, Z, 3, seed=3),
              random_flat_system(M, Z, 2, seed=4),
              random_flat_system(fresh_torus(), Z, 2, seed=3)]
    assert all(H is not G for H in others)
    assert len({id(H) for H in others}) == len(others)
    with pytest.raises(Exception, match="rank must be positive"):
        random_flat_system(M, Z, 0, seed=3)


@pytest.mark.parametrize("argv", [
    ("phi-check", "--complex", "klein", "--ring", "Z/3"),
    ("diagram6", "--config", "sphere"),
    ("diagram6", "--config", "sphere", "--system", "random-flat:3:2"),
], ids=" ".join)
def test_a_repeated_command_factors_nothing(monkeypatch, capsys, argv):
    first = main(list(argv)), capsys.readouterr().out
    assert first[0] == 0
    calls = count_factorizations(monkeypatch)
    built = count_calls(monkeypatch, localsystems.LocalSystem, "__init__")
    assert (main(list(argv)), capsys.readouterr().out) == first
    assert calls == [] and built == []


def test_a_repeated_random_flat_duality_factors_only_its_iso_checks(
        monkeypatch, capsys):
    # the system, its pair complexes, presentations and duality maps are
    # reused; each degree's is_isomorphism still runs, on the image its
    # memoized map owns, so nothing is factored (one factorization per
    # degree before the duality maps were memoized)
    argv = ["verify-duality", "--complex", "klein", "--system",
            "random-flat:5:2", "--ring", "Z/3"]
    first = main(argv), capsys.readouterr().out
    assert first[0] == 0
    calls = count_factorizations(monkeypatch)
    built = count_calls(monkeypatch, localsystems.LocalSystem, "__init__")
    isos = count_calls(monkeypatch, cap, "is_isomorphism")
    assert (main(argv), capsys.readouterr().out) == first
    assert built == []
    assert len(calls) == 0
    assert len(isos) == corpus("klein").dimension + 1


def assert_reverses_are_inverses(G):
    for u, v in G.base.faces(1):
        assert G.transport(v, u) == inverse(G.transport(u, v))


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Q], ids=str)
def test_sign_systems_invert_nothing(monkeypatch, ring):
    fresh = [SimplicialComplex(corpus(name).vertex_count, corpus(name).facets)
             for name in CORPUS_NAMES]
    inverted = count_calls(monkeypatch, localsystems, "inverse")
    systems = []
    for M in fresh:
        omega = orientation_system(M, ring)
        cover = build_double_cover(M, omega)
        systems += [omega, covers.cover_sign_system(cover, ring),
                    random_flat_system(M, ring, 1, seed=2)]
    assert inverted == []
    for G in systems:
        assert_reverses_are_inverses(G)


@pytest.mark.parametrize("ring", [Z, Zmod(2), Zmod(3), Q], ids=str)
def test_sign_systems_share_one_matrix_per_sign(ring):
    M = fresh("klein")
    signs = random_sign_cocycle(M, seed=1)
    assert set(signs.values()) == {1, -1}
    G = sign_system(M, ring, signs)
    by_sign = {}
    for e, sign in signs.items():
        assert G.transport(*e) is by_sign.setdefault(sign, G.transport(*e))
    assert by_sign[1] is not by_sign[-1]


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Q], ids=str)
def test_gauged_systems_invert_only_their_gauges(monkeypatch, ring):
    # a random gauge comes with its inverse; gauge_transform inverts the
    # gauge it is given
    inverted = count_calls(monkeypatch, localsystems, "inverse")
    ident = ExactMatrix.identity(ring, 2)
    for name in CORPUS_NAMES:
        M = corpus(name)
        del inverted[:]
        G = random_flat_system(M, ring, 2, seed=2)
        assert inverted == []
        rng = random.Random(name)
        pairs = [localsystems._random_gauge_matrix(ring, 2, rng)
                 for _ in range(2)]
        assert all(g @ g_inv == ident == g_inv @ g for g, g_inv in pairs)
        gauge = {v: g for v, (g, _) in enumerate(pairs)}
        del inverted[:]
        gauged = localsystems.gauge_transform(G, gauge)
        assert len(inverted) == len(gauge)
        assert_reverses_are_inverses(G)
        assert_reverses_are_inverses(gauged)


def test_sign_cocycles_factor_the_incidence_once_per_complex(monkeypatch):
    M = fresh("klein")
    kernels = count_calls(monkeypatch, localsystems, "kernel")
    systems = [random_flat_system(M, ring, 2, seed=seed)
               for ring in (Z, Zmod(3)) for seed in (0, 1)]
    assert len(kernels) == 1
    for G in systems:
        assert validate_flatness(G) == (True, None)


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Q], ids=str)
def test_tensor_inverts_nothing(monkeypatch, ring):
    pairs = []
    for name in CORPUS_NAMES:
        M = corpus(name)
        G = random_flat_system(M, ring, 2, seed=2)
        pairs += [(G, orientation_system(M, ring)), (G, G)]
    inverted = count_calls(monkeypatch, localsystems, "inverse")
    products = [tensor(G, Gp) for G, Gp in pairs]
    assert inverted == []
    for (G, Gp), GT in zip(pairs, products):
        for u, v in G.base.faces(1):
            kron = G.transport(u, v).kron(Gp.transport(u, v))
            assert GT.transport(u, v) == kron
            assert GT.transport(v, u) == inverse(kron)


@pytest.mark.parametrize("argv", [
    ("check-mv", "--complex", "torus", "--cover", "cylinders", "--system",
     "random-flat:2:2", "--ring", "Z/3"),
    ("verify-duality", "--complex", "klein", "--system", "orientation"),
    ("diagram6", "--config", "torus", "--seed", "5"),
], ids=" ".join)
def test_a_repeated_command_builds_no_cover_spaces_or_maps(monkeypatch,
                                                           capsys, argv):
    # covers, their MV spaces, the sequences' maps and the duality maps are
    # built on the first run; a second prints the same bytes from them
    first = main(list(argv)), capsys.readouterr().out
    assert first[0] == 0
    covers_built = count_calls(monkeypatch, mv.CoverPair, "__init__")
    spaces = count_calls(monkeypatch, mv._MVSpaces, "__init__")
    induced = [count_calls(monkeypatch, module, "induced_map")
               for module in (mv, cap)]
    rederived = {"check-mv": count_calls(monkeypatch, mv, "is_exact_at"),
                 "verify-duality": count_calls(monkeypatch, cap,
                                               "is_isomorphism"),
                 "diagram6": count_calls(monkeypatch, mv, "_route_gaps")}
    assert (main(list(argv)), capsys.readouterr().out) == first
    assert covers_built == [] and spaces == [] and induced == [[], []]
    # the verdicts are derived again
    assert rederived[argv[0]]


def test_flatness_is_checked_once_per_system(monkeypatch):
    M, pair = fresh_cover("torus", "cylinders")
    G = random_flat_system(M, Z, 2, seed=1)
    checked = count_calls(monkeypatch, chains, "validate_flatness")
    assert mv.mv_homology(pair, G).all_exact
    pair_complex(M, G, killed=FullSubcomplex(M, {0}))
    assert verify_duality(M, G, Z).all_verified
    # the MV spaces alone hold five pair complexes of G; the duality adds
    # pair complexes of G (x) M_R and of M_R
    assert [system for (system,) in checked].count(G) == 1
    assert len(checked) == len({id(system) for (system,) in checked})


def test_a_non_flat_system_raises_on_every_pair_complex(monkeypatch):
    M = fresh("rp2")
    transport = dict(orientation_system(M, Z).edge_items())
    edge = M.faces(1)[3]
    transport[edge] = transport[edge].scale(-1)
    bad = localsystems.LocalSystem(M, Z, 1, transport)
    checked = count_calls(monkeypatch, chains, "validate_flatness")
    for killed in (None, None, FullSubcomplex(M, {0}), None):
        with pytest.raises(chains.FlatnessViolation, match="not flat"):
            pair_complex(M, bad, killed=killed)
    assert len(checked) == 1
    assert not any(key[0] == "pair_complex" for key in bad._cache
                   if isinstance(key, tuple))


def test_duality_maps_die_with_their_system():
    with collector_off():
        M = fresh("klein")
        G = random_flat_system(M, Zmod(3), 2, seed=1)
        first = verify_duality(M, G, Zmod(3))
        again = verify_duality(M, G, Zmod(3))
        assert [row.map for row in again.rows] == \
            [row.map for row in first.rows]
        assert all(a.map is b.map for a, b in zip(first.rows, again.rows))
        refs = [weakref.ref(row.map) for row in first.rows]
        del M, G, first, again
        assert [r() for r in refs] == [None] * 3


def test_a_rebuilt_presentation_gets_a_new_duality_map():
    M = fresh("torus")
    G = constant_system(M, Z)
    first = verify_duality(M, G, Z)
    pc = pair_complex(M, G)
    before = pc.cohomology(1)
    # dropping the pair complex's memo of its cohomology ladder makes it
    # present every degree afresh, so each duality map is induced again
    # between the new presentations, with the same report
    del pc._cache["cohomology"]
    second = verify_duality(M, G, Z)
    assert pc.cohomology(1) is not before
    assert not any(a.map is b.map for a, b in zip(first.rows, second.rows))
    assert list(second.table()) == list(first.table())


def test_mv_sequence_maps_die_with_their_system():
    M, pair = mv.named_cover("torus", "cylinders")
    with collector_off():
        G = sign_system(M, Z, random_sign_cocycle(M, seed=5))
        first = mv.mv_homology(pair, G)
        second = mv.mv_homology(pair, G)
        # every map but the connecting maps is the memoized one
        same = [a is b for a, b in zip(first.maps, second.maps)]
        assert same == [True, True, True, False, True, True, False, True,
                        True, True]
        refs = [weakref.ref(f) for f in first.maps]
        del G, first, second
        assert [r() for r in refs] == [None] * len(refs)


def test_diagram6_covers_die_with_their_complex():
    cfg = mv.named_diagram6("sphere")
    with collector_off():
        M = SimplicialComplex(cfg["complex"].vertex_count,
                              cfg["complex"].facets)
        U, V = (Subcomplex(M, cfg[name].faces(2)) for name in ("U", "V"))
        K, L = (FullSubcomplex(M, cfg[name].vertex_subset)
                for name in ("K", "L"))
        G = constant_system(M, Z)
        first = mv.diagram6_check(M, U, V, K, L, G, Z)
        built = [key for key in M._cache if key[0] == "diagram6_covers"]
        assert len(built) == 1
        covers = M._cache[built[0]]
        assert mv.diagram6_check(M, U, V, K, L, G, Z) == first
        assert M._cache[built[0]] is covers
        refs = [weakref.ref(pair) for pair in covers]
        del M, U, V, K, L, G, covers, built
        assert [r() for r in refs] == [None, None]


def test_named_configurations_are_built_once():
    M, pair = mv.named_cover("klein", "cylinders")
    assert mv.named_cover("klein", "cylinders") == (M, pair)
    assert mv.named_cover("klein", "cylinders")[1] is pair
    cfg = mv.named_diagram6("klein")
    again = mv.named_diagram6("klein")
    assert again is not cfg
    assert all(again[name] is cfg[name] for name in cfg)


def test_a_system_file_read_again_builds_nothing(tmp_path, monkeypatch,
                                                 capsys):
    # the built-in cover lasts for the process and keeps MV spaces per
    # system, so a system file's system is memoized on its complex by text
    # rather than built, and held by the cover, once per run
    path = tmp_path / "omega.sys"
    path.write_text(localsystems.dumps_local_system(
        orientation_system(corpus("torus"), Zmod(3))))
    argv = ["check-mv", "--complex", "torus", "--cover", "cylinders",
            "--system", str(path), "--ring", "Z/3"]
    first = main(argv), capsys.readouterr().out
    assert first[0] == 0
    built = count_calls(monkeypatch, localsystems.LocalSystem, "__init__")
    spaces = count_calls(monkeypatch, mv._MVSpaces, "__init__")
    assert (main(argv), capsys.readouterr().out) == first
    assert built == [] and spaces == []


def test_a_rebuilt_presentation_gets_new_sequence_maps():
    M, pair = fresh_cover("torus", "cylinders")
    G = constant_system(M, Z)
    first = mv.mv_homology(pair, G)
    whole = mv._mv_spaces(pair, G).whole
    # dropping the memo of H_*(X)'s ladder makes the sequence present every
    # degree of X afresh and induce every map again
    del whole._cache["homology"]
    second = mv.mv_homology(pair, G)
    assert second.all_exact and second.exactness == first.exactness
    assert not any(a is b for a, b in zip(first.maps, second.maps))
    third = mv.mv_homology(pair, G)
    assert all(a is b for a, b in zip(second.maps[:3], third.maps[:3]))


def test_a_failing_orientation_system_memoizes_nothing():
    disk = SimplicialComplex(4, [(0, 1, 2), (0, 2, 3)])
    for _ in range(2):
        with pytest.raises(NotClosedPseudomanifold):
            orientation_system(disk, Z)
    assert ("orientation_system", Z) not in disk._cache
    # what the build read on its way to the error stays memoized
    assert "report" in disk._cache


def test_a_star_sign_of_a_vertex_in_no_facet_memoizes_nothing():
    # vertex 3 lies only on the edge (2, 3), in no triangle
    M = SimplicialComplex(4, [(0, 1, 2), (2, 3)])
    for _ in range(2):
        with pytest.raises(NotInStar, match="vertex 3 lies in no facet"):
            complexes.star_signs(M, 3)
    assert ("star_signs", 3) not in M._cache
    assert complexes.star_signs(M, 0) == {(0, 1, 2): 1}
