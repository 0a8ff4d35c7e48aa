import random
from fractions import Fraction

import pytest

from twistcap.chains import pair_complex
from twistcap.complexes import CORPUS_NAMES, corpus
from twistcap.errors import CompositionNonzero, NotChainMap, TwistcapError
from twistcap.fpmodules import (FPModule, ModuleMap, homology_presentation,
                                induced_map, is_exact_at, is_isomorphism)
from twistcap.localsystems import (constant_system, orientation_system,
                                   random_flat_system)
from twistcap.matrices import (ExactMatrix, SmithSolver, inverse,
                               kernel_with_relations, smith_normal_form)
from twistcap.rings import Q, Z, Zmod

from oracles import RP2_FACETS, boundary_matrix


def imat(rows):
    return ExactMatrix(Z, rows)


def empty_in(ring, n):
    """No incoming boundaries: an n x 0 matrix."""
    return ExactMatrix.zeros(ring, n, 0)


def test_fpmodule_normal_forms():
    # Z^2 with relation 2*e0 -> Z + Z/2
    rel = imat([[2], [0]])
    m = FPModule(Z, 2, rel)
    assert m.normal_form == (1, (2,))
    assert str(m) == "Z + Z/2"
    assert m == FPModule(Z, 2, imat([[0], [2]]))

    trivial = FPModule(Z, 0)
    assert trivial.normal_form == (0, ()) and str(trivial) == "0"


def test_circle_h1_free_rank_one():
    rows, edges, _ = boundary_matrix([(0, 1), (1, 2), (0, 2)], 1)
    d1 = imat(rows)
    pres = homology_presentation(empty_in(Z, len(edges)), d1)
    assert pres.module.normal_form == (1, ())
    # the cycle basis really is a cycle
    cycle = pres.cycles.column(0)
    assert pres.class_vector(cycle) is not None


def test_both_zero_gives_free_rank():
    d_in = ExactMatrix.zeros(Z, 5, 2)
    d_out = ExactMatrix.zeros(Z, 3, 5)
    pres = homology_presentation(d_in, d_out)
    assert pres.module.normal_form == (5, ())


def test_rp2_h1_is_z2():
    rows2, tris, edges = boundary_matrix(RP2_FACETS, 2)
    rows1, _, verts = boundary_matrix(RP2_FACETS, 1)
    assert (len(edges), len(tris)) == (15, 10)
    assert (len(verts), len(edges)) == (6, 15)
    pres = homology_presentation(imat(rows2), imat(rows1))
    assert pres.module.normal_form == (0, (2,))


def test_composition_nonzero_rejected():
    d_in = imat([[1], [0]])
    d_out = imat([[1, 0]])
    with pytest.raises(CompositionNonzero):
        homology_presentation(d_in, d_out)


def test_induced_identity_and_doubling():
    rows, edges, _ = boundary_matrix([(0, 1), (1, 2), (0, 2)], 1)
    d1 = imat(rows)
    pres = homology_presentation(empty_in(Z, len(edges)), d1)

    ident = induced_map(ExactMatrix.identity(Z, 3), pres, pres)
    res = is_isomorphism(ident)
    assert res.isomorphism

    doubling = induced_map(ExactMatrix.identity(Z, 3).scale(2), pres, pres)
    res = is_isomorphism(doubling)
    assert not res.isomorphism
    assert res.cokernel_witness is not None
    # cokernel of multiplication by 2 on Z is Z/2: witness is an odd class
    stack = ExactMatrix.hstack([doubling.matrix, pres.module.relations])
    assert ExactMatrix.from_columns(
        Z, [res.cokernel_witness], 1).rows == 1


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q], ids=str)
def test_a_surjective_map_with_a_kernel_returns_its_kernel_witness(ring):
    # Z^2 -> Z by [1 1]: onto, so only the kernel test can refuse it
    source, target = FPModule(ring, 2), FPModule(ring, 1)
    f = ModuleMap(source, target, ExactMatrix(ring, [[1, 1]]))
    res = is_isomorphism(f)
    assert not res.isomorphism and res.cokernel_witness is None
    witness = res.kernel_witness
    assert not source.is_zero_class(witness)
    assert f.apply(witness) == (ring.zero,)


def test_inclusion_into_contractible_is_zero():
    circle_rows, edges, _ = boundary_matrix([(0, 1), (1, 2), (0, 2)], 1)
    disk2, _, disk_edges = boundary_matrix([(0, 1, 2)], 2)
    disk1, _, _ = boundary_matrix([(0, 1, 2)], 1)
    circle = homology_presentation(empty_in(Z, 3), imat(circle_rows))
    disk = homology_presentation(imat(disk2), imat(disk1))
    assert disk.module.normal_form == (0, ())
    incl = induced_map(ExactMatrix.identity(Z, 3), circle, disk)
    assert incl.is_zero()


def test_not_chain_map_detected():
    rows, _, _ = boundary_matrix([(0, 1), (1, 2), (0, 2)], 1)
    d1 = imat(rows)
    pres0 = homology_presentation(d1, ExactMatrix.zeros(Z, 0, 3))  # H_0 data
    pres1 = homology_presentation(empty_in(Z, 3), d1)
    bad = ExactMatrix(Z, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotChainMap):
        induced_map(bad, pres1, pres1)
    # sanity: H_0 of the circle is Z
    assert pres0.module.normal_form == (1, ())


def test_is_isomorphism_on_torsion_module():
    rel = imat([[2], [0]])
    m = FPModule(Z, 2, rel)
    ident = ModuleMap(m, m, ExactMatrix.identity(Z, 2))
    assert is_isomorphism(ident).isomorphism
    # tripling the free generator (e1) is injective but not surjective
    triple = ModuleMap(m, m, imat([[1, 0], [0, 3]]))
    assert not is_isomorphism(triple).isomorphism
    # tripling the torsion generator (e0, order 2) is the identity there
    assert is_isomorphism(ModuleMap(m, m, imat([[3, 0], [0, 1]]))).isomorphism


def test_is_isomorphism_modular_and_rational():
    ring = Zmod(6)
    m = FPModule(ring, 1)
    times5 = ModuleMap(m, m, ExactMatrix(ring, [[5]]))
    assert is_isomorphism(times5).isomorphism
    times2 = ModuleMap(m, m, ExactMatrix(ring, [[2]]))
    res = is_isomorphism(times2)
    assert not res.isomorphism

    mq = FPModule(Q, 2)
    f = ModuleMap(mq, mq, ExactMatrix(Q, [[1, 1], [0, 1]]))
    assert is_isomorphism(f).isomorphism


def test_exactness_checker():
    # 0 -> Z --2--> Z --proj--> Z/2 -> 0 is exact at the middle Z
    zmod2 = FPModule(Z, 1, imat([[2]]))
    free = FPModule(Z, 1)
    times2 = ModuleMap(free, free, imat([[2]]))
    proj = ModuleMap(free, zmod2, imat([[1]]))
    assert is_exact_at(times2, proj)
    times4 = ModuleMap(free, free, imat([[4]]))
    assert not is_exact_at(times4, proj)


def test_maps_compose_only_through_the_same_middle_module():
    # M1 and M2 are both Z, presented on different generators; f and g are
    # isomorphisms, yet g.matrix @ f.matrix is zero, so composing through a
    # merely equal middle module would give a wrong zero map
    M1 = FPModule(Z, 2, imat([[1], [0]]))
    M2 = FPModule(Z, 2, imat([[0], [1]]))
    free = FPModule(Z, 1)
    f = ModuleMap(free, M1, imat([[0], [1]]))
    g = ModuleMap(M2, free, imat([[1, 0]]))
    assert M1 == M2 and is_isomorphism(f) and is_isomorphism(g)
    for check in (lambda: g.compose(f), lambda: is_exact_at(f, g),
                  lambda: f.equals(ModuleMap(free, M2, f.matrix))):
        with pytest.raises(TwistcapError, match="composition mismatch"):
            check()


def test_vectors_of_the_wrong_length_are_rejected():
    rows, _, _ = boundary_matrix([(0, 1), (1, 2), (0, 2)], 1)
    pres = homology_presentation(empty_in(Z, 3), imat(rows))
    cycle = pres.cycles.column(0)
    assert pres.class_vector(cycle) is not None
    for chain in (cycle + (0,), cycle[:-1]):
        with pytest.raises(TwistcapError, match="length mismatch"):
            pres.class_vector(chain)
    assert pres.module.generator_count == 1
    for coords in ((0, 0), ()):
        with pytest.raises(TwistcapError, match="length mismatch"):
            pres.module.is_zero_class(coords)


def test_class_questions_check_and_normalize_the_callers_coordinates():
    mod5 = FPModule(Zmod(5), 1)
    assert mod5.is_zero_class([5])
    assert mod5.classes_equal([6], [1])
    for coords in ([Fraction(1, 2)], [0.5]):
        with pytest.raises(TwistcapError, match="not exact"):
            FPModule(Z, 1).is_zero_class(coords)


def test_a_map_is_zero_only_when_every_column_is():
    zmod2 = FPModule(Z, 1, imat([[2]]))
    free = FPModule(Z, 3)
    zero = ModuleMap(free, zmod2, imat([[2, 4, 6]]))
    last = ModuleMap(free, zmod2, imat([[2, 4, 1]]))
    assert zero.is_zero()
    assert not last.is_zero()
    assert zero.equals(ModuleMap(free, zmod2, imat([[0, 0, 0]])))
    assert not last.equals(zero)


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Q], ids=str)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_smith_basis_presentation(name, ring):
    """The presentation on the Smith basis against the raw one: one
    generator per kernel basis vector, relations the boundaries and the
    kernel torsion."""
    M = corpus(name)
    for G in (constant_system(M, ring), orientation_system(M, ring),
              random_flat_system(M, ring, 2, 0)):
        pc = pair_complex(M, G)
        for k in range(M.dimension + 1):
            d_in, d_out = pc.boundary(k + 1), pc.boundary(k)
            pres = homology_presentation(d_in, d_out)
            K, Krel = kernel_with_relations(d_out)
            X = SmithSolver(K).solve_matrix(d_in)
            raw = FPModule(ring, K.cols, ExactMatrix.hstack([X, Krel]))
            module = pres.module
            assert module.normal_form == raw.normal_form
            assert module.generator_count == \
                module.free_rank + len(module.torsion)
            g = module.generator_count
            for j in range(g):
                cycle = pres.cycles.column(j)
                assert pres.class_vector(cycle) is not None
                # over Z/m the coordinates are fixed only up to relations
                unit = [ring.one if i == j else ring.zero for i in range(g)]
                assert module.classes_equal(pres.class_vector(cycle), unit)
            if d_in.cols:
                boundary = d_in.apply([ring.from_int(i % 3 - 1)
                                       for i in range(d_in.cols)])
                assert module.is_zero_class(pres.class_vector(boundary))


# ---------------------------------------------------------------------------
# Cycle coordinates from V^-1 against the cycle-solver route they replaced
# ---------------------------------------------------------------------------

# A frozen copy of the route before cycle coordinates were read off V^-1: a
# cycle is solved for on the kernel basis of d_out by a factorization of
# that basis, and boundaries are checked by a factorization of the target's
# d_in.  Both routes share the presentation's coordinate map U[kept, :].

def frozen_class_vector(pres, chain):
    K, _ = kernel_with_relations(pres.d_out)
    x = SmithSolver(K).solve_matrix(
        ExactMatrix.from_columns(pres.ring, [chain], K.rows))
    return None if x is None else pres._coords.apply(x.column(0))


def frozen_induced_matrix(f_chain, src, dst):
    mapped_cycles = f_chain @ src.cycles
    if not (dst.d_out @ mapped_cycles).is_zero():
        raise NotChainMap("cycles do not map to cycles")
    if src.d_in.cols and SmithSolver(dst.d_in).solve_matrix(
            f_chain @ src.d_in) is None:
        raise NotChainMap("boundaries do not map to boundaries")
    K, _ = kernel_with_relations(dst.d_out)
    X = SmithSolver(K).solve_matrix(mapped_cycles)
    if X is None:
        raise NotChainMap("mapped cycle escapes the target kernel")
    M = dst._coords @ X
    if dst.module._rel_solver.solve_matrix(M @ src.module.relations) is None:
        raise NotChainMap("relations do not map into relations")
    return M


@pytest.mark.parametrize("ring", [Z, Zmod(3), Zmod(4), Zmod(12), Q], ids=str)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cycle_coordinates_match_the_cycle_solver(name, ring):
    M = corpus(name)
    rng = random.Random(f"{name}/{ring}")
    for G in (constant_system(M, ring), orientation_system(M, ring),
              random_flat_system(M, ring, 2, 0)):
        pc = pair_complex(M, G)
        for k in range(M.dimension + 1):
            d_in, d_out = pc.boundary(k + 1), pc.boundary(k)
            pres = homology_presentation(d_in, d_out)
            module, n = pres.module, pres.chain_rank

            def small():
                return ring.from_int(rng.randint(-3, 3))

            # a random cycle: generator chains plus a boundary
            chain = pres.cycles.apply([small()
                                       for _ in range(pres.cycles.cols)])
            if d_in.cols:
                boundary = d_in.apply([small() for _ in range(d_in.cols)])
                chain = tuple(ring.normalize(x + y)
                              for x, y in zip(chain, boundary))
            assert module.classes_equal(pres.class_vector(chain),
                                        frozen_class_vector(pres, chain))
            # class_matrix is class_vector column by column
            chains = [chain, *pres.cycles.columns()]
            assert pres.class_matrix(ExactMatrix.from_columns(
                ring, chains, n)) == ExactMatrix.from_columns(
                    ring, [pres.class_vector(c) for c in chains],
                    module.generator_count)
            # a non-cycle: the cycle plus a chain with nonzero boundary
            for i in range(n):
                if any(d_out.column(i)):
                    off = list(chain)
                    off[i] = ring.normalize(off[i] + ring.one)
                    assert pres.class_vector(off) is None
                    assert frozen_class_vector(pres, off) is None
                    # one non-cycle among several columns is enough
                    assert pres.class_matrix(ExactMatrix.from_columns(
                        ring, [chain, off, chain], n)) is None
                    break
            # a chain map homotopic to s * identity: s + d_in @ h
            s = small()
            f = ExactMatrix.identity(ring, n).scale(s)
            if d_in.cols:
                h = [[ring.zero] * n for _ in range(d_in.cols)]
                for _ in range(3):
                    h[rng.randrange(d_in.cols)][rng.randrange(n)] = small()
                f = f + d_in @ ExactMatrix(ring, h)
            new_map = induced_map(f, pres, pres)
            old_map = ModuleMap(module, module,
                                frozen_induced_matrix(f, pres, pres))
            assert new_map.equals(old_map)
            ident = ExactMatrix.identity(ring, module.generator_count)
            scalar = ModuleMap(module, module, ident.scale(s))
            assert new_map.equals(scalar)


def test_boundary_to_a_nonzero_class_is_not_a_chain_map():
    # f = z (1, ..., 1) with z a generator cycle of H_1 of the torus: every
    # chain goes to a multiple of z, so cycles go to cycles, but the
    # boundary of a triangle, whose entries sum to 1, goes to z itself
    M = corpus("torus")
    pc = pair_complex(M, constant_system(M, Z))
    pres = homology_presentation(pc.boundary(2), pc.boundary(1))
    z = pres.cycles.column(0)
    f = ExactMatrix(Z, [[x] * pres.chain_rank for x in z])
    assert (pres.d_out @ f).is_zero()
    assert any(sum(col) == 1 for col in pres.d_in.columns())
    assert not pres.module.is_zero_class(pres.class_vector(z))
    with pytest.raises(NotChainMap, match="boundaries do not map"):
        induced_map(f, pres, pres)
    with pytest.raises(NotChainMap, match="boundaries do not map"):
        frozen_induced_matrix(f, pres, pres)


# ---------------------------------------------------------------------------
# Cycle coordinates against a dense computation
# ---------------------------------------------------------------------------

def dense_class_matrix(pres, chains):
    """class_matrix by dense arithmetic: y = V^-1 z with V^-1 the inverse
    of the whole V of d_out, y_j / a_j at each kernel position, then the
    coordinate map."""
    ring = pres.ring
    snf = smith_normal_form(pres.d_out)
    v_inv = inverse(snf.V).data
    z = chains.data
    kernel = []
    for j, a in snf.kernel_positions:
        row = []
        for col in range(chains.cols):
            y = ring.normalize(sum(v_inv[j][i] * z[i][col]
                                   for i in range(chains.rows)))
            row.append(ring.divide(y, a))
        kernel.append(row)
    X = ExactMatrix(ring, kernel) if kernel else \
        ExactMatrix.zeros(ring, 0, chains.cols)
    return pres._coords @ X


def small_cases(ring):
    """(d_in, d_out) pairs whose kernel rows of V^-1 are not unit vectors,
    and over Z/12 pairs whose kernels have torsion generators a_j != 1 on
    rows of V^-1 that are unit vectors."""
    mixed = [(ExactMatrix(ring, [[3], [-2]]), ExactMatrix(ring, [[2, 3]])),
             (ExactMatrix.zeros(ring, 3, 0),
              ExactMatrix(ring, [[2, 3, 5], [4, 7, 1]]))]
    if ring != Zmod(12):
        return mixed
    return mixed + [(ExactMatrix(ring, [[6]]), ExactMatrix(ring, [[2]])),
            (ExactMatrix.zeros(ring, 1, 0), ExactMatrix(ring, [[4]])),
            (ExactMatrix(ring, [[3], [2], [5]]),
             ExactMatrix(ring, [[4, 0, 0], [0, 6, 0]]))]


@pytest.mark.parametrize("ring", [Z, Zmod(12), Zmod(10007), Q], ids=str)
def test_class_matrix_matches_a_dense_computation(ring):
    rng = random.Random(str(ring))
    cases = small_cases(ring)
    for name in ("rp2", "torus", "klein"):
        M = corpus(name)
        for G in (constant_system(M, ring), orientation_system(M, ring),
                  random_flat_system(M, ring, 2, 3)):
            pc = pair_complex(M, G)
            cases += [(pc.boundary(k + 1), pc.boundary(k)) for k in range(3)]
    kinds = set()
    for d_in, d_out in cases:
        pres = homology_presentation(d_in, d_out)
        for row, a in zip(pres._kernel_rows, pres._divisors):
            kinds.add((isinstance(row, int), a == ring.one))
        # the generator chains, a random cycle and a boundary
        columns = list(pres.cycles.columns())
        combo = pres.cycles.apply([ring.from_int(rng.randint(-3, 3))
                                   for _ in range(pres.cycles.cols)])
        if d_in.cols:
            boundary = d_in.apply([ring.from_int(rng.randint(-3, 3))
                                   for _ in range(d_in.cols)])
            combo = tuple(ring.normalize(x + y)
                          for x, y in zip(combo, boundary))
            columns.append(boundary)
        chains = ExactMatrix.from_columns(ring, columns + [combo],
                                          pres.chain_rank)
        assert pres.class_matrix(chains) == dense_class_matrix(pres, chains)
    # unit rows shared as they are, and dense rows; over Z/12 also unit
    # rows whose generator is a torsion multiple a_j != 1
    assert {(True, True), (False, True)} <= kinds
    assert ((True, False) in kinds) == (ring == Zmod(12))
