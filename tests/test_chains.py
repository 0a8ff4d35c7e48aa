import pytest

from twistcap.chains import (NotAFundamentalCycle, PairComplex, cohomology,
                             fundamental_class_direct, homology,
                             inclusion_restriction, pair_complex,
                             relative_killed)
from twistcap.complexes import FullSubcomplex, corpus
from twistcap.covers import fundamental_class_via_cover
from twistcap.errors import FlatnessViolation, TwoIsZero
from twistcap.localsystems import (LocalSystem, constant_system,
                                   orientation_system, random_flat_system,
                                   tensor)
from twistcap.matrices import ExactMatrix
from twistcap.mv import named_cover
from twistcap.rings import Q, Z, Zmod

from oracles import RP2_FACETS, boundary_matrix


def test_constant_system_reproduces_ordinary_boundaries():
    M = corpus("rp2")
    pc = pair_complex(M, constant_system(M, Z))
    pc.verify_squares()
    expected2, _, _ = boundary_matrix(RP2_FACETS, 2)
    expected1, _, _ = boundary_matrix(RP2_FACETS, 1)
    assert pc.boundary(2) == ExactMatrix(Z, expected2)
    assert pc.boundary(1) == ExactMatrix(Z, expected1)


def test_circle_swap_system_boundary_blocks():
    M = corpus("circle")
    swap = ExactMatrix(Z, [[0, 1], [1, 0]])
    system = LocalSystem(M, Z, 2, {(0, 2): swap})
    pc = pair_complex(M, system)
    pc.verify_squares()
    d1 = pc.boundary(1)
    assert (d1.rows, d1.cols) == (6, 6)
    # edge (0,1): faces (1,) - (0,), identity blocks
    assert d1.column(0) == (-1, 0, 1, 0, 0, 0)
    # edge (0,2): face (2,) gets the inverse transport of the swap (= swap)
    assert d1.column(2) == (-1, 0, 0, 0, 0, 1)
    assert d1.column(3) == (0, -1, 0, 0, 1, 0)


@pytest.mark.parametrize("name", ["circle", "sphere2", "rp2", "torus", "klein", "sphere3"])
@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_boundary_and_coboundary_square_to_zero(name, ring):
    M = corpus(name)
    systems = [constant_system(M, ring, 1), constant_system(M, ring, 2),
               orientation_system(M, ring), random_flat_system(M, ring, 2, 11)]
    for g in systems:
        assert pair_complex(M, g).verify_squares()


def test_flatness_violation_rejected():
    M = corpus("rp2")
    g = orientation_system(M, Z)
    transport = dict(g.edge_items())
    edge = M.faces(1)[3]
    transport[edge] = transport[edge].scale(-1)
    bad = LocalSystem(M, Z, 1, transport)
    with pytest.raises(FlatnessViolation):
        pair_complex(M, bad).verify_squares()


def test_classical_homology_values():
    assert homology(corpus("circle"), constant_system(corpus("circle"), Z), 1) \
        .module.normal_form == (1, ())
    M = corpus("rp2")
    const = constant_system(M, Z)
    assert homology(M, const, 0).module.normal_form == (1, ())
    assert homology(M, const, 1).module.normal_form == (0, (2,))
    assert homology(M, const, 2).module.normal_form == (0, ())
    K = corpus("klein")
    constk = constant_system(K, Z)
    assert homology(K, constk, 1).module.normal_form == (1, (2,))
    assert homology(K, constk, 2).module.normal_form == (0, ())


def test_twisted_homology_values():
    M = corpus("rp2")
    w = orientation_system(M, Z)
    assert homology(M, w, 0).module.normal_form == (0, (2,))
    assert homology(M, w, 1).module.normal_form == (0, ())
    assert homology(M, w, 2).module.normal_form == (1, ())
    K = corpus("klein")
    wk = orientation_system(K, Z)
    assert homology(K, wk, 2).module.normal_form == (1, ())


def test_cohomology_values():
    M = corpus("rp2")
    const = constant_system(M, Z)
    assert cohomology(M, const, 0).module.normal_form == (1, ())
    assert cohomology(M, const, 1).module.normal_form == (0, ())
    assert cohomology(M, const, 2).module.normal_form == (0, (2,))


def test_universal_coefficients_rank_symmetry_over_q():
    for name in ("torus", "klein", "rp2"):
        M = corpus(name)
        g = random_flat_system(M, Q, 2, 5)
        for k in range(3):
            hk = homology(M, g, k).module.normal_form
            ck = cohomology(M, g, k).module.normal_form
            assert hk == ck


def test_relative_homology_of_pair():
    M = corpus("sphere2")
    const = constant_system(M, Z)
    K = FullSubcomplex(M, {0})
    # H_2(M | one vertex) = Z for the sphere
    assert homology(M, const, 2, K).module.normal_form == (1, ())
    everything = FullSubcomplex(M, range(4))
    assert homology(M, const, 2, everything).module.normal_form == (1, ())


@pytest.mark.parametrize("name", ["sphere2", "rp2", "torus", "klein", "sphere3"])
def test_fundamental_class_direct_is_unit_cycle(name):
    M = corpus(name)
    nu = fundamental_class_direct(M, Z)
    assert all(abs(x) == 1 for x in nu.chain)
    pres = homology(M, nu.system, M.dimension)
    coords = pres.class_vector(nu.chain)
    assert coords is not None
    assert pres.module.normal_form == (1, ())
    assert pres.module.generates(coords)


def test_fundamental_class_wrong_system_reports_witness():
    M = corpus("rp2")
    with pytest.raises(NotAFundamentalCycle) as exc:
        fundamental_class_direct(M, Z, system=constant_system(M, Z))
    assert any(x != 0 for x in exc.value.witness)


def test_untwisted_rp2_has_no_top_cycle():
    M = corpus("rp2")
    assert homology(M, constant_system(M, Z), 2).module.normal_form == (0, ())


@pytest.mark.parametrize("ring", [Z, Zmod(3)])
@pytest.mark.parametrize("name", ["sphere2", "rp2", "torus", "klein", "sphere3"])
def test_fundamental_class_constructions_agree(name, ring):
    M = corpus(name)
    direct = fundamental_class_direct(M, ring)
    via = fundamental_class_via_cover(M, ring)
    assert direct.chain == via.chain  # matching conventions give exact equality
    pres = homology(M, direct.system, M.dimension)
    a = pres.class_vector(direct.chain)
    b = pres.class_vector(via.chain)
    assert pres.module.classes_equal(a, b)


def test_via_cover_refuses_mod2():
    with pytest.raises(TwoIsZero):
        fundamental_class_via_cover(corpus("rp2"), Zmod(2))


def test_mod2_direct_class_exists():
    M = corpus("rp2")
    nu = fundamental_class_direct(M, Zmod(2))
    pres = homology(M, nu.system, 2)
    assert pres.module.normal_form == (1, ())


def vertex_generator_check(nu, vertex):
    """The image of nu in H_n(M|{x}) generates that rank-one module."""
    K = FullSubcomplex(nu.base, {vertex})
    pres = homology(nu.base, nu.system, nu.degree, K)
    return pres.module.generates(pres.class_vector(nu.restriction(K)))


@pytest.mark.parametrize("name", ["sphere2", "rp2", "torus", "klein"])
def test_vertex_generator_condition(name):
    M = corpus(name)
    nu = fundamental_class_direct(M, Z)
    for v in range(M.vertex_count):
        assert vertex_generator_check(nu, v)


def test_inclusion_restriction_chain():
    M = corpus("torus")
    nu = fundamental_class_direct(M, Z)
    K2 = FullSubcomplex(M, range(M.vertex_count))
    K1 = FullSubcomplex(M, {3})
    assert inclusion_restriction(nu, K1, K2)
    assert inclusion_restriction(nu, K1, K1)
    # restriction to a vertex is the local generator
    pres = homology(nu.base, nu.system, nu.degree, K1)
    coords = pres.class_vector(nu.restriction(K1))
    assert pres.module.generates(coords)


def test_nested_restrictions_on_rp3():
    M = corpus("rp3")
    nu = fundamental_class_direct(M, Z)
    chain = [FullSubcomplex(M, {0}),
             FullSubcomplex(M, {0, 1, 2}),
             FullSubcomplex(M, range(M.vertex_count))]
    for small, big in zip(chain, chain[1:]):
        assert inclusion_restriction(nu, small, big)
    assert inclusion_restriction(nu, chain[0], chain[2])


def test_tensor_orientation_squared_homology():
    M = corpus("klein")
    w = orientation_system(M, Z)
    ww = tensor(w, w)
    # w (x) w is trivializable: homology matches constant coefficients
    assert homology(M, ww, 1).module.normal_form == \
        homology(M, constant_system(M, Z), 1).module.normal_form


# -- the two assembly loops as they stood before d_k and delta_{k-1} shared
# -- one face loop; frozen here as the reference for that merge

def _reference_boundary(pc, k):
    ring, r = pc.ring, pc.rank
    rows_sx = pc.space(k - 1)
    cols_sx = pc.space(k)
    ridx = pc.index(k - 1)
    data = [[ring.zero] * (len(cols_sx) * r) for _ in range(len(rows_sx) * r)]
    for j, s in enumerate(cols_sx):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            pos = ridx.get(face)
            if pos is None:
                continue
            if i == 0:
                block = pc.system.transport(s[1], s[0])
                for a in range(r):
                    row = data[pos * r + a]
                    for b in range(r):
                        row[j * r + b] = block.data[a][b]
            else:
                sign = ring.from_int(-1 if i % 2 else 1)
                for a in range(r):
                    data[pos * r + a][j * r + a] = sign
    return ExactMatrix._from_rows(
        ring, [{j: x for j, x in enumerate(row) if x} for row in data],
        len(cols_sx) * r)


def _reference_coboundary(pc, k):
    ring, r = pc.ring, pc.rank
    rows_sx = pc.space(k + 1)
    cols_sx = pc.space(k)
    cidx = pc.index(k)
    data = [[ring.zero] * (len(cols_sx) * r) for _ in range(len(rows_sx) * r)]
    for i_row, s in enumerate(rows_sx):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            pos = cidx.get(face)
            if pos is None:
                continue
            if i == 0:
                block = pc.system.transport(s[0], s[1])
                for a in range(r):
                    row = data[i_row * r + a]
                    for b in range(r):
                        row[pos * r + b] = ring.normalize(
                            row[pos * r + b] + block.data[a][b])
            else:
                sign = ring.from_int(-1 if i % 2 else 1)
                for a in range(r):
                    row = data[i_row * r + a]
                    row[pos * r + a] = ring.normalize(row[pos * r + a] + sign)
    return ExactMatrix._from_rows(
        ring, [{j: x for j, x in enumerate(row) if x} for row in data],
        len(cols_sx) * r)


def _pairs(M, cover):
    """(pool, killed) pairs: the cover's pooled and killed pieces, a
    relative pair of the pieces, and the relative pair of vertex 0."""
    yield None, None
    for piece in (cover.A, cover.B, cover.AB):
        yield piece, None
        yield None, piece
    yield cover.A, cover.AB
    yield None, relative_killed(M, FullSubcomplex(M, {0}))


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q], ids=str)
@pytest.mark.parametrize("cover", ["octahedron/hemispheres", "torus/cylinders",
                                   "klein/cylinders"])
def test_assembly_matches_the_reference_loops(cover, ring):
    M, pair = named_cover(*cover.split("/"))
    systems = (constant_system(M, ring, 1), constant_system(M, ring, 2),
               orientation_system(M, ring), random_flat_system(M, ring, 2, 7))
    for G in systems:
        for pool, killed in _pairs(M, pair):
            pc = PairComplex(M, G, pool=pool, killed=killed)
            for k in range(-1, M.dimension + 2):
                for got, want in ((pc.boundary(k), _reference_boundary(pc, k)),
                                  (pc.coboundary(k),
                                   _reference_coboundary(pc, k))):
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert got.data == want.data
                    assert [type(x) for row in got.data for x in row] \
                        == [type(x) for row in want.data for x in row]
