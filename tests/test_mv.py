import random

import pytest

from twistcap import mv
from twistcap.complexes import (FullSubcomplex, SimplicialComplex, Subcomplex,
                                _grid, closed_star, corpus)
from twistcap.errors import NotACover, TwistcapError, UnknownName
from twistcap.localsystems import (constant_system, orientation_system,
                                   random_flat_system)
from twistcap.matrices import ExactMatrix
from twistcap.mv import (CoverPair, diagram6_check, mv_cohomology,
                         mv_homology, mv_splitting, named_cover,
                         named_diagram6)
from twistcap.rings import Q, Z, Zmod


def module_at(report, label):
    return report.modules[report.node_labels.index(label)]


def test_octahedron_hemispheres_recovers_sphere_homology():
    M, pair = named_cover("octahedron", "hemispheres")
    report = mv_homology(pair, constant_system(M, Z))
    assert report.all_exact
    assert module_at(report, "H_2(X)").normal_form == (1, ())
    assert module_at(report, "H_1(A^B)").normal_form == (1, ())  # the band
    assert module_at(report, "H_2(A)+H_2(B)").normal_form == (0, ())


def test_torus_cylinders_recovers_h1():
    M, pair = named_cover("torus", "cylinders")
    report = mv_homology(pair, constant_system(M, Z))
    assert report.all_exact
    assert module_at(report, "H_1(X)").normal_form == (2, ())
    assert module_at(report, "H_2(X)").normal_form == (1, ())


def test_klein_columns_twisted_exact():
    M, pair = named_cover("klein", "cylinders")
    for ring in (Z, Zmod(3)):
        w = orientation_system(M, ring)
        report = mv_homology(pair, w)
        assert report.all_exact
        co = mv_cohomology(pair, w)
        assert co.all_exact


@pytest.mark.parametrize("ring", [Z, Zmod(3)])
def test_all_named_covers_exact_both_ways(ring):
    for cname, covname in (("octahedron", "hemispheres"),
                           ("torus", "cylinders"), ("klein", "cylinders")):
        M, pair = named_cover(cname, covname)
        G = constant_system(M, ring)
        assert mv_homology(pair, G).all_exact, (cname, ring)
        assert mv_cohomology(pair, G).all_exact, (cname, ring)


def test_disjoint_pieces_degenerate_to_additivity():
    M = corpus("circle")
    # A = one edge, B = everything else; actually make them overlap-free:
    # use two disjoint closed arcs of the triangle? The triangle's edges all
    # share vertices, so take A = closure of one edge, B = closure of the
    # other two; A^B = two points.
    A = Subcomplex(M, [(0, 1)])
    B = Subcomplex(M, [(1, 2), (0, 2)])
    pair = CoverPair(M, A, B)
    report = mv_homology(pair, constant_system(M, Z))
    assert report.all_exact
    assert module_at(report, "H_0(A^B)").normal_form == (2, ())


def test_relative_cover_pair_exact():
    M, pair0 = named_cover("octahedron", "hemispheres")
    C = Subcomplex(M, [(0,)])
    D = Subcomplex(M, [(1,)])
    pair = CoverPair(M, pair0.A, pair0.B, C, D)
    G = constant_system(M, Z)
    assert mv_homology(pair, G).all_exact
    assert mv_cohomology(pair, G).all_exact


def test_cover_pair_validation():
    M = corpus("sphere2")
    A = Subcomplex(M, [(0, 1, 2)])
    with pytest.raises(NotACover):
        CoverPair(M, A, A)
    with pytest.raises(UnknownName):
        named_cover("torus", "hemispheres")


def test_splitting_exhaustive_basis_cochains():
    from twistcap.chains import pair_complex
    for cname, covname in (("octahedron", "hemispheres"),
                           ("torus", "cylinders"), ("klein", "cylinders")):
        M, pair = named_cover(cname, covname)
        G = constant_system(M, Z)
        inter_pc, left, right = (pair_complex(M, G, pool=piece)
                                 for piece in (pair.AB, pair.A, pair.B))
        for k in range(M.dimension + 1):
            length = inter_pc.length(k)
            for j in range(length):
                alpha = tuple(1 if i == j else 0 for i in range(length))
                beta, gamma = mv_splitting(pair, G, k, alpha)
                # beta|^ - gamma|^ = alpha, read off the coordinates: C and
                # D are empty, so each simplex of A^B lies in both pieces
                assert tuple(beta[left.index(k)[s]] - gamma[right.index(k)[s]]
                             for s in inter_pc.space(k)) == alpha


def test_splitting_zero_and_outside_c():
    M, pair = named_cover("octahedron", "hemispheres")
    G = constant_system(M, Z)
    from twistcap.chains import pair_complex
    inter_pc = pair_complex(M, G, pool=pair.AB)
    zero = tuple(0 for _ in range(inter_pc.length(1)))
    beta, gamma = mv_splitting(pair, G, 1, zero)
    assert not any(beta) and not any(gamma)
    # C and D are empty here, so gamma is always zero
    one = tuple(1 for _ in range(inter_pc.length(1)))
    beta, gamma = mv_splitting(pair, G, 1, one)
    assert not any(gamma)


def test_connecting_naturality_for_nested_torus_covers():
    # enlarging both strips in the necklace gives a second cover; the
    # connecting squares with the induced maps must commute
    M = corpus("torus")
    A = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    B = [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    small_u = [A[0], B[1], A[1], B[2], A[2], B[3], A[3]]
    small_v = [B[4], A[4], B[5], A[5], B[6], A[6], B[0]]
    big_u = small_u + [B[4]]
    big_v = small_v + [A[0]]
    pair1 = CoverPair(M, Subcomplex(M, small_u), Subcomplex(M, small_v))
    pair2 = CoverPair(M, Subcomplex(M, big_u), Subcomplex(M, big_v))
    G = constant_system(M, Z)
    from twistcap.chains import pair_complex, transfer_matrix
    from twistcap.fpmodules import induced_map
    from twistcap.mv import _connecting_chain, _connecting_map, _mv_spaces
    sp1 = _mv_spaces(pair1, G)
    sp2 = _mv_spaces(pair2, G)
    h2_x = sp1.whole.homology(2)            # same for both (whole torus)
    h1_int1 = sp1.inter.homology(1)
    h1_int2 = sp2.inter.homology(1)
    d1 = _connecting_map(sp1, 2, h2_x, h1_int1, _connecting_chain,
                         "connecting image is not a cycle")
    d2 = _connecting_map(sp2, 2, h2_x, h1_int2, _connecting_chain,
                         "connecting image is not a cycle")
    incl = induced_map(transfer_matrix(sp1.inter, sp2.inter, 1),
                       h1_int1, h1_int2)
    assert incl.compose(d1).equals(d2)


# sized band configurations, name -> (grid, axis): the Klein bottle and the
# torus banded across x, and the torus across y
SIZED = {"klein8x6": ((8, 6, True), 0), "torus8x6": ((8, 6, False), 0),
         "torus6x8": ((6, 8, False), 1)}
SYSTEMS = {"constant": constant_system, "orientation": orientation_system,
           "flat2": lambda M, ring: random_flat_system(M, ring, 2, 5)}


def configuration(name):
    """The pieces of a named or a sized diagram-6 configuration."""
    if name not in SIZED:
        return named_diagram6(name)
    grid, axis = SIZED[name]
    M = _grid(*grid)
    return dict(zip(("complex", "U", "V", "K", "L"),
                    (M, *mv._grid_bands(M, grid, axis))))


def check(cfg, G, ring, resample_seed=None):
    return diagram6_check(cfg["complex"], cfg["U"], cfg["V"], cfg["K"],
                          cfg["L"], G, ring, resample_seed=resample_seed)


def test_named_grid_bands_are_the_hand_listed_ones():
    torus, klein = named_diagram6("torus"), named_diagram6("klein")
    assert torus["K"].vertex_subset == set(range(8))      # rows y = 0, 1
    assert torus["L"].vertex_subset == set(range(8, 16))  # rows y = 2, 3
    # the 4x3 grid's columns wrap straight: columns 0, 1 and columns 2, 3
    assert klein["K"].vertex_subset == {y * 4 + x for x in (0, 1)
                                        for y in range(3)}
    assert klein["L"].vertex_subset == {y * 4 + x for x in (2, 3)
                                        for y in range(3)}
    for cfg, grid, axis in ((torus, (4, 4, False), 1),
                            (klein, (4, 3, True), 0)):
        assert (cfg["U"], cfg["V"]) == mv._strips(
            cfg["complex"], grid, axis, {3, 0, 1}, {1, 2, 3})


# each ring meets each system once, and each sized configuration each ring
@pytest.mark.parametrize("name,ring,system", [
    (name, ring, tuple(SYSTEMS)[(i + j) % 3])
    for i, name in enumerate(SIZED)
    for j, ring in enumerate((Z, Zmod(3), Q, Zmod(4)))], ids=str)
def test_diagram6_sized_bands(name, ring, system):
    cfg = configuration(name)
    report = check(cfg, SYSTEMS[system](cfg["complex"], ring), ring,
                   resample_seed=3)
    assert report.all_verified
    # a rank-2 flat system may leave no class to measure the sign on
    assert report.connecting_sign in ((1, None) if system == "flat2" else (1,))


@pytest.mark.parametrize("ring,system", [(Z, "orientation"),
                                         (Zmod(3), "constant")], ids=str)
def test_diagram6_verdicts_survive_a_relabelling(ring, system):
    cfg = configuration("klein8x6")
    M = cfg["complex"]
    perm = list(range(M.vertex_count))
    random.Random(8).shuffle(perm)

    def moved(simplices):
        return [tuple(sorted(perm[v] for v in s)) for s in simplices]
    N = SimplicialComplex(M.vertex_count, moved(M.maximal_simplices))
    relabelled = {"complex": N}
    for piece in "UV":
        relabelled[piece] = Subcomplex(N, moved(cfg[piece].faces(2)))
    for band in "KL":
        relabelled[band] = FullSubcomplex(
            N, (perm[v] for v in cfg[band].vertex_subset))
    reports = [check(c, SYSTEMS[system](c["complex"], ring), ring)
               for c in (cfg, relabelled)]
    assert reports[0].all_verified and reports[0].connecting_sign == 1
    assert reports[1] == reports[0]


@pytest.mark.parametrize("grid,axis", [((8, 6, True), 1), ((6, 8, True), 1),
                                       ((6, 8, False), 0), ((8, 6, False), 1),
                                       ((0, 4, False), 0)], ids=str)
def test_grid_bands_refuse_a_twisted_axis_1_and_other_sides(grid, axis):
    # refused before anything is built: no complex is needed
    with pytest.raises(TwistcapError, match="no diagram-6 bands"):
        mv._grid_bands(None, grid, axis)


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_diagram6_torus(ring):
    cfg = named_diagram6("torus")
    M = cfg["complex"]
    G = constant_system(M, ring)
    report = diagram6_check(M, cfg["U"], cfg["V"], cfg["K"], cfg["L"], G, ring)
    assert report.square_left and report.square_right
    assert report.connecting_ok
    assert report.connecting_sign in (-1, 1)


@pytest.mark.parametrize("name", ["torus", "sphere", "klein", *SIZED])
def test_star_containment_matches_the_closed_star(name):
    cfg = configuration(name)
    M = cfg["complex"]
    for band in (cfg["K"], cfg["L"]):
        for piece in (cfg["U"], cfg["V"]):
            assert mv._star_inside(M, band, piece) == \
                closed_star(M, band.vertex_subset).issubset(piece)


def test_a_band_outside_its_neighbourhood_is_refused():
    for cfg in map(configuration, ("torus", "klein8x6")):
        M = cfg["complex"]
        assert not closed_star(M, cfg["L"].vertex_subset).issubset(cfg["U"])
        with pytest.raises(TwistcapError, match="K is not interior to U"):
            diagram6_check(M, cfg["U"], cfg["V"], cfg["L"], cfg["K"],
                           constant_system(M, Z), Z)
        with pytest.raises(TwistcapError, match="L is not interior to V"):
            diagram6_check(M, cfg["U"], cfg["V"], cfg["K"], cfg["K"],
                           constant_system(M, Z), Z)


def test_diagram6_sphere():
    cfg = named_diagram6("sphere")
    M = cfg["complex"]
    G = constant_system(M, Z)
    report = diagram6_check(M, cfg["U"], cfg["V"], cfg["K"], cfg["L"], G, Z)
    assert report.square_left and report.square_right and report.connecting_ok


def test_diagram6_klein_twisted():
    cfg = named_diagram6("klein")
    M = cfg["complex"]
    G = orientation_system(M, Z)
    report = diagram6_check(M, cfg["U"], cfg["V"], cfg["K"], cfg["L"], G, Z)
    assert report.square_left and report.square_right
    assert report.connecting_ok


def test_diagram6_sign_stable_across_rings_and_representatives():
    cfg = named_diagram6("torus")
    M = cfg["complex"]
    signs = set()
    for ring in (Z, Zmod(3)):
        G = constant_system(M, ring)
        for seed in (None, 7):
            report = diagram6_check(M, cfg["U"], cfg["V"], cfg["K"], cfg["L"],
                                    G, ring, resample_seed=seed)
            assert report.all_verified
            if report.connecting_sign is not None:
                signs.add(report.connecting_sign)
    assert len(signs) == 1


def test_splitting_failure_is_a_verdict_not_an_error(monkeypatch):
    M, pair = named_cover("octahedron", "hemispheres")
    G = constant_system(M, Z)
    assert mv.splitting_holds(pair, G)
    split = mv._MVSpaces.split

    def doubled(spaces, k):
        s_beta, s_gamma = split(spaces, k)
        return s_beta.scale(2), s_gamma

    monkeypatch.setattr(mv._MVSpaces, "split", doubled)
    assert not mv.splitting_holds(pair, G)


def _one_more_in_last_column(matrix, row):
    """`matrix` with one unit added to its entry (row, last column)."""
    rows = [dict(r) for r in matrix.sparse_rows]
    j = matrix.cols - 1
    rows[row][j] = rows[row].get(j, 0) + 1
    return ExactMatrix._from_rows(matrix.ring, rows, matrix.cols)


@pytest.mark.parametrize("half", [1, 0], ids=["S_gamma", "S_beta"])
@pytest.mark.parametrize("cover", mv.NAMED_COVERS, ids="-".join)
def test_a_splitting_fault_in_the_last_column_fails(monkeypatch, cover,
                                                    half):
    # one entry of S_gamma or S_beta is off by one unit, in the top degree
    # of the intersection, in the last column, at the row of the last
    # simplex of the intersection; a first passing check memoizes the
    # splittings
    M, pair = named_cover(*cover)
    G = constant_system(M, Z)
    assert mv.splitting_holds(pair, G)
    spaces = mv._mv_spaces(pair, G)
    k = max(k for k in range(M.dimension + 1) if spaces.inter.space(k))
    side = (spaces.left, spaces.right)[half]
    row = side.index(k)[spaces.inter.space(k)[-1]]
    split = mv._MVSpaces.split

    def faulty(self, degree):
        pieces = list(split(self, degree))
        if degree == k:
            pieces[half] = _one_more_in_last_column(pieces[half], row)
        return tuple(pieces)

    monkeypatch.setattr(mv._MVSpaces, "split", faulty)
    assert not mv.splitting_holds(pair, G)
    length = spaces.inter.length(k)
    failed = []
    for j in range(length):
        try:
            mv_splitting(pair, G, k, tuple(int(i == j) for i in range(length)))
        except TwistcapError:
            failed.append(j)
    assert failed == [length - 1]
