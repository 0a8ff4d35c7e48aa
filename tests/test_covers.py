import pytest

from twistcap import covers
from twistcap.chains import (fundamental_class_direct, pair_complex,
                             transfer_matrix)
from twistcap.chains import relative_killed
from twistcap.complexes import (BUILTIN_NAMES, FullSubcomplex, corpus,
                                dumps_complex, loads_complex, named_complex,
                                validate)
from twistcap.covers import (CoverOrientation, DegreeSplit, DoubleCover,
                             SplitMaps, _check_cover_invariants,
                             build_double_cover, check_split_exactness,
                             cover_chains, deck_chain_matrix, lemma1_check,
                             lemma2_check, orient_cover, orientation_cover,
                             phi_identify, pushforward, split_maps,
                             vertex_map_chain_matrix)
from twistcap.errors import IncoherentCover, NotSignSystem, TwoIsZero
from twistcap.localsystems import (constant_system, is_trivializable,
                                   orientation_system, random_flat_system)
from twistcap.matrices import ExactMatrix
from twistcap.rings import Q, Z, Zmod


def cover_of(name, ring=Z):
    M = corpus(name)
    return build_double_cover(M, orientation_system(M, ring))


def components(cx):
    adj = cx.facet_adjacency()
    seen = set()
    comps = 0
    for f in cx.facets:
        if f in seen:
            continue
        comps += 1
        stack = [f]
        seen.add(f)
        while stack:
            g = stack.pop()
            for h, _ in adj[g]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
    return comps


def test_trivial_cover_of_sphere_is_two_spheres():
    c = cover_of("sphere2")
    assert c.total.vertex_count == 8
    assert components(c.total) == 2
    assert c.total.euler_characteristic() == 4


def test_rp2_cover_is_a_sphere():
    c = cover_of("rp2")
    assert c.total.f_vector() == (12, 30, 20)
    assert components(c.total) == 1
    assert c.total.euler_characteristic() == 2
    assert validate(c.total).closed_pseudomanifold


def test_klein_cover_is_a_torus():
    c = cover_of("klein")
    assert components(c.total) == 1
    assert c.total.euler_characteristic() == 0
    assert is_trivializable(orientation_system(c.total, Z))[0]


def test_connectivity_matches_orientability():
    for name in ("sphere2", "torus", "rp2", "klein", "sphere3"):
        M = corpus(name)
        omega = orientation_system(M, Z)
        c = build_double_cover(M, omega)
        trivial, _ = is_trivializable(omega)
        assert (components(c.total) == 2) == trivial


def test_the_orientation_cover_is_one_object_per_complex():
    M = corpus("klein")
    assert orientation_cover(M) is orientation_cover(M)
    assert orientation_cover(M) is build_double_cover(
        M, orientation_system(M, Z))


@pytest.mark.parametrize("ring", [Zmod(3), Q], ids=str)
@pytest.mark.parametrize("name", ["sphere2", "rp2", "klein", "torus",
                                  "sphere3"])
def test_where_two_is_nonzero_the_ring_has_the_same_cover(name, ring):
    M = corpus(name)
    own = build_double_cover(M, orientation_system(M, ring))
    cover = orientation_cover(M)
    assert cover.total == own.total
    assert cover.signs == own.signs


@pytest.mark.parametrize("name", ["rp2", "klein"])
def test_over_z2_the_orientation_cover_stays_connected(name):
    # over Z/2 the ring's own orientation system is constant, and its cover
    # is two copies of the base; the orientation cover is not
    M = corpus(name)
    assert components(orientation_cover(M).total) == 1
    mod2 = build_double_cover(M, orientation_system(M, Zmod(2)))
    assert components(mod2.total) == 2


def test_reject_non_sign_systems():
    M = corpus("rp2")
    with pytest.raises(NotSignSystem):
        build_double_cover(M, constant_system(M, Z, 2))


@pytest.mark.parametrize("name", ["sphere2", "rp2", "klein", "torus", "sphere3"])
def test_lemma1_deck_reverses_orientation(name):
    assert lemma1_check(cover_of(name), Z)


def test_lemma1_fails_on_a_flipped_facet_sign(monkeypatch):
    c = cover_of("rp2")
    signs = dict(orient_cover(c).facet_signs)
    facet = min(signs)
    signs[facet] = -signs[facet]
    faulty = CoverOrientation(c, signs)
    monkeypatch.setattr(covers, "orient_cover", lambda cover: faulty)
    assert lemma1_check(c, Z) is False


@pytest.mark.parametrize("name", ["rp2", "klein", "sphere2", "rp3"])
def test_a_flipped_star_sign_is_refused_by_the_ridge_check(name, monkeypatch):
    # one base facet's sign at its leading vertex flipped: its two lifts
    # then disagree with a neighbour on a ridge, and the cover is refused
    M = corpus(name)
    cover = orientation_cover(M)
    facet = M.facets[0]
    star_signs = covers.star_signs

    def flipped(cx, vertex):
        signs = star_signs(cx, vertex)
        if cx is M and vertex == facet[0]:
            signs = {**signs, facet: -signs[facet]}
        return signs
    monkeypatch.setattr(covers, "star_signs", flipped)
    with pytest.raises(IncoherentCover):
        covers._build_orientation(cover)


def _with_deck(cover, swaps):
    """The cover with its deck map changed to swap each pair in `swaps`
    (a pair (v, v) fixes v)."""
    deck = list(cover.deck)
    for v, w in swaps:
        deck[v], deck[w] = w, v
    return DoubleCover(cover.base, cover.total, cover.projection, tuple(deck),
                       cover.signs)


def test_a_deck_map_with_fixed_points_is_incoherent():
    c = cover_of("rp2")
    n = c.base.vertex_count
    # still an involution, but 0 and n are fixed
    with pytest.raises(IncoherentCover, match="free involution"):
        _check_cover_invariants(_with_deck(c, [(0, 0), (n, n)]))


def test_a_deck_map_across_fibres_is_incoherent():
    c = cover_of("rp2")
    n = c.base.vertex_count
    # a free involution that swaps points over different base vertices
    with pytest.raises(IncoherentCover, match="does not commute"):
        _check_cover_invariants(_with_deck(c, [(0, n + 1), (1, n)]))


def test_components_project_to_opposite_orientations():
    M = corpus("sphere2")
    c = cover_of("sphere2")
    orientation = orient_cover(c)
    nu = fundamental_class_direct(M, Z)
    base_pc = pair_complex(M, nu.system)
    idx = base_pc.index(2)
    projected = {}
    for facet, sign in orientation.facet_signs.items():
        base = tuple(sorted(c.projection[v] for v in facet))
        over = [v for v in facet if c.projection[v] == base[0]][0]
        sheet = int(over >= M.vertex_count)
        from twistcap.covers import projection_parity
        projected.setdefault(sheet, [0] * base_pc.length(2))
        projected[sheet][idx[base]] += sign * projection_parity(c, facet)
    assert tuple(projected[0]) == nu.chain
    assert tuple(projected[1]) == tuple(-x for x in nu.chain)


@pytest.mark.parametrize("ring", [Z, Zmod(3)])
@pytest.mark.parametrize("name", ["rp2", "torus", "klein"])
def test_split_sequences_exact(name, ring):
    c = cover_of(name)
    for K in (None, FullSubcomplex(corpus(name), {0})):
        split = split_maps(c, ring, K)
        for k, verdict in check_split_exactness(split).items():
            assert verdict["seq1"], (name, ring, k)
            assert verdict["seq2"], (name, ring, k)


def test_split_eigenvector_algebra():
    c = cover_of("rp2")
    split = split_maps(c, Z)
    for d in split.degrees.values():
        assert (d.delta @ d.incl_plus).is_zero()
        assert (d.sigma @ d.incl_minus).is_zero()
    # one antisymmetric generator per base triangle
    assert split.degrees[2].incl_minus.cols == 10


def test_split_refuses_mod2():
    c = cover_of("rp2")
    with pytest.raises(TwoIsZero):
        split_maps(c, Zmod(2))


def _with_entry(A, row, col, x):
    """A copy of A with entry (row, col) set to x, dropped when x is 0."""
    rows = list(A.sparse_rows)
    rows[row] = {**rows[row], col: x}
    if not x:
        del rows[row][col]
    return ExactMatrix._from_rows(A.ring, rows, A.cols)


FAULTS = {"flip": lambda x: -x, "double": lambda x: 2 * x,
          "drop": lambda x: 0}
# (seq1, seq2) with one matrix broken: sequence (1) reads Sigma, sequence
# (2) Delta, and both read the two inclusions
EXACT_WITH = {"incl_plus": (False, False), "incl_minus": (False, False),
              "sigma": (False, True), "delta": (True, False)}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("lift", ["representative", "deck image"])
@pytest.mark.parametrize("field", EXACT_WITH)
def test_a_faulty_splitting_fails_exactly_its_sequences(field, lift, fault):
    # one entry of one matrix of degree 1 is flipped, doubled (over Z, not
    # a unit) or dropped, in the row of an orbit's representative or of its
    # deck image: an inclusion's orbit column, Sigma's or Delta's diagonal
    c = cover_of("klein")
    split = split_maps(c, Z)
    k = 1
    d = split.degrees[k]
    rep = c.canonical_lift(d.orbit_bases[0])
    row = cover_chains(c, Z).index(k)[
        rep if lift == "representative" else c.deck_image(rep)]
    parts = {name: getattr(d, name) for name in EXACT_WITH}
    A = parts[field]
    col = 0 if field.startswith("incl") else row
    parts[field] = _with_entry(A, row, col, FAULTS[fault](A.entry(row, col)))
    degrees = dict(split.degrees)
    degrees[k] = DegreeSplit(parts["sigma"], parts["delta"],
                             parts["incl_plus"], parts["incl_minus"],
                             d.orbit_bases)
    verdicts = check_split_exactness(SplitMaps(degrees))
    seq1, seq2 = EXACT_WITH[field]
    assert verdicts[k]["seq1"] is seq1 and verdicts[k]["seq2"] is seq2
    assert all(v == {"seq1": True, "seq2": True}
               for j, v in verdicts.items() if j != k)


def test_sigma_image_is_sum_of_lifts():
    c = cover_of("rp2")
    ring = Z
    split = split_maps(c, ring)
    d = split.degrees[2]
    tau = deck_chain_matrix(c, ring, 2)
    n2 = d.sigma.rows
    for j in range(0, n2, 7):
        e = [0] * n2
        e[j] = 1
        assert d.sigma.apply(e) == tuple(x + y for x, y in
                                         zip(e, tau.apply(e)))


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
@pytest.mark.parametrize("name", ["rp2", "klein", "sphere2"])
def test_phi_is_boundary_commuting_iso(name, ring):
    c = cover_of(name)
    for K in (None, FullSubcomplex(corpus(name), {1})):
        phi = phi_identify(c, ring, K)
        assert phi.boundary_commutes
        assert phi.degreewise_iso


def test_phi_representative_swap_flips_sign():
    c = cover_of("rp2")
    split = split_maps(c, Z)
    d = split.degrees[2]
    # the generator over a base simplex evaluates to +1 on the canonical
    # lift; the deck image of that generator is its negation
    base = d.orbit_bases[0]
    col = d.incl_minus.column(0)
    total_pc_len = len(col)
    tau = deck_chain_matrix(c, Z, 2)
    swapped = tau.apply(col)
    assert swapped == tuple(-x for x in col)
    rep = c.canonical_lift(base)
    idx = pair_complex(c.total, constant_system(c.total, Z)).index(2)
    from twistcap.covers import projection_parity
    assert col[idx[rep]] == projection_parity(c, rep)
    assert total_pc_len == 20  # both lifts of each of the 10 base triangles


@pytest.mark.parametrize("name", ["sphere2", "rp2", "klein", "torus"])
@pytest.mark.parametrize("ring", [Z, Zmod(3)])
def test_lemma2_pushforward_vanishes(name, ring):
    M = corpus(name)
    for K in (None, FullSubcomplex(M, {0})):
        assert lemma2_check(M, ring, K)


@pytest.mark.parametrize("name, K, forms", [
    ("sphere2", "all", ((2, ()), (1, ()))),
    ("torus", "all", ((2, ()), (1, ()))),
    ("rp2", "all", ((1, ()), (0, ()))),
    ("klein", "all", ((1, ()), (0, ()))),
    ("sphere2", "vertex0", ((2, ()), (1, ()))),
    ("torus", "vertex0", ((2, ()), (1, ()))),
    ("rp2", "vertex0", ((2, ()), (1, ()))),
    ("klein", "vertex0", ((2, ()), (1, ()))),
])
def test_pushforward_sends_the_cover_class_to_zero(name, K, forms):
    # p_* over Z from the orientation cover: two sheets over an orientable
    # surface and one connected cover over a non-orientable one, and the two
    # local generators over vertex 0 onto the one of M; Lemma 2 through the
    # public map: p_* of the cover's class is zero
    M = corpus(name)
    K = None if K == "all" else FullSubcomplex(M, {0})
    cover = orientation_cover(M)
    pmap = pushforward(cover, Z, K)
    assert (pmap.source.normal_form, pmap.target.normal_form) == forms
    n = M.dimension
    rel_pc = cover_chains(cover, Z, K)
    z = orient_cover(cover).cycle_vector(Z)
    coords = rel_pc.homology(n).class_vector(
        transfer_matrix(cover_chains(cover, Z), rel_pc, n).apply(z))
    assert pmap.target.is_zero_class(pmap.matrix.apply(coords))


def dumps_cover(cover):
    """Total space in the complex file format, plus sheet annotations as
    comments."""
    lines = [dumps_complex(cover.total).rstrip("\n")]
    lines.append("# sheets: total vertex = base vertex + sheet * base_count")
    for v in range(cover.total.vertex_count):
        lines.append(f"# vertex {v} over {cover.projection[v]} "
                     f"sheet {int(v >= cover.base.vertex_count)}")
    return "\n".join(lines) + "\n"


def test_cover_export_roundtrips_as_complex():
    c = cover_of("rp2")
    text = dumps_cover(c)
    assert "sheet" in text
    assert loads_complex(text) == c.total  # annotations are comments


def _chain_map_faults(label, f, d_src, d_dst, degrees):
    """The degrees k of `degrees` where d_dst(k) f(k) != f(k-1) d_src(k)."""
    return [(label, k) for k in degrees
            if d_dst(k) @ f(k) != f(k - 1) @ d_src(k)]


@pytest.mark.parametrize("ring", [Z, Zmod(3)], ids=str)
def test_every_cell_map_is_a_chain_map(ring):
    # the deck map tau, the projection p and the quotient transfer T, each
    # built by PairComplex.cell_map, in every degree of every built-in
    faults = []
    for name in BUILTIN_NAMES:
        M = named_complex(name)
        n = M.dimension
        degrees = range(n + 1)
        cover = orientation_cover(M)
        total = cover_chains(cover, ring)
        base = pair_complex(M, constant_system(M, ring))

        def tau(k):
            return deck_chain_matrix(cover, ring, k, total)

        def p(k):
            return vertex_map_chain_matrix(cover.projection, k, total, base)

        faults += [((name, "tau^2"), k) for k in degrees
                   if tau(k) @ tau(k) != ExactMatrix.identity(
                       ring, total.length(k))]
        faults += _chain_map_faults((name, "tau"), tau, total.boundary,
                                    total.boundary, degrees)
        faults += _chain_map_faults((name, "p"), p, total.boundary,
                                    base.boundary, degrees)
        killed = relative_killed(M, FullSubcomplex(M, {0}))
        for G in (orientation_system(M, ring),
                  random_flat_system(M, ring, 2, seed=1)):
            pc = pair_complex(M, G)
            rel = pair_complex(M, G, killed=killed)
            faults += _chain_map_faults(
                (name, f"T rank {G.rank}"),
                lambda k: transfer_matrix(pc, rel, k), pc.boundary,
                rel.boundary, degrees)
    assert faults == []
