import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcap.complexes import (BUILTIN_NAMES, FullSubcomplex,
                                SimplicialComplex, Subcomplex, closed_star,
                                complement, corpus, dumps_complex,
                                loads_complex, named_complex, star_component_walk,
                                star_signs, validate, whole_subcomplex)
from twistcap.errors import (ComplexFormatError, DisconnectedStar, NotInStar,
                             TwistcapError, UnknownName)


def test_tetrahedron_boundary_validates():
    cx = corpus("sphere2")
    rep = validate(cx)
    assert rep.closed_pseudomanifold
    assert rep.links_validated
    assert rep.dimension == 2
    assert rep.euler_characteristic == 2


def test_two_triangles_fail_ridge_condition():
    cx = SimplicialComplex(4, [(0, 1, 2), (1, 2, 3)])
    rep = validate(cx)
    assert rep.is_pure
    assert not rep.each_ridge_in_two_facets
    assert not rep.closed_pseudomanifold


def test_rp2_counts():
    cx = corpus("rp2")
    rep = validate(cx)
    assert rep.closed_pseudomanifold and rep.links_validated
    assert cx.f_vector() == (6, 15, 10)
    assert rep.euler_characteristic == 1


def test_torus_counts():
    cx = corpus("torus")
    rep = validate(cx)
    assert rep.closed_pseudomanifold and rep.links_validated
    assert cx.f_vector() == (7, 21, 14)
    assert rep.euler_characteristic == 0


def test_klein_is_closed_with_chi_zero():
    cx = corpus("klein")
    rep = validate(cx)
    assert rep.closed_pseudomanifold and rep.links_validated
    assert rep.euler_characteristic == 0


def test_sphere3_and_circle():
    s3 = corpus("sphere3")
    rep = validate(s3)
    assert rep.closed_pseudomanifold and rep.dimension == 3
    assert rep.euler_characteristic == 0

    c = corpus("circle")
    rep = validate(c)
    assert rep.closed_pseudomanifold and rep.dimension == 1
    assert rep.euler_characteristic == 0


def test_octahedron_and_grid_torus():
    oc = named_complex("octahedron")
    assert validate(oc).closed_pseudomanifold
    assert oc.euler_characteristic() == 2

    t4 = named_complex("torus4")
    assert validate(t4).closed_pseudomanifold
    assert t4.euler_characteristic() == 0

    with pytest.raises(UnknownName):
        named_complex("not-a-thing")
    with pytest.raises(UnknownName):
        corpus("octahedron")


def test_star_walk_identity_and_adjacent():
    cx = corpus("sphere2")
    f = (0, 1, 2)
    assert star_component_walk(cx, 0, f, f) == 1
    # adjacent facets across ridge (0,1): dropped vertices both at even
    # positions, so the relative sign is -1 (they orient S^2 coherently
    # with alternating facet signs)
    assert star_component_walk(cx, 0, (0, 1, 2), (0, 1, 3)) == -1


def test_star_walk_path_independent_everywhere():
    for name in ("sphere2", "rp2", "torus", "klein"):
        cx = corpus(name)
        for v in range(cx.vertex_count):
            star = [f for f in cx.facets if v in f]
            # exhaust all ordered pairs; BFS consistency check inside
            # star_signs already compares every closing edge of every cycle
            signs = star_signs(cx, v)
            assert set(signs) == set(star)
            for a in star:
                for b in star:
                    assert star_component_walk(cx, v, a, b) == signs[a] * signs[b]


def test_star_walk_errors():
    cx = corpus("sphere2")
    with pytest.raises(NotInStar):
        star_component_walk(cx, 3, (0, 1, 2), (0, 1, 3))
    two = SimplicialComplex(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5)])
    with pytest.raises((DisconnectedStar, NotInStar)):
        star_component_walk(two, 2, (0, 1, 2), (2, 4, 5))


def test_full_subcomplex_and_complement():
    cx = corpus("sphere2")
    K = FullSubcomplex(cx, {0})
    comp = complement(K)
    assert comp.vertex_subset == frozenset({1, 2, 3})
    assert comp.simplices(2) == ((1, 2, 3),)
    assert complement(comp) == K

    everything = FullSubcomplex(cx, range(4))
    assert complement(everything).simplices(0) == ()
    empty = FullSubcomplex(cx, ())
    assert complement(empty).simplices(2) == cx.faces(2)


def test_subcomplex_operations():
    cx = corpus("sphere2")
    a = Subcomplex(cx, [(0, 1, 2)])
    b = Subcomplex(cx, [(0, 1, 3)])
    u = a.union(b)
    i = a.intersection(b)
    assert u.contains((0, 1, 2)) and u.contains((0, 1, 3))
    assert i.faces(1) == frozenset({(0, 1)})
    assert a.issubset(whole_subcomplex(cx))
    star0 = closed_star(cx, {0})
    # closure pulls in faces of the star facets, but not the opposite facet
    assert star0.contains((1, 2)) and star0.contains((2, 3))
    assert not star0.contains((1, 2, 3))


def test_file_roundtrip_and_errors():
    cx = corpus("rp2")
    text = dumps_complex(cx)
    back = loads_complex(text)
    assert back == cx

    with pytest.raises(ComplexFormatError):
        loads_complex("simplex 0 1\n")  # missing dim header
    with pytest.raises(ComplexFormatError) as exc:
        loads_complex("dim 1\nsimplex 1 0\n")
    assert "ascending" in str(exc.value)
    with pytest.raises(ComplexFormatError):
        loads_complex("dim 1\nsimplex 0 1 2\n")  # exceeds declared dim
    with pytest.raises(ComplexFormatError):
        loads_complex("dim 2\nsimplex 0 1\n")  # dim mismatch overall
    with pytest.raises(ComplexFormatError):
        loads_complex("dim 1\nsimplex 0 x\n")


def test_construction_guards():
    with pytest.raises(TwistcapError):
        SimplicialComplex(3, [(0, 0, 1)])
    with pytest.raises(TwistcapError):
        SimplicialComplex(5, [(0, 1, 2)])  # vertices 3, 4 uncovered
    with pytest.raises(TwistcapError):
        SimplicialComplex(2, [(0, 3)])


def _brute_force_maximal(simplices):
    """The simplices contained in no other one of the list."""
    sets = [frozenset(s) for s in simplices]
    return {tuple(sorted(s)) for s in sets if not any(s < t for t in sets)}


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                     min_size=1, max_size=8))
def test_maximal_simplices_match_brute_force(gens):
    # the maximal faces of the closure of a list are its maximal members
    simplices = [tuple(g) for g in gens] + [(v,) for v in range(7)]
    cx = SimplicialComplex(7, simplices)
    assert cx.maximal_simplices == _brute_force_maximal(simplices)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_maximal_simplices_of_builtin_complexes(name):
    cx = named_complex(name)
    every = [s for k in range(cx.dimension + 1) for s in cx.faces(k)]
    assert cx.maximal_simplices == _brute_force_maximal(every)


def test_euler_characteristics_of_surface_corpus():
    expected = {"sphere2": 2, "torus": 0, "rp2": 1, "klein": 0}
    for name, chi in expected.items():
        assert corpus(name).euler_characteristic() == chi
