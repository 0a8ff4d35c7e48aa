import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcap import complexes
from twistcap.complexes import (BUILTIN_NAMES, FullSubcomplex,
                                SimplicialComplex, Subcomplex, _grid_klein,
                                _grid_torus, closed_star, corpus,
                                dumps_complex, loads_complex, named_complex,
                                ridge_sign_walk, star_signs, validate,
                                whole_subcomplex)
from twistcap.errors import (ComplexFormatError, DisconnectedStar,
                             TwistcapError, UnknownName)

import oracles
from test_cli import _pinched


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


@pytest.mark.parametrize("sides", [(4, 2), (2, 4), (2, 2), (1, 4), (4, 1)],
                         ids=lambda sides: "%dx%d" % sides)
@pytest.mark.parametrize("build", [_grid_torus, _grid_klein],
                         ids=["torus", "klein"])
def test_a_grid_side_below_3_is_refused(build, sides):
    # a side of 2 makes squares share edges, which no closed surface has,
    # and a side of 1 makes triangles with a repeated vertex
    with pytest.raises(TwistcapError, match="sides of at least 3, not "
                       "%dx%d" % sides):
        build(*sides)
    for smallest in ((3, 3), (3, 4), (4, 3)):
        assert validate(build(*smallest)).closed_pseudomanifold


def test_snf_scaling_refuses_a_grid_side_below_3():
    tool = Path(__file__).resolve().parent.parent / "tools" / "snf_scaling.py"
    run = subprocess.run([sys.executable, str(tool), "--diagram6", "klein",
                          "Z", "4x2"], capture_output=True, text=True,
                         timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == ("error: a grid surface needs sides of at least 3, "
                          "not 4x2\n")


def test_star_walk_identity_and_adjacent():
    cx = corpus("sphere2")
    f = (0, 1, 2)
    assert ridge_sign_walk(cx, f, 0)[f] == 1
    # adjacent facets across ridge (0,1): dropped vertices both at even
    # positions, so the relative sign is -1 (they orient S^2 coherently
    # with alternating facet signs)
    assert ridge_sign_walk(cx, (0, 1, 2), 0)[(0, 1, 3)] == -1


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
                from_a = ridge_sign_walk(cx, a, v)
                assert set(from_a) == set(star)
                for b in star:
                    assert from_a[b] == signs[a] * signs[b]


def test_star_walk_errors():
    # vertex 2's two facets share no ridge through it
    two = SimplicialComplex(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5)])
    assert ridge_sign_walk(two, (0, 1, 2), 2) == {(0, 1, 2): 1}
    with pytest.raises(DisconnectedStar,
                       match="star of vertex 2 is disconnected"):
        star_signs(two, 2)


def test_full_subcomplex_and_complement():
    cx = corpus("sphere2")
    K = FullSubcomplex(cx, {0})
    comp = K.complement()
    assert comp.vertex_subset == frozenset({1, 2, 3})
    assert comp.simplices(2) == ((1, 2, 3),)
    assert comp.complement() == K

    everything = FullSubcomplex(cx, range(4))
    assert everything.complement().simplices(0) == ()
    empty = FullSubcomplex(cx, ())
    assert empty.complement().simplices(2) == cx.faces(2)


def test_a_complex_past_the_face_bound_is_refused(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_FACES", 12)
    # two triangles on an edge: 11 distinct faces, 14 with the repeats
    assert sum(SimplicialComplex(4, [(0, 1, 2), (1, 2, 3)]).f_vector()) == 11
    # and a pendant edge: 13 faces, though no simplex has more than 7
    with pytest.raises(TwistcapError,
                       match="has 13 faces or more, over the bound of 12"):
        SimplicialComplex(5, [(0, 1, 2), (1, 2, 3), (3, 4)])
    # a simplex of 15 faces is refused before its faces are listed
    with pytest.raises(TwistcapError,
                       match="a 3-simplex has 15 faces, over the bound of 12"):
        SimplicialComplex(4, [(0, 1, 2, 3)])


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


def test_stored_hashes_equal_those_of_fresh_equal_objects():
    cx = corpus("sphere2")
    a = Subcomplex(cx, [(0, 1, 2)])
    b = Subcomplex(cx, [(0, 1, 3)])
    built = {"union": a.union(b), "intersection": a.intersection(b),
             "star": closed_star(cx, {0}), "empty": a.intersection(
                 Subcomplex(cx, [(3,)])), "whole": whole_subcomplex(cx)}
    fresh_cx = SimplicialComplex(cx.vertex_count, cx.maximal_simplices)
    for name, sub in built.items():
        # asked twice, so the second ask reads the stored hash
        assert hash(sub) == hash(sub), name
        twin = Subcomplex(fresh_cx, [s for k in range(3)
                                     for s in sub.faces(k)])
        assert twin == sub and hash(twin) == hash(sub), name
    assert hash(cx) == hash(cx) == hash(fresh_cx) and fresh_cx == cx
    assert {built["union"]: 1}[Subcomplex(fresh_cx, [(0, 1, 2),
                                                     (0, 1, 3)])] == 1


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


# -- links checked in place, against the recursion over link complexes --------

def _complex(faces):
    """The complex on the faces, its vertices relabelled to 0..m-1."""
    order = {v: i for i, v in enumerate(sorted({v for s in faces for v in s}))}
    return SimplicialComplex(len(order),
                             [tuple(order[v] for v in s) for s in faces])


def _faces(cx):
    return {s for k in range(cx.dimension + 1) for s in cx.faces(k)}


def _cone(faces):
    apex = 1 + max(v for s in faces for v in s)
    return faces | {s + (apex,) for s in faces} | {(apex,)}


def _suspension(faces):
    apex = 1 + max(v for s in faces for v in s)
    return faces | {s + (a,) for s in faces for a in (apex, apex + 1)} \
        | {(apex,), (apex + 1,)}


def _shifted(faces, offset):
    return {tuple(v + offset for v in s) for s in faces}


def _disjoint_union(a, b):
    return a | _shifted(b, 1 + max(v for s in a for v in s))


def _wedge(a, b):
    """a and b glued at their lowest vertices."""
    offset = max(v for s in a for v in s)
    return a | {tuple(0 if v == 0 else v + offset for v in s) for s in b}


def _edge_pinched_sphere3():
    """The join of two hexagons, a 3-sphere, with the edges (0, 6) and
    (3, 9) contracted: the edges (0, 9) and (6, 3) become one edge whose link
    is two circles, while every vertex star stays connected."""
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    merge = {6: 0, 9: 3}
    images = [{merge.get(v, v) for v in a + (6 + b, 6 + c)}
              for a in hexagon for b, c in hexagon]
    return oracles.face_closure(f for f in images if len(f) == 4)


def _assert_links_match(faces):
    expected = oracles.links_validated(faces)
    assert validate(_complex(faces)).links_validated == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(gens=st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5),
                     min_size=1, max_size=12))
def test_links_validated_matches_recursion_on_random_complexes(gens):
    _assert_links_match(oracles.face_closure(gens))


def test_links_validated_matches_recursion_on_random_graph_families():
    # a cycle through some vertices with random chords: the bare cycle, its
    # suspension and its double suspension pass, every cone fails
    verdicts = set()

    @settings(max_examples=150, deadline=None)
    @given(order=st.permutations(range(6)), length=st.integers(3, 6),
           chords=st.lists(st.sets(st.integers(0, 5), min_size=2, max_size=2),
                           max_size=4))
    def check(order, length, chords):
        cycle = order[:length]
        graph = oracles.face_closure(
            [(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            + [tuple(c) for c in chords])
        for faces in (graph, _cone(graph), _suspension(graph),
                      _suspension(_suspension(graph))):
            verdicts.add(_assert_links_match(faces))

    check()
    assert verdicts == {False, True}


def test_links_validated_matches_recursion_on_built_families():
    circle = oracles.face_closure([(0, 1), (1, 2), (0, 2)])
    surfaces = [_faces(corpus(name)) for name in ("sphere2", "torus", "rp2",
                                                  "klein")]
    pinched = [_faces(_pinched(build)) for build in (_grid_torus, _grid_klein)]
    families = [circle, _faces(corpus("sphere3"))] + surfaces + pinched
    families += [_cone(f) for f in [circle] + surfaces]
    families += [_suspension(f) for f in [circle] + surfaces + pinched]
    families += [_suspension(_suspension(f)) for f in (circle, surfaces[0])]
    families += [_wedge(a, b) for a in (circle, surfaces[0])
                 for b in (circle, surfaces[1])]
    families += [_disjoint_union(a, b) for a in (circle, surfaces[0])
                 for b in (circle, surfaces[2])]
    families += [_suspension(_disjoint_union(circle, circle)),
                 _suspension(_wedge(circle, circle)), _edge_pinched_sphere3()]
    verdicts = [_assert_links_match(f) for f in families]
    assert True in verdicts and False in verdicts


def _brute_force_star(cx, v):
    return tuple(sorted(f for f in cx.facets if v in f))


def _assert_star_index_matches_scans(cx):
    stars = cx.vertex_stars()
    assert set(stars) == set(range(cx.vertex_count))
    for v in range(cx.vertex_count):
        assert stars[v] == _brute_force_star(cx, v)
    for u, v in cx.faces(1):
        containing = [f for f in cx.facets if u in f and v in f]
        # the orientation system reads the lowest facet of an edge this way
        assert next((f for f in stars[u] if v in f), None) \
            == (min(containing) if containing else None)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_star_index_of_builtin_complexes(name):
    _assert_star_index_matches_scans(named_complex(name))


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
                     min_size=1, max_size=10))
def test_star_index_matches_brute_force(gens):
    _assert_star_index_matches_scans(_complex(oracles.face_closure(gens)))
