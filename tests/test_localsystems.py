import random
import re
from fractions import Fraction

import pytest

from twistcap.chains import PairComplex
from twistcap.complexes import SimplicialComplex, corpus
from twistcap.errors import (BaseMismatch, FlatnessViolation,
                             NotClosedPseudomanifold, RingMismatch,
                             SystemFormatError, TwistcapError)
from twistcap.localsystems import (LocalSystem, constant_system,
                                   dumps_local_system, gauge_transform,
                                   holonomy, is_trivializable,
                                   loads_local_system, orientation_system,
                                   random_flat_system, random_sign_cocycle,
                                   tensor, validate_flatness)
from twistcap.matrices import ExactMatrix
from twistcap.rings import Q, Z, Zmod


def test_constant_system_flat():
    cx = corpus("rp2")
    for rank in (1, 2):
        g = constant_system(cx, Z, rank)
        ok, witness = validate_flatness(g)
        assert ok and witness is None


def _not_invertible(edge):
    return pytest.raises(TwistcapError, match=re.escape(
        f"transport at {edge} is not invertible"))


def test_a_wrong_known_reverse_is_rejected():
    cx = corpus("circle")
    edges = cx.faces(1)
    first, last = edges[0], edges[-1]
    # shared matrices, each transport passed as its own reverse
    two = ExactMatrix(Z, [[2]])
    with _not_invertible(first):
        LocalSystem(cx, Z, 1, {e: two for e in edges}, {e: two for e in edges})
    # a pair checked on the first edges does not vouch for a last edge that
    # shares the transport but brings its own, wrong, reverse
    minus = ExactMatrix(Z, [[-1]])
    reverse = {e: minus for e in edges} | {last: ExactMatrix(Z, [[1]])}
    with _not_invertible(last):
        LocalSystem(cx, Z, 1, {e: minus for e in edges}, reverse)
    # per-edge matrices, every reverse right but the last
    transport = {e: ExactMatrix(Q, [[2]]) for e in edges}
    reverse = {e: ExactMatrix(Q, [[Fraction(1, 2)]]) for e in edges}
    g = LocalSystem(cx, Q, 1, transport, reverse)
    assert g.transport(*reversed(last)) is reverse[last]
    reverse[last] = ExactMatrix(Q, [[2]])
    with _not_invertible(last):
        LocalSystem(cx, Q, 1, transport, reverse)


@pytest.mark.parametrize("name", ["sphere2", "rp2", "torus", "klein", "sphere3"])
def test_orientation_system_flat(name):
    cx = corpus(name)
    g = orientation_system(cx, Z)
    assert g.is_sign_system()
    ok, _ = validate_flatness(g)
    assert ok


def test_orientation_rejects_open_complex():
    disk = SimplicialComplex(3, [(0, 1, 2)])
    with pytest.raises(NotClosedPseudomanifold):
        orientation_system(disk, Z)


def test_corrupting_one_edge_breaks_flatness():
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    edge = cx.faces(1)[0]
    transport = dict(g.edge_items())
    transport[edge] = transport[edge].scale(-1)
    bad = LocalSystem(cx, Z, 1, transport)
    ok, witness = validate_flatness(bad)
    assert not ok
    assert witness is not None and set(edge) <= set(witness)


def test_a_bad_triangle_after_the_first_is_the_witness():
    # flipping the sign of the last edge breaks exactly the triangles
    # through it, the first of which is not the complex's first triangle
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    edge = cx.faces(1)[-1]
    transport = dict(g.edge_items())
    transport[edge] = transport[edge].scale(-1)
    bad = LocalSystem(cx, Z, 1, transport)
    first_bad = next(t for t in cx.faces(2) if set(edge) <= set(t))
    assert first_bad != cx.faces(2)[0]
    assert validate_flatness(bad) == (False, first_bad)
    with pytest.raises(FlatnessViolation,
                       match=re.escape(f"not flat at triangle {first_bad}")):
        PairComplex(cx, bad)


def test_orientability_detection():
    assert is_trivializable(orientation_system(corpus("sphere2"), Z))[0]
    assert is_trivializable(orientation_system(corpus("torus"), Z))[0]
    assert is_trivializable(orientation_system(corpus("sphere3"), Z))[0]
    assert not is_trivializable(orientation_system(corpus("rp2"), Z))[0]
    assert not is_trivializable(orientation_system(corpus("klein"), Z))[0]


def test_trivializing_gauge_actually_trivializes():
    cx = corpus("torus")
    g = orientation_system(cx, Z)
    ok, gauge = is_trivializable(g)
    assert ok
    ident = ExactMatrix.identity(Z, 1)
    fixed = gauge_transform(g, gauge)
    assert all(m == ident for _, m in fixed.edge_items())


def test_only_paths_of_three_or_more_vertices_are_built():
    rp2 = corpus("rp2")
    cx = SimplicialComplex(rp2.vertex_count, rp2.maximal_simplices)
    G = random_flat_system(cx, Z, 2, seed=4)
    u, v, w = cx.faces(2)[0]
    # a one-vertex path is the system's one identity, a two-vertex path
    # its edge transport itself
    assert G.path_transport([u]) is G.path_transport([w])
    assert G.path_transport([u]) == ExactMatrix.identity(Z, 2)
    assert G.path_transport((u, v)) is G.transport(u, v)
    assert G.path_transport((w, u)) is G.transport(w, u)
    longer = G.path_transport((u, v, w))
    assert longer == G.transport(u, v) @ G.transport(v, w)
    assert G.path_transport([u, v, w]) is longer
    paths = [key[1] for key in G._cache
             if isinstance(key, tuple) and key[0] == "path"]
    assert paths == [(u, v, w)]


def test_rp2_has_minus_one_holonomy_loop():
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    minus = ExactMatrix(Z, [[-1]])
    # some 3-cycle of the 1-skeleton carries the nontrivial holonomy
    found = False
    for u in range(6):
        for v in range(u + 1, 6):
            for w in range(v + 1, 6):
                if ((u, v) in cx.face_index(1) and (v, w) in cx.face_index(1)
                        and (u, w) in cx.face_index(1)):
                    if holonomy(g, [u, v, w]) == minus:
                        found = True
    assert found


def test_tensor_of_orientation_with_itself_trivializes():
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    gg = tensor(g, g)
    assert gg.rank == 1
    ok, _ = is_trivializable(gg)
    assert ok


def test_tensor_shapes_and_errors():
    cx = corpus("torus")
    a = constant_system(cx, Z, 2)
    b = orientation_system(cx, Z)
    t = tensor(a, b)
    assert t.rank == 2
    ok, _ = validate_flatness(t)
    assert ok
    with pytest.raises(RingMismatch):
        tensor(a, constant_system(cx, Q, 1))
    with pytest.raises(BaseMismatch):
        tensor(a, constant_system(corpus("rp2"), Z, 1))


def test_rank1_holonomy_gauge_invariant():
    cx = corpus("klein")
    g = orientation_system(cx, Z)
    rng = random.Random(7)
    gauge = {v: ExactMatrix(Z, [[rng.choice((-1, 1))]])
             for v in range(cx.vertex_count)}
    h = gauge_transform(g, gauge)
    loops = [[0, 1, 4], [0, 1, 2], [3, 4, 7]]
    for loop in loops:
        if all(tuple(sorted(pair)) in cx.face_index(1)
               for pair in zip(loop, loop[1:] + loop[:1])):
            assert holonomy(g, loop) == holonomy(h, loop)


def test_orientation_reference_independence_up_to_gauge():
    # rebuilding transports through different facet choices must give the
    # same loop holonomies (rank-1 gauge invariance)
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    from twistcap.complexes import star_signs
    transport = {}
    for (u, v) in cx.faces(1):
        facet = [f for f in cx.facets if u in f and v in f][-1]  # other choice
        sign = star_signs(cx, u)[facet] * star_signs(cx, v)[facet]
        transport[(u, v)] = ExactMatrix(Z, [[sign]])
    g2 = LocalSystem(cx, Z, 1, transport)
    ok, _ = validate_flatness(g2)
    assert ok
    for tri in cx.faces(2):
        u, v, w = tri
        assert holonomy(g, [u, v, w]) == holonomy(g2, [u, v, w])


@pytest.mark.parametrize("seed", range(5))
def test_random_flat_systems_are_flat(seed):
    for name in ("torus", "rp2"):
        cx = corpus(name)
        for ring in (Z, Zmod(3), Q):
            g = random_flat_system(cx, ring, 2, seed)
            ok, _ = validate_flatness(g)
            assert ok
            assert g.rank == 2


def test_random_sign_cocycle_satisfies_triangles():
    cx = corpus("klein")
    for seed in range(6):
        signs = random_sign_cocycle(cx, seed)
        for (u, v, w) in cx.faces(2):
            assert signs[(u, v)] * signs[(v, w)] * signs[(u, w)] == 1


def test_file_roundtrip():
    cx = corpus("rp2")
    g = orientation_system(cx, Z)
    text = dumps_local_system(g)
    g2 = loads_local_system(text, cx)
    assert g2.rank == 1 and g2.ring == Z
    assert dict(g.edge_items()) == dict(g2.edge_items())


def test_file_rational_entries_and_defaults():
    cx = corpus("circle")
    text = "ring Q\nrank 1\nedge 0 1\n3/2\n"
    g = loads_local_system(text, cx)
    assert g.transport(0, 1).data[0][0] == 1.5
    ident = ExactMatrix.identity(Q, 1)
    assert g.transport(1, 2) == ident  # unlisted edges default to identity


def test_file_errors_have_line_numbers():
    cx = corpus("circle")
    with pytest.raises(SystemFormatError) as exc:
        loads_local_system("ring Z\nrank 1\nedge 1 0\n1\n", cx)
    assert "line 3" in str(exc.value)
    with pytest.raises(SystemFormatError):
        loads_local_system("rank 1\nedge 0 1\n1\n", cx)  # ring missing
    with pytest.raises(SystemFormatError):
        loads_local_system("ring Z\nrank 1\nedge 0 1\n0\n", cx)  # singular
    with pytest.raises(SystemFormatError):
        loads_local_system("ring Z\nrank 1\nedge 0 3\n1\n", cx)  # no such edge
    with pytest.raises(SystemFormatError):
        loads_local_system("ring Z\nrank 2\nedge 0 1\n1 0\n", cx)  # short block
