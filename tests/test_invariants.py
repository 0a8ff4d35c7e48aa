"""Cross-module invariants."""

from twistcap.chains import homology
from twistcap.complexes import corpus, dumps_complex, star_component_walk
from twistcap.covers import build_double_cover
from twistcap.fpmodules import (ModuleMap, homology_presentation,
                                is_isomorphism)
from twistcap.localsystems import (constant_system, holonomy,
                                   orientation_system, random_flat_system, tensor)
from twistcap.matrices import ExactMatrix
from twistcap.rings import Z

from oracles import RP2_FACETS, boundary_matrix


def test_dual_graph_ridges_label_unique_edges():
    for name in ("sphere2", "rp2", "torus", "klein", "rp3"):
        cx = corpus(name)
        labels = {}
        for f, neighbours in cx.facet_adjacency().items():
            for g, ridge in neighbours:
                labels.setdefault(ridge, set()).add(frozenset((f, g)))
        # each ridge labels exactly one adjacent pair
        assert all(len(pairs) == 1 for pairs in labels.values())
        # closed pseudomanifold: every ridge labels exactly one dual edge
        pairs = set().union(*labels.values())
        assert len(pairs) == len(cx.faces(cx.dimension - 1))


def _all_simple_dual_paths(cx, vertex, start, goal):
    adj = cx.facet_adjacency()
    paths = []

    def walk(node, sign, seen):
        if node == goal:
            paths.append(sign)
            return
        for nxt, ridge in adj[node]:
            if vertex in nxt and nxt not in seen:
                from twistcap.complexes import _ridge_sign
                step = -_ridge_sign(node, ridge) * _ridge_sign(nxt, ridge)
                walk(nxt, sign * step, seen | {nxt})

    walk(start, 1, {start})
    return paths


def test_star_walk_sign_exhaustive_path_enumeration():
    # every simple dual path between two star facets carries the same sign
    for name in ("rp2", "torus"):
        cx = corpus(name)
        for vertex in range(cx.vertex_count):
            star = [f for f in cx.facets if vertex in f]
            a, b = star[0], star[-1]
            signs = set(_all_simple_dual_paths(cx, vertex, a, b))
            assert len(signs) == 1
            assert star_component_walk(cx, vertex, a, b) in signs


def test_orientation_reference_choice_is_gauge():
    # recompute star signs from the *last* facet containing each vertex;
    # edge signs change by a vertex gauge, loop holonomies do not change
    from twistcap.complexes import _star_signs_from
    from twistcap.localsystems import LocalSystem
    cx = corpus("klein")
    stars = cx.vertex_stars()
    alt_signs = {}
    for v in range(cx.vertex_count):
        alt_signs[v] = _star_signs_from(cx, v, stars[v][-1])
    transport = {}
    for (u, v) in cx.faces(1):
        facet = next(f for f in stars[u] if v in f)
        sign = alt_signs[u][facet] * alt_signs[v][facet]
        transport[(u, v)] = ExactMatrix(Z, [[sign]])
    alt = LocalSystem(cx, Z, 1, transport)
    standard = orientation_system(cx, Z)
    for tri in cx.faces(2):
        u, v, w = tri
        assert holonomy(alt, [u, v, w]) == holonomy(standard, [u, v, w])


def test_homology_presentation_idempotent():
    rows2, _, _ = boundary_matrix(RP2_FACETS, 2)
    rows1, _, _ = boundary_matrix(RP2_FACETS, 1)
    d2, d1 = ExactMatrix(Z, rows2), ExactMatrix(Z, rows1)
    a = homology_presentation(d2, d1)
    # an equal but distinct d_in, so the second call presents again
    b = homology_presentation(ExactMatrix._from_rows(Z, d2.sparse_rows, d2.cols),
                              d1)
    assert b is not a
    assert a.module.normal_form == b.module.normal_form
    assert a.cycles == b.cycles


def test_inverse_certificate_is_itself_an_isomorphism():
    cx = corpus("klein")
    pres = homology(cx, constant_system(cx, Z), 1)
    m = pres.module
    f = ModuleMap(m, m, ExactMatrix.identity(Z, m.generator_count))
    res = is_isomorphism(f)
    assert res.isomorphism
    back = ModuleMap(m, m, res.inverse)
    assert is_isomorphism(back).isomorphism


def test_tensor_associative_exactly():
    # Kronecker flattening is strictly associative in these coordinates
    cx = corpus("torus")
    a = random_flat_system(cx, Z, 2, 5)
    b = orientation_system(cx, Z)
    c = random_flat_system(cx, Z, 1, 7)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert dict(left.edge_items()) == dict(right.edge_items())


def test_corpus_is_byte_stable():
    for name in ("circle", "sphere2", "torus", "rp2", "klein", "rp3", "sphere3"):
        assert dumps_complex(corpus(name)) == dumps_complex(corpus(name))
        assert corpus(name) is corpus(name)  # cached singleton


def test_cover_cocycle_equivalences_threeway():
    # connectivity of the cover, non-trivializability of the cocycle and
    # base non-orientability: three independently computed booleans agree
    from twistcap.localsystems import is_trivializable
    for name in ("sphere2", "torus", "rp2", "klein", "rp3", "sphere3"):
        M = corpus(name)
        omega = orientation_system(M, Z)
        cover = build_double_cover(M, omega)
        trivial, _ = is_trivializable(omega)
        adj = cover.total.facet_adjacency()
        start = cover.total.facets[0]
        seen = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            for g2, _ in adj[f]:
                if g2 not in seen:
                    seen.add(g2)
                    stack.append(g2)
        connected = len(seen) == len(cover.total.facets)
        orientable = trivial
        assert connected == (not orientable)
        assert (not trivial) == connected
