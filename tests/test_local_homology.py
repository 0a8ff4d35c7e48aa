"""The orientation system against local homology.

On a closed n-manifold M the orientation system is, up to a change of
fiber bases, the system whose fiber at a vertex v is the local homology
H_n(M|v) and whose transport along an edge uv is the composite of the
restrictions H_n(M|v) <- H_n(M|uv) -> H_n(M|u), both isomorphisms.  The
oracle here reads those modules and restrictions off `chains.homology` of
the relative chains C(M|K), K the full subcomplex on {v} or {u, v}, with
constant coefficients; it never reads the star signs that
`orientation_system` is built from.  Each local homology module is free of
rank one, so a restriction is one unit, and the transport along uv is the
ratio of the two.  Two rank-1 sign systems are compared by holonomy: a
gauge fixed on a spanning tree turns one system's tree transports into the
other's, and then every edge must agree.
"""

from itertools import combinations

import pytest

from twistcap import localsystems
from twistcap.chains import homology, pair_complex, relative_killed, \
    transfer_matrix
from twistcap.complexes import (CORPUS_NAMES, FullSubcomplex,
                                SimplicialComplex, _grid_klein, _grid_torus,
                                corpus)
from twistcap.chains import fundamental_class_direct
from twistcap.errors import NotClosedPseudomanifold
from twistcap.fpmodules import induced_map
from twistcap.localsystems import constant_system, orientation_system
from twistcap.rings import Z, Zmod

RINGS = {"Z": Z, "Z/4": Zmod(4)}
COMPLEXES = dict({name: lambda name=name: corpus(name)
                  for name in CORPUS_NAMES},
                 klein4x4=lambda: _grid_klein(4, 4),
                 torus4x4=lambda: _grid_torus(4, 4))


def fresh(name):
    """A copy of a complex that shares no memo with the built-in one, so
    what the oracle builds dies with the test."""
    M = COMPLEXES[name]()
    return SimplicialComplex(M.vertex_count, M.facets)


def local_homology(M, G, vertices):
    """(C(M|K), H_n(M|K)) for K the full subcomplex on `vertices`; the
    module must be free of rank one."""
    K = FullSubcomplex(M, vertices)
    presented = homology(M, G, M.dimension, K)
    assert presented.module.generator_count == 1
    assert presented.module.normal_form == (1, ())
    return pair_complex(M, G, killed=relative_killed(M, K)), presented


def restriction(big, small, n):
    """The unit by which H_n(M|uv) -> H_n(M|u) sends generator to
    generator."""
    (src_pc, src), (dst_pc, dst) = big, small
    unit = induced_map(transfer_matrix(src_pc, dst_pc, n), src,
                       dst).matrix.entry(0, 0)
    assert src.ring.is_unit(unit)
    return unit


def local_transports(M, ring):
    """{edge (u, v): the transport H_n(M|v) -> H_n(M|u)} of local
    homology, each on the generators the presentations chose."""
    G, n = constant_system(M, ring), M.dimension
    local = {v: local_homology(M, G, {v}) for v in range(M.vertex_count)}
    transports = {}
    for u, v in M.faces(1):
        edge = local_homology(M, G, {u, v})
        to_u = restriction(edge, local[u], n)
        to_v = restriction(edge, local[v], n)
        # a unit of Z or Z/4 is its own inverse
        assert ring.normalize(to_v * to_v) == ring.one
        transports[(u, v)] = ring.normalize(to_u * to_v)
    return transports


def gauge_equivalent(transports, system):
    """True when a change of fiber bases carries `transports` to the rank-1
    `system`'s: a gauge fixed on a spanning tree, then every edge checked."""
    M, ring = system.base, system.ring
    theirs = {(u, v): system.transport(u, v).entry(0, 0)
              for u, v in M.faces(1)}
    neighbours = {v: [] for v in range(M.vertex_count)}
    for u, v in transports:
        neighbours[u].append(v)
        neighbours[v].append(u)

    def ratio(u, v):
        # the gauge g_v that makes g_u^-1 t(u, v) g_v the system's, with
        # t(v, u) = t(u, v)^-1 = t(u, v) for a sign
        edge = (min(u, v), max(u, v))
        return ring.normalize(transports[edge] * theirs[edge])

    gauge = {0: ring.one}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbours[u]:
            if v not in gauge:
                gauge[v] = ring.normalize(gauge[u] * ratio(u, v))
                stack.append(v)
    assert len(gauge) == M.vertex_count
    return all(ring.normalize(gauge[u] * gauge[v]) == ratio(u, v)
               for u, v in transports)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name", COMPLEXES)
def test_the_orientation_system_is_local_homology(name, ring):
    M, R = fresh(name), RINGS[ring]
    assert gauge_equivalent(local_transports(M, R), orientation_system(M, R))


@pytest.mark.parametrize("ring", RINGS)
def test_the_constant_system_of_klein_is_not_local_homology(ring):
    M, R = fresh("klein"), RINGS[ring]
    assert not gauge_equivalent(local_transports(M, R), constant_system(M, R))


@pytest.mark.parametrize("name", ["klein", "torus4x4", "sphere3"])
def test_one_flipped_star_sign_is_not_local_homology(monkeypatch, name):
    star_signs = localsystems.star_signs

    def flipped(complex, vertex):
        signs = star_signs(complex, vertex)
        if vertex != 0:
            return signs
        first = min(signs)
        return {**signs, first: -signs[first]}
    monkeypatch.setattr(localsystems, "star_signs", flipped)
    M = fresh(name)
    assert not gauge_equivalent(local_transports(M, Z),
                                orientation_system(M, Z))


def sign(system, u, v):
    """The transport of a rank-1 sign system between u and v, either way."""
    return system.ring.one if u == v \
        else system.transport(min(u, v), max(u, v)).entry(0, 0)


def local_fundamental_signs(M, ring):
    """{v: the unit c_v by which the fundamental class, restricted to
    C(M|v) and carried to the fiber at v, is c_v times the generator of
    H_n(M|v) that `local_transports` reads}."""
    nu, n = fundamental_class_direct(M, ring), M.dimension
    G, at = constant_system(M, ring), pair_complex(M, nu.system).index(n)
    signs = {}
    for v in range(M.vertex_count):
        local_pc, presented = local_homology(M, G, {v})
        # each facet's coefficient lies in the fiber at its leading vertex
        chain = tuple(ring.normalize(nu.chain[at[s]]
                                     * sign(nu.system, v, s[0]))
                      for s in local_pc.space(n))
        (c,) = presented.class_vector(chain)
        assert ring.is_unit(c)
        signs[v] = c
    return signs


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name", ["rp2", "klein", "torus4x4", "sphere3",
                                  "rp3"])
def test_the_fundamental_class_is_a_local_generator_in_the_same_gauge(name,
                                                                      ring):
    # c_u c_v is the ratio of the two systems' transports on uv: the local
    # signs of the fundamental class are a gauge that carries the local
    # homology system to the orientation system
    M, R = fresh(name), RINGS[ring]
    signs = local_fundamental_signs(M, R)
    omega = orientation_system(M, R)
    assert all(R.normalize(signs[u] * signs[v])
               == R.normalize(t * sign(omega, u, v))
               for (u, v), t in local_transports(M, R).items())


@pytest.mark.parametrize("ring", RINGS)
def test_two_spheres_glued_at_a_vertex_are_refused(ring):
    # the boundaries of two tetrahedra sharing vertex 0: the local homology
    # there has rank two, not one, and the orientation system is refused
    M = SimplicialComplex(7, [f for tet in ((0, 1, 2, 3), (0, 4, 5, 6))
                              for f in combinations(tet, 3)])
    G, R = constant_system(M, RINGS[ring]), RINGS[ring]
    assert homology(M, G, 2, FullSubcomplex(M, {0})).module.normal_form \
        == (2, ())
    assert homology(M, G, 2, FullSubcomplex(M, {1})).module.normal_form \
        == (1, ())
    with pytest.raises(NotClosedPseudomanifold):
        orientation_system(M, R)
