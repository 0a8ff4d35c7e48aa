import random

import pytest

from twistcap.cap import (boundary_identity_check, cap_matrix, cap_setting,
                          cap_vector, relative_cap, verify_duality)
from twistcap.chains import (fundamental_class_direct, pair_complex,
                             relative_killed)
from twistcap.complexes import FullSubcomplex, corpus
from twistcap.errors import DegreeMismatch
from twistcap.fpmodules import ModuleMap
from twistcap.localsystems import (constant_system, orientation_system,
                                   random_flat_system, tensor)
from twistcap.matrices import ExactMatrix
from twistcap.rings import Q, Z, Zmod


def random_vec(ring, length, rng):
    if ring == Q:
        return tuple(ring.normalize(rng.randint(-4, 4)) for _ in range(length))
    return tuple(ring.normalize(rng.randint(-4, 4)) for _ in range(length))


def test_unit_cochain_caps_to_identity():
    M = corpus("torus")
    ring = Z
    G = constant_system(M, ring, 1)
    Gp = orientation_system(M, ring)
    cochain_pc, chain_pc, out_pc = cap_setting(M, G, Gp)
    unit = tuple(ring.one for _ in range(cochain_pc.length(0)))
    rng = random.Random(3)
    a = random_vec(ring, chain_pc.length(2), rng)
    result = cap_vector(cochain_pc, chain_pc, out_pc, 0, unit, 2, a)
    assert result == a  # G (x) Gp has the same coordinates as Gp here


def test_top_degree_cap_lands_on_leading_vertex():
    M = corpus("circle")
    ring = Z
    G = constant_system(M, ring, 1)
    Gp = constant_system(M, ring, 1)
    cochain_pc, chain_pc, out_pc = cap_setting(M, G, Gp)
    c = (2, 3, 5)    # cochain values on edges (0,1), (0,2), (1,2)
    a = (1, 0, 0)    # the chain 1 * (0,1)
    out = cap_vector(cochain_pc, chain_pc, out_pc, 1, c, 1, a)
    assert out == (2, 0, 0)  # value c((0,1)) placed on vertex 0


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_cap_boundary_identity_random(ring):
    rng = random.Random(int(str(ring).encode().hex(), 16) % 100000)
    configs = [
        ("sphere2", constant_system(corpus("sphere2"), ring, 1),
         constant_system(corpus("sphere2"), ring, 1)),
        ("rp2", constant_system(corpus("rp2"), ring, 1),
         orientation_system(corpus("rp2"), ring)),
        ("torus", random_flat_system(corpus("torus"), ring, 2, 9),
         constant_system(corpus("torus"), ring, 1)),
        ("klein", constant_system(corpus("klein"), ring, 2),
         orientation_system(corpus("klein"), ring)),
    ]
    for name, G, Gp in configs:
        M = corpus(name)
        n_dim = M.dimension
        cochain_pc, chain_pc, _ = cap_setting(M, G, Gp)
        for _ in range(25):
            k = rng.randint(0, n_dim)
            n = rng.randint(k, n_dim)
            c = random_vec(ring, cochain_pc.length(k), rng)
            a = random_vec(ring, chain_pc.length(n), rng)
            ok, diff = boundary_identity_check(M, G, Gp, k, n, c, a)
            assert ok, (name, ring, k, n, diff)


def test_cap_degree_guards():
    M = corpus("sphere2")
    G = constant_system(M, Z, 1)
    with pytest.raises(DegreeMismatch):
        cap_vector(*cap_setting(M, G, G), 2, (), 1, ())


def test_torus_cap_with_fundamental_class_pairs_cycles():
    # classical check: capping the torus fundamental class with the two
    # 1-cocycles dual to the generating circles gives intersecting 1-cycles
    M = corpus("torus")
    ring = Z
    G = constant_system(M, ring, 1)
    nu = fundamental_class_direct(M, ring)
    from twistcap.cap import cap_matrix
    pcG = pair_complex(M, G)
    pcT = pair_complex(M, tensor(G, nu.system))
    chain_pc = pair_complex(M, nu.system)
    from twistcap.fpmodules import homology_presentation, induced_map, is_isomorphism
    src = homology_presentation(pcG.coboundary(0), pcG.coboundary(1))
    dst = homology_presentation(pcT.boundary(2), pcT.boundary(1))
    f = cap_matrix(pcG, chain_pc, pcT, 1, 2, nu.chain)
    mmap = induced_map(f, src, dst)
    assert src.module.normal_form == (2, ())
    assert dst.module.normal_form == (2, ())
    assert is_isomorphism(mmap).isomorphism


def test_relative_cap_reduces_to_absolute_for_full_k():
    M = corpus("rp2")
    ring = Z
    G = constant_system(M, ring, 1)
    K = FullSubcomplex(M, range(M.vertex_count))
    nu = fundamental_class_direct(M, ring)
    pcG = pair_complex(M, G)
    # a 0-cocycle: the constant unit function
    unit = tuple(ring.one for _ in range(pcG.length(0)))
    pres, coords = relative_cap(M, G, K, 0, unit, nu)
    assert pres.module.normal_form == (1, ())
    assert pres.module.generates(coords)


def test_relative_cap_representative_independence():
    M = corpus("klein")
    ring = Z
    G = constant_system(M, ring, 1)
    K = FullSubcomplex(M, {0, 1, 2, 3, 4, 5})
    nu = fundamental_class_direct(M, ring)
    killed_pc = pair_complex(M, G, killed=K.complement().as_subcomplex())
    from twistcap.fpmodules import homology_presentation
    pres_c = homology_presentation(killed_pc.coboundary(0),
                                   killed_pc.coboundary(1))
    rng = random.Random(5)
    for j in range(min(pres_c.module.generator_count, 2)):
        c = pres_c.cycles.column(j)
        pres1, coords1 = relative_cap(M, G, K, 1, c, nu)
        # perturb the cocycle by a relative coboundary
        b = random_vec(ring, killed_pc.length(0), rng)
        c2 = tuple(ring.normalize(x + y) for x, y in
                   zip(c, killed_pc.coboundary(0).apply(b)))
        pres2, coords2 = relative_cap(M, G, K, 1, c2, nu)
        assert pres1.module == pres2.module
        assert pres1.module.classes_equal(coords1, coords2)


def test_duality_rp2_constant_spot_values():
    M = corpus("rp2")
    report = verify_duality(M, constant_system(M, Z, 1), Z)
    left = [r.left.normal_form for r in report.rows]
    right = [r.right.normal_form for r in report.rows]
    assert left == [(1, ()), (0, ()), (0, (2,))]   # H^k(RP2; Z)
    assert right == [(1, ()), (0, ()), (0, (2,))]  # H_{2-k}(RP2; twisted)
    assert report.all_verified


def test_duality_klein_orientation_spot_value():
    M = corpus("klein")
    w = orientation_system(M, Z)
    report = verify_duality(M, w, Z)
    assert report.rows[1].left.normal_form == (1, (2,))   # Z + Z/2
    assert report.rows[1].right.normal_form == (1, (2,))
    assert report.all_verified


@pytest.mark.parametrize("name", ["circle", "sphere2", "rp2", "torus", "klein"])
@pytest.mark.parametrize("ring", [Z, Zmod(3), Q])
def test_duality_surfaces_all_systems(name, ring):
    M = corpus(name)
    systems = [constant_system(M, ring, 1), constant_system(M, ring, 2),
               orientation_system(M, ring), random_flat_system(M, ring, 2, 23)]
    for G in systems:
        report = verify_duality(M, G, ring)
        assert report.all_verified, (name, ring, G)


def test_duality_betti_symmetry_over_q():
    for name in ("sphere2", "torus", "sphere3"):
        M = corpus(name)
        G = constant_system(M, Q, 1)
        report = verify_duality(M, G, Q)
        n = M.dimension
        betti = [r.left.free_rank for r in report.rows]
        assert betti == betti[::-1]


def test_duality_out_of_hypothesis_mod2_regression():
    # over Z/2 the orientation system is constant; the verdict must still
    # come back true even though the +/- machinery is unavailable
    for name in ("rp2", "klein"):
        M = corpus(name)
        ring = Zmod(2)
        report = verify_duality(M, orientation_system(M, ring), ring)
        assert report.all_verified


def test_report_serializes():
    M = corpus("circle")
    report = verify_duality(M, constant_system(M, Z, 1), Z)
    lines = list(report.table())
    assert lines[0][0] == "degree"
    assert len(lines) == 1 + len(report.rows)
    assert all("iso" in ln for ln in lines[1:])


# A frozen copy of the per-term cap loop that cap_matrix replaced: each
# n-simplex s carries the cochain value on its back face to the leading
# vertex along its front face and tensors it with the chain block on s.

def _reference_cap_vector(cochain_pc, chain_pc, out_pc, k, c_vec, n, a_vec):
    """c cap a, term by term, in the coordinates of the three complexes."""
    G = cochain_pc.system
    ring = G.ring
    rG, rGp = G.rank, chain_pc.rank
    cochain_index = cochain_pc.index(k)
    out_index = out_pc.index(n - k)
    out = [ring.zero] * out_pc.length(n - k)
    for pos, s in enumerate(chain_pc.space(n)):
        a_block = a_vec[pos * rGp:(pos + 1) * rGp]
        if not any(a_block):
            continue
        cpos = cochain_index.get(s[n - k:])
        if cpos is None:
            continue
        front = s[:n - k + 1]
        opos = out_index.get(front)
        if opos is None:
            continue
        u = c_vec[cpos * rG:(cpos + 1) * rG]
        if not any(u):
            continue
        value = G.path_transport(front).apply(u)
        base = opos * rG * rGp
        for i, x in enumerate(value):
            if x:
                for j, y in enumerate(a_block):
                    if y:
                        idx = base + i * rGp + j
                        out[idx] = ring.normalize(out[idx] + x * y)
    return tuple(out)


@pytest.mark.parametrize("ring", [Z, Zmod(3), Q], ids=str)
@pytest.mark.parametrize("name", ["circle", "sphere2", "torus", "rp2",
                                  "klein", "rp3"])
def test_cap_matrix_applies_as_cap_vector(name, ring):
    # the duality verdict uses cap_matrix, the cap identity cap_vector; both
    # must agree with the frozen per-term loop, for chain systems of rank 1
    # and 2
    M = corpus(name)
    rng = random.Random(f"{name}/{ring}")
    systems = (constant_system(M, ring), orientation_system(M, ring),
               random_flat_system(M, ring, 2, 5))
    chain_systems = (orientation_system(M, ring), constant_system(M, ring, 2),
                     random_flat_system(M, ring, 2, 7))
    for G in systems:
        for Gp in chain_systems:
            out_pc = pair_complex(M, tensor(G, Gp))
            for killed in (None, relative_killed(M, FullSubcomplex(M, {0}))):
                cochain_pc = pair_complex(M, G, killed=killed)
                chain_pc = pair_complex(M, Gp, killed=killed)
                for n in range(M.dimension + 1):
                    a = random_vec(ring, chain_pc.length(n), rng)
                    for k in range(n + 1):
                        c = random_vec(ring, cochain_pc.length(k), rng)
                        want = _reference_cap_vector(cochain_pc, chain_pc,
                                                     out_pc, k, c, n, a)
                        f = cap_matrix(cochain_pc, chain_pc, out_pc, k, n, a)
                        assert f.apply(c) == want
                        assert cap_vector(cochain_pc, chain_pc, out_pc, k, c,
                                          n, a) == want


@pytest.mark.parametrize("ring", [Z, Zmod(4)], ids=str)
@pytest.mark.parametrize("name", ["rp2", "klein"])
def test_duality_inverse_is_two_sided_modulo_relations(name, ring):
    M = corpus(name)
    for G in (constant_system(M, ring), orientation_system(M, ring)):
        for row in verify_duality(M, G, ring).rows:
            f, N = row.map, row.iso.inverse
            # one generator per free summand and per torsion factor
            sizes = [m.free_rank + len(m.torsion) for m in (row.left, row.right)]
            assert [N.cols, N.rows] == sizes
            back = ModuleMap(f.target, f.source, N)
            for m, loop in ((f.source, back.compose(f)),
                            (f.target, f.compose(back))):
                ident = ExactMatrix.identity(ring, m.generator_count)
                assert m.zero_classes(loop.matrix - ident)
