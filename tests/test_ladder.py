"""Each pair complex presents its degrees as a ladder
(`PairComplex.homology` and `.cohomology`): a degree whose kernel divisors
are all 1 hands its relations' factorization to the next degree, which
reads its kernel off it instead of factoring its own d_out.

The ladder presents the module a lone `homology_presentation` does, in
every degree, and on generators the identity chain map carries
isomorphically; it does not depend on the degree asked first; and where a
kernel divisor is not 1, which happens only over Z/m, the next degree
factors its own d_out.
"""

import pytest

from twistcap import fpmodules
from twistcap.chains import pair_complex
from twistcap.complexes import CORPUS_NAMES, SimplicialComplex, corpus
from twistcap.fpmodules import (homology_presentation, induced_map,
                                is_isomorphism)
from twistcap.localsystems import (constant_system, orientation_system,
                                   random_flat_system)
from twistcap.matrices import ExactMatrix
from twistcap.rings import Q, Z, Zmod

RINGS = (Z, Zmod(3), Zmod(4), Zmod(12), Q)
SYSTEMS = {"constant": constant_system, "orientation": orientation_system,
           "flat2": lambda M, ring: random_flat_system(M, ring, 2, seed=3)}
KINDS = ("homology", "cohomology")


def fresh(name):
    """A copy of a corpus complex that shares no cache with the corpus."""
    M = corpus(name)
    return SimplicialComplex(M.vertex_count, M.facets)


def alone(pc, kind, k):
    """Degree k of `kind` presented alone, from its own d_out."""
    if kind == "homology":
        return homology_presentation(pc.boundary(k + 1), pc.boundary(k))
    return homology_presentation(pc.coboundary(k - 1), pc.coboundary(k))


def record_smith_forms(monkeypatch):
    """Every matrix a presentation asks the Smith form of."""
    asked = []
    original = fpmodules._smith_form

    def recording(A):
        asked.append(A)
        return original(A)

    monkeypatch.setattr(fpmodules, "_smith_form", recording)
    return asked


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_ladder_presents_what_a_lone_presentation_does(name, ring,
                                                           system):
    M = corpus(name)
    pc = pair_complex(M, SYSTEMS[system](M, ring))
    for kind in KINDS:
        for k in range(M.dimension + 1):
            ladder, lone = getattr(pc, kind)(k), alone(pc, kind, k)
            assert ladder.module == lone.module, (kind, k)
            identity = ExactMatrix.identity(ring, pc.length(k))
            assert is_isomorphism(induced_map(identity, ladder, lone)), \
                (kind, k)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("name", ["rp2", "klein", "rp3"])
def test_a_presentation_does_not_depend_on_the_degree_asked_first(name,
                                                                  ring):
    def presented(top_first):
        M = fresh(name)
        pc = pair_complex(M, random_flat_system(M, ring, 2, seed=3))
        n = M.dimension
        order = [n, *range(n + 1)] if top_first else range(n + 1)
        out = {(kind, k): getattr(pc, kind)(k) for kind in KINDS
               for k in order}
        return M, out

    _, first = presented(top_first=True)
    _, swept = presented(top_first=False)
    assert first.keys() == swept.keys()
    for key, pres in first.items():
        other = swept[key]
        assert pres.cycles == other.cycles, key
        assert pres._coords == other._coords, key
        assert pres.module.relations == other.module.relations, key


def test_a_kernel_divisor_other_than_1_factors_the_next_d_out(monkeypatch):
    # over Z/4 the coboundary delta_1 of rp2 has the invariant factor 2, so
    # degree 1 of the cohomology ladder has a kernel divisor 2 and relations
    # with the kernel's torsion: degree 0 factors its own delta_0.  Over Z
    # every divisor is 1 and no d_out with rows is factored.
    for ring, factored in ((Z, False), (Zmod(4), True)):
        M = fresh("rp2")
        pc = pair_complex(M, constant_system(M, ring))
        asked = record_smith_forms(monkeypatch)
        top = pc.cohomology(M.dimension)
        assert set(pc.cohomology(1)._divisors) == (
            {1, 2} if factored else {1})
        assert any(A is pc.coboundary(0) for A in asked) is factored
        assert not any(A is pc.coboundary(1) for A in asked)
        for k in range(M.dimension + 1):
            assert pc.cohomology(k).module == alone(pc, "cohomology",
                                                    k).module
        assert str(pc.cohomology(0).module) == ("Z" if ring == Z else "Z/4")
        assert top is pc.cohomology(M.dimension)
        monkeypatch.undo()


@pytest.mark.parametrize("ring", (Z, Zmod(3)), ids=str)
@pytest.mark.parametrize("name", ["circle", "rp2", "rp3"])
def test_a_degree_outside_0_to_n_is_zero_and_presented_afresh(name, ring):
    # a degree with no chains is off the ladder: the zero module, presented
    # again on every ask, while a degree on the ladder is kept
    M = corpus(name)
    pc = pair_complex(M, orientation_system(M, ring))
    for kind in KINDS:
        assert getattr(pc, kind)(0) is getattr(pc, kind)(0)
        for k in (-1, M.dimension + 1):
            first = getattr(pc, kind)(k)
            assert first.module.normal_form == (0, ()), (kind, k)
            assert getattr(pc, kind)(k) is not first, (kind, k)
