"""The universal coefficient theorem as a cross-ring oracle.

The checker presents one complex over Z, Z/m and Q through one elimination,
so a fault in how it reads a kernel over one ring need not show over
another.  The universal coefficient theorem (Hatcher, Algebraic Topology,
sections 3.1, 3.A and 3.H) fixes every other answer from the homology over
Z of the same system:

- H_k(M; G ⊗ Z/m) ≅ H_k(M; G) ⊗ Z/m ⊕ Tor(H_{k-1}(M; G), Z/m), where
  Z ⊗ Z/m = Z/m, Z/d ⊗ Z/m = Tor(Z/d, Z/m) = Z/gcd(d, m) and Tor(Z, Z/m) = 0;
- H_k(M; G ⊗ Q) ≅ Q^{free rank of H_k(M; G)};
- over Z, for a sign system G, H^k(M; G) ≅ free(H_k) ⊕ tors(H_{k-1}), since
  each transport is its own inverse and δ_{k-1} is the transpose of ∂_k.

The inputs are the constant and orientation systems, each over a ring the
reduction of the one over Z, on every built-in complex and on a 6 x 6
Klein bottle.  A predicted module over Z/m is a sum of cyclic modules
Z/c, c | m; it is brought to its divisibility chain here by prime-power
bookkeeping, never by the package's elimination.
"""

from math import gcd

import pytest

from twistcap.chains import cohomology, homology
from twistcap.complexes import BUILTIN_NAMES, _grid_klein, named_complex
from twistcap.localsystems import constant_system, orientation_system
from twistcap.rings import Q, Z, Zmod

COMPLEXES = BUILTIN_NAMES + ("klein6x6",)
SYSTEMS = {"constant": constant_system, "orientation": orientation_system}
MODULI = (2, 3, 4, 6)


def prime_powers(c):
    """(p, p^e) for each prime p dividing c >= 1 exactly e times, by trial
    division."""
    factors, p = [], 2
    while c > 1:
        q = 1
        while c % p == 0:
            c, q = c // p, q * p
        if q > 1:
            factors.append((p, q))
        p += 1
    return factors


def normal_form_mod(m, orders):
    """(free rank, torsion) over Z/m of the sum of Z/c over `orders`, each
    c | m: the i-th invariant factor is the product, over the primes, of
    the i-th largest power of that prime; a factor m is free."""
    by_prime = {}
    for c in orders:
        for p, q in prime_powers(c):
            by_prime.setdefault(p, []).append(q)
    chain = []
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            if i == len(chain):
                chain.append(1)
            chain[i] *= q
    return (chain.count(m), tuple(sorted(d for d in chain if d != m)))


def build(name):
    return _grid_klein(6, 6) if name == "klein6x6" else named_complex(name)


def integral_homology(M, name):
    G = SYSTEMS[name](M, Z)
    return [homology(M, G, k).module.normal_form
            for k in range(M.dimension + 1)]


@pytest.mark.parametrize("complex_name", COMPLEXES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_homology_over_each_ring_follows_from_homology_over_z(complex_name,
                                                              system):
    M = build(complex_name)
    over_z = integral_homology(M, system)
    for m in MODULI:
        G = SYSTEMS[system](M, Zmod(m))
        for k, (free, torsion) in enumerate(over_z):
            below = over_z[k - 1][1] if k else ()
            orders = [m] * free + [gcd(d, m) for d in torsion + below]
            got = homology(M, G, k).module.normal_form
            assert got == normal_form_mod(m, orders), (m, k)
    G = SYSTEMS[system](M, Q)
    for k, (free, _) in enumerate(over_z):
        assert homology(M, G, k).module.normal_form == (free, ()), ("Q", k)


@pytest.mark.parametrize("complex_name", COMPLEXES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_cohomology_over_z_follows_from_homology_over_z(complex_name,
                                                        system):
    M = build(complex_name)
    over_z = integral_homology(M, system)
    G = SYSTEMS[system](M, Z)
    for k, (free, _) in enumerate(over_z):
        below = over_z[k - 1][1] if k else ()
        assert cohomology(M, G, k).module.normal_form == (free, below), k


@pytest.mark.parametrize("m, orders, form", [
    (6, [2, 3], (1, ())),
    (6, [2, 2], (0, (2, 2))),
    (4, [2, 4, 1], (1, (2,))),
    (12, [4, 3, 2], (1, (2,))),
    (12, [2, 6], (0, (2, 6))),
    (3, [], (0, ())),
])
def test_the_oracle_normal_form_is_a_divisibility_chain(m, orders, form):
    assert normal_form_mod(m, orders) == form
