import time
from math import gcd

import pytest

from twistcap.errors import TwistcapError
from twistcap.rings import Q, Z, Zmod, parse_ring


def scanned_unit(m, a):
    """The smallest unit u in 1..m with u*a equal to gcd(a, m) mod m."""
    a %= m
    target = gcd(a, m) % m
    for u in range(1, m + 1):
        if gcd(u, m) == 1 and (u * a) % m == target:
            return u
    raise AssertionError("no unit found")


@pytest.mark.parametrize("m", [2, 4, 12, 36, 60, 72, 100, 210, 360, 1024])
def test_unit_scaling_matches_a_full_scan(m):
    ring = Zmod(m)
    for a in range(-m, 2 * m):
        assert ring.unit_scaling_to_canonical(a) == scanned_unit(m, a)


@pytest.mark.parametrize("m, a", [(2 ** 61 - 1, 12345),
                                  (2 ** 61 - 1, -1),
                                  (3 * 2 ** 61, 2 ** 60),
                                  (10 ** 18, 6 * 10 ** 9 + 4)])
def test_unit_scaling_cost_does_not_grow_with_the_modulus(m, a):
    ring = Zmod(m)
    start = time.perf_counter()
    u = ring.unit_scaling_to_canonical(a)
    assert time.perf_counter() - start < 0.5
    assert gcd(u, m) == 1
    assert u * a % m == ring.canonical_generator(a)


@pytest.mark.parametrize("text, ring", [("Z", Z), (" Q ", Q), ("Z/4", Zmod(4)),
                                        ("Zmod 5", Zmod(5)), ("Zmod7", Zmod(7))])
def test_parse_ring(text, ring):
    assert parse_ring(text) == ring


@pytest.mark.parametrize("text", ["Z/", "Z/x", "Z/-3", "Z/1", "Z/\u00b2",
                                  "Z/\u0663", "R", ""])
def test_parse_ring_rejects_with_a_usage_error(text):
    with pytest.raises(TwistcapError):
        parse_ring(text)
