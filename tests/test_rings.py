import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcap.errors import TwistcapError
from twistcap.rings import Q, RingSpec, Z, Zmod, parse_ring


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


def test_a_rational_is_an_int_when_integral():
    two = Q.normalize(Fraction(6, 3))
    assert two == 2 and type(two) is int
    assert type(Q.zero) is int and type(Q.one) is int
    assert type(Q.divide(4, 2)) is int and Q.divide(4, 2) == 2
    assert Q.divide(1, 2) == Fraction(1, 2)
    assert Q.unit_scaling_to_canonical(-3) == Fraction(-1, 3)
    minus_one = Q.unit_scaling_to_canonical(-1)
    assert minus_one == -1 and type(minus_one) is int


UNARY = ("normalize", "from_int", "is_unit", "annihilator",
         "canonical_generator", "unit_scaling_to_canonical")
BINARY = ("divides", "divide")
SMALL_RATIONALS = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))


def test_the_float_guard_covers_every_ring_method():
    public = {name for name, value in vars(RingSpec).items()
              if callable(value) and not name.startswith("_")}
    assert public == set(UNARY + BINARY)


@settings(max_examples=300, deadline=None)
@given(a=SMALL_RATIONALS, b=SMALL_RATIONALS)
def test_rational_methods_never_return_a_float(a, b):
    results = [Q.zero, Q.one]
    results += [getattr(Q, name)(a) for name in UNARY]
    results += [getattr(Q, name)(b, a) for name in BINARY]
    for y in results:
        assert type(y) in (int, bool, type(None)) \
            or (type(y) is Fraction and y.denominator != 1), (a, b, y)
