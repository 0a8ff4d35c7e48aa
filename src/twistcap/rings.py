"""Coefficient rings: the integers, Z/m, and the rationals.

Elements are ordinary Python objects: ``int`` for the integers and for Z/m
(kept reduced into ``range(m)``).  A rational is an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise, so Q arithmetic on the
integral entries that chain complexes are made of runs at integer speed;
``normalize`` returns that canonical form.  Every division over Q starts
from an explicit ``Fraction``, since ``int / int`` would be a float.
Arbitrary precision comes for free; fixed-width overflow cannot happen.

A RingSpec is a record, a named tuple (kind, modulus), so it is immutable,
hashable and compared field by field, and can key caches; it bundles the
canonical-form, unit and divisibility arithmetic the normal-form code needs.
The modulus of Z/m is an ``int`` of at least 2; a float, a Fraction or a
bool is refused, as is any modulus on Z or Q.  ``parse_int`` is the one
rule for an integer spelled in text: the file formats, the ``--system``
fields, the ``--seed`` and ``--trials`` options and the modulus of
``parse_ring`` all read theirs with it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import TwistcapError

INTEGERS = "Z"
RATIONALS = "Q"
MODULAR = "Zmod"


class RingSpec(namedtuple("RingSpec", "kind modulus")):
    __slots__ = ()
    zero, one = 0, 1

    def __new__(cls, kind: str, modulus: int | None = None):
        if kind not in (INTEGERS, RATIONALS, MODULAR):
            raise TwistcapError(f"unknown ring kind {kind!r}")
        if kind == MODULAR:
            if type(modulus) is not int or modulus < 2:
                raise TwistcapError("modular ring needs an integer modulus >= 2")
        elif modulus is not None:
            raise TwistcapError(f"{kind} takes no modulus")
        return super().__new__(cls, kind, modulus)

    def __str__(self):
        if self.kind == MODULAR:
            return f"Z/{self.modulus}"
        return self.kind

    @property
    def two_is_nonzero(self) -> bool:
        """False exactly when 2 = 0, i.e. for Z/2."""
        return not (self.kind == MODULAR and self.modulus == 2)

    # -- element arithmetic --------------------------------------------

    def normalize(self, x):
        if self.kind == INTEGERS:
            return int(x)
        if self.kind == MODULAR:
            return int(x) % self.modulus
        if type(x) is int:
            return x
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def is_unit(self, x) -> bool:
        if self.kind == INTEGERS:
            return x in (1, -1)
        if self.kind == MODULAR:
            return gcd(x % self.modulus, self.modulus) == 1
        return x != 0

    def divides(self, a, b) -> bool:
        """True when b lies in the ideal generated by a."""
        if self.kind == RATIONALS:
            return a != 0 or b == 0
        if self.kind == INTEGERS:
            if a == 0:
                return b == 0
            return b % a == 0
        m = self.modulus
        g = gcd(a % m, m)
        return (b % m) % g == 0

    def divide(self, b, a):
        """Some y with a*y = b, or None when no solution exists."""
        if self.kind == RATIONALS:
            if a == 0:
                return self.zero if b == 0 else None
            if a == 1:   # the common case, a Smith pivot or a free generator
                return self.normalize(b)
            return self.normalize(Fraction(b) / a)
        if self.kind == INTEGERS:
            if a == 0:
                return 0 if b == 0 else None
            return b // a if b % a == 0 else None
        m = self.modulus
        a %= m
        b %= m
        if a == 0:
            return 0 if b == 0 else None
        g = gcd(a, m)
        if b % g:
            return None
        mg = m // g
        return (b // g) * pow(a // g, -1, mg) % m

    def annihilator(self, a):
        """Generator of {r : r*a = 0}; zero over the integers and rationals."""
        if self.kind != MODULAR:
            return self.zero
        m = self.modulus
        a %= m
        if a == 0:
            return 1
        return (m // gcd(a, m)) % m

    def canonical_generator(self, a):
        """Canonical generator of the ideal (a): |a| over Z, gcd(a, m) over Z/m,
        1 over Q for nonzero a."""
        if self.kind == INTEGERS:
            return abs(a)
        if self.kind == RATIONALS:
            return self.one if a != 0 else self.zero
        return gcd(a % self.modulus, self.modulus) % self.modulus

    def unit_scaling_to_canonical(self, a):
        """A unit u with u*a equal to the canonical generator of (a)."""
        if self.kind == INTEGERS:
            return -1 if a < 0 else 1
        if self.kind == RATIONALS:
            return self.normalize(Fraction(1) / a) if a != 0 else 1
        m = self.modulus
        a %= m
        if a == 0:
            return 1
        # u*a = g (mod m) exactly when u = (a/g)^-1 (mod m/g); the smallest
        # unit mod m in that class is reached within g steps of m/g.
        g = gcd(a, m)
        step = m // g
        u = pow(a // g, -1, step)
        while gcd(u, m) != 1:
            u += step
        return u


Z = RingSpec(INTEGERS)
Q = RingSpec(RATIONALS)


def Zmod(m: int) -> RingSpec:
    return RingSpec(MODULAR, m)


def parse_int(token: str) -> int:
    """The integer a token of the file formats or of a system spec spells:
    ASCII digits with an optional leading '-'.  Anything else, such as
    '+2', '1_0' or full-width digits, all of which int() takes, raises
    ValueError."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_ring(text: str) -> RingSpec:
    """Parse 'Z', 'Q', 'Z/5' or 'Zmod5' (also 'Zmod 5')."""
    t = text.strip()
    if t == "Z":
        return Z
    if t == "Q":
        return Q
    for prefix in ("Z/", "Zmod"):
        if t.startswith(prefix):
            try:
                return Zmod(parse_int(t[len(prefix):].strip()))
            except ValueError:
                break
    raise TwistcapError(f"cannot parse ring {text!r}")
