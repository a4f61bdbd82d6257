"""Exact Gaussian-rational scalars, the coefficient field for every algebraic module.

The numeric oracle is the only place floating point is allowed; everything else
computes in Q(i) with no rounding.  A Scalar is a Gaussian integer over a
positive denominator, (a + b*i)/den, so its arithmetic is integer arithmetic
and the exact linear algebra reads and builds Scalars without conversion.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Collection

# A Gaussian integer is an (a, b) pair meaning a + b*i.
GInt = tuple[int, int]


def q(num: int, den: int = 1) -> Q:
    """Exact rational num/den in lowest terms with positive denominator."""
    return Q(num, den)


class Scalar:
    """A Gaussian rational (a + b*i)/den with exact arithmetic.

    Stored reduced: den > 0 and gcd(a, b, den) == 1, so zero is (0, 0, 1) and
    equal values have equal fields.  Scalars are never mutated after they are
    built.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im=0):
        re, im = Q(re), Q(im)
        # the lcm of two lowest-terms denominators leaves a, b, den coprime
        den = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (den // re.denominator)
        self.b = im.numerator * (den // im.denominator)
        self.den = den

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if type(value) is int:
            return _make(value, 0, 1)
        return Scalar(value)

    @property
    def re(self) -> Q:
        return Q(self.a, self.den)

    @property
    def im(self) -> Q:
        return Q(self.b, self.den)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return gauss(self.a + other.a, self.b + other.b, d1)
        g = gcd(d1, d2)
        s, t = d1 // g, d2 // g
        a, b = self.a * t + other.a * s, self.b * t + other.b * s
        # a prime of s or t cannot divide both a and b, so only a factor of g cancels
        g = gcd(g, a, b)
        return _make(a // g, b // g, s * d2 // g)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Scalar.of(other)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.den)

    def __mul__(self, other):
        other = Scalar.of(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return gauss(a * c - b * d, a * d + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        # (a + bi)/d1 / ((c + di)/d2) = (a + bi)(c - di) d2 / (d1 (c^2 + d^2))
        e = other.den
        return gauss((a * c + b * d) * e, (b * c - a * d) * e, self.den * n)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Q)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self.b:
            return hash(self.a) if self.den == 1 else hash(Q(self.a, self.den))
        return hash((self.a, self.b, self.den))

    # -- conversions -----------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.a / self.den, self.b / self.den)

    def text(self) -> str:
        """Canonical rendering "a/b+c/d*i", byte-stable for goldens."""
        re, im = self.re, self.im
        sign = "-" if self.b < 0 else "+"
        return f"{re.numerator}/{re.denominator}{sign}{abs(im.numerator)}/{im.denominator}*i"

    def __repr__(self):
        return f"Scalar({self.text()})"


def _make(a: int, b: int, den: int) -> Scalar:
    s = object.__new__(Scalar)
    s.a = a
    s.b = b
    s.den = den
    return s


def gauss(a: int, b: int, den: int) -> Scalar:
    """The Scalar (a + b*i)/den for integers a, b and den != 0, reduced."""
    if den < 0:
        a, b, den = -a, -b, -den
    elif not den:
        raise ZeroDivisionError("Scalar with zero denominator")
    g = gcd(den, a, b)
    if g != 1:
        a, b, den = a // g, b // g, den // g
    return _make(a, b, den)


def clear_denominators(values: Collection[Scalar]) -> tuple[list[GInt], int]:
    """Gaussian integers g and den, the lcm of all denominators, with values[j] == g[j] / den.

    Scaling a matrix row this way leaves rank and kernels unchanged, and a
    term-map kernel that clears its input once adds plain ints.
    """
    # a list, not a generator: lcm(*<genexpr>) in a hot loop grows the process's memory
    den = lcm(*[s.den for s in values])
    return [(s.a, s.b) if s.den == den else (s.a * (den // s.den), s.b * (den // s.den)) for s in values], den


ZERO = Scalar(0)
ONE = Scalar(1)
