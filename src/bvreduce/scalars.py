"""Exact Gaussian-rational scalars, the coefficient field for every algebraic module.

The numeric oracle is the only place floating point is allowed; everything else
computes in Q(i) with no rounding.
"""
from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Q


def q(num: int, den: int = 1) -> Q:
    """Exact rational num/den in lowest terms with positive denominator."""
    return Q(num, den)


class Scalar:
    """A Gaussian rational re + im*i with exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Q(re))
        object.__setattr__(self, "im", Q(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        return from_q(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.of(other)
        return from_q(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self):
        return from_q(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return from_q(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return from_q((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return Scalar(1) / self ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, type(Q(0)))):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions -----------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def text(self) -> str:
        """Canonical rendering "a/b+c/d*i", byte-stable for goldens."""
        rn, rd = self.re.numerator, self.re.denominator
        im = self.im
        sign = "+" if im >= 0 else "-"
        return f"{rn}/{rd}{sign}{abs(im.numerator)}/{im.denominator}*i"

    def __repr__(self):
        return f"Scalar({self.text()})"


_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def from_q(re, im) -> Scalar:
    """The Scalar re + im*i from two values that are already Q, without coercing them.

    Arithmetic on Q values returns Q, so Scalar arithmetic builds its results
    here; values from outside go through Scalar(re, im), which coerces.
    """
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
