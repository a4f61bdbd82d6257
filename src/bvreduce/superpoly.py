"""Sparse exact arithmetic in the super-commutative algebra Q(i)[x_1..x_n, xi_1..xi_n].

Elements are finite term maps (exponent word, xi word) -> Scalar.  The xi
variables are odd: xi_i^2 = 0 and products pick up the Koszul sign of sorting
the merged word.  Variable indices are 0-based.  A xi word is stored as a bit
mask, which is the canonical ascending-order word xi_{i_1} ^ ... ^ xi_{i_k}
with i_1 < ... < i_k.

All operations are pure: no method mutates its receiver, so values can be
shared freely between threads.
"""
from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Mapping

from .scalars import ONE, ZERO, Scalar, clear_denominators, gauss

Key = tuple[tuple[int, ...], int]


def _mask_bits(mask: int) -> tuple[int, ...]:
    bits = []
    i = 0
    while mask:
        if mask & 1:
            bits.append(i)
        mask >>= 1
        i += 1
    return tuple(bits)


def merge_masks(m1: int, m2: int) -> tuple[int, int]:
    """Merge two xi words; returns (sign, mask), sign 0 when an index repeats.

    The sign is (-1)^t where t counts the transpositions needed to sort the
    concatenated word, i.e. pairs (a in m1, b in m2) with a > b.
    """
    if m1 & m2:
        return 0, 0
    inv = 0
    m = m2
    while m:
        b = m & -m
        inv += (m1 >> b.bit_length()).bit_count()
        m ^= b
    return (-1 if inv & 1 else 1), (m1 | m2)


def add_term(terms: dict, key, c: Scalar) -> None:
    """Add the nonzero c into terms[key], dropping the key when the sum cancels.

    Term maps never store a zero coefficient: SuperPoly.terms, JacClass.coeffs
    and every dict a kernel builds before wrapping it in one.  This is the one
    place that adds into such a map where two contributions can meet.
    """
    s = terms.get(key)
    if s is None:
        terms[key] = c
    elif s := s + c:
        terms[key] = s
    else:
        del terms[key]


def add_pairs(contributions: Iterable[tuple[Key, int, int]]) -> dict[Key, list[int]]:
    """The Gaussian-integer contributions (key, a, b) added per key, as [a, b]; a sum that cancels stays as [0, 0]."""
    acc: dict[Key, list[int]] = {}
    for key, a, b in contributions:
        s = acc.get(key)
        if s is None:
            acc[key] = [a, b]
        else:
            s[0] += a
            s[1] += b
    return acc


def sum_pairs(n: int, contributions: Iterable[tuple[Key, int, int]], den: int) -> "SuperPoly":
    """The SuperPoly of the contributions (key, a, b), each meaning (a + b*i)/den with den > 0.

    The plain ints are added per key by `add_pairs`, and each sum that
    survives is reduced once by `gauss`: one gcd per output key and none per
    collision.
    """
    return SuperPoly._wrap(n, {key: gauss(a, b, den) for key, (a, b) in add_pairs(contributions).items() if a or b})


class SuperPoly:
    """Sparse element of Q(i)[x_1..x_n, xi_1..xi_n]; stored terms never have zero coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Key, Scalar] | None = None):
        self.n = n
        self.terms: dict[Key, Scalar] = dict(terms) if terms else {}

    @staticmethod
    def _wrap(n: int, terms: dict[Key, Scalar]) -> "SuperPoly":
        """The SuperPoly over terms itself, not a copy: for a kernel's fresh map that no one else keeps."""
        p = object.__new__(SuperPoly)
        p.n = n
        p.terms = terms
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SuperPoly":
        return SuperPoly(n)

    @staticmethod
    def const(n: int, c) -> "SuperPoly":
        c = Scalar.of(c)
        if not c:
            return SuperPoly(n)
        return SuperPoly(n, {((0,) * n, 0): c})

    @staticmethod
    def one(n: int) -> "SuperPoly":
        return SuperPoly.const(n, 1)

    @staticmethod
    def x(n: int, i: int, power: int = 1) -> "SuperPoly":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        exps = tuple(power if j == i else 0 for j in range(n))
        return SuperPoly(n, {(exps, 0): ONE})

    @staticmethod
    def xi(n: int, i: int) -> "SuperPoly":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        return SuperPoly(n, {((0,) * n, 1 << i): ONE})

    @staticmethod
    def monomial(n: int, exps: Iterable[int], xi_indices: Iterable[int] = (), coeff=1) -> "SuperPoly":
        exps = tuple(exps)
        if len(exps) != n or any(e < 0 for e in exps):
            raise ValueError("exponent word must have n non-negative entries")
        mask = 0
        for i in xi_indices:
            if not 0 <= i < n:
                raise IndexError(f"xi index {i} out of range for n={n}")
            if mask & (1 << i):
                return SuperPoly(n)
            mask |= 1 << i
        c = Scalar.of(coeff)
        if not c:
            return SuperPoly(n)
        return SuperPoly(n, {(exps, mask): c})

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Iterable[int], xi_indices: Iterable[int] = ()) -> Scalar:
        mask = 0
        for i in xi_indices:
            mask |= 1 << i
        return self.terms.get((tuple(exps), mask), ZERO)

    def max_xdeg(self) -> int:
        """Largest total x-degree of any term; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "SuperPoly"):
        if self.n != other.n:
            raise ValueError(f"mismatched variable counts {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, SuperPoly):
            other = SuperPoly.const(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            add_term(out, k, v)
        return SuperPoly._wrap(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._wrap(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperPoly):
            other = SuperPoly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            # iterate the smaller factor outermost
            return self._mul_terms(b, a, flip=True)
        return self._mul_terms(a, b, flip=False)

    def _mul_terms(self, a, b, flip: bool) -> "SuperPoly":
        pa, da = clear_denominators(a.values())
        pb, db = clear_denominators(b.values())
        inner = list(zip(b, pb))

        def contributions():
            for (e1, m1), (a1, b1) in zip(a, pa):
                for (e2, m2), (a2, b2) in inner:
                    sign, mask = merge_masks(m2, m1) if flip else merge_masks(m1, m2)
                    if sign:
                        re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                        if sign < 0:
                            re, im = -re, -im
                        yield (tuple(map(add, e1, e2)), mask), re, im

        return sum_pairs(self.n, contributions(), da * db)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "SuperPoly":
        c = Scalar.of(c)
        if not c:
            return SuperPoly(self.n)
        return SuperPoly._wrap(self.n, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = SuperPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- derivatives ----------------------------------------------------------

    def dx(self, i: int) -> "SuperPoly":
        """Even partial derivative in x_i; xi words are untouched."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        # (e, m) -> (e - 1_i, m) is injective, and c * p with p >= 1 is nonzero
        return SuperPoly._wrap(self.n, {
            (e[:i] + (e[i] - 1,) + e[i + 1:], m): c * e[i]
            for (e, m), c in self.terms.items()
            if e[i]
        })

    def dxi(self, i: int) -> "SuperPoly":
        """Odd partial derivative in xi_i.

        Removes xi_i and multiplies by (-1)^(number of xi_j with j < i in the
        word); terms without xi_i die.  Satisfies the graded Leibniz rule.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        bit = 1 << i
        # (e, m) -> (e, m ^ bit) is injective on the terms that hold xi_i
        return SuperPoly._wrap(self.n, {
            (e, m ^ bit): -c if (m & (bit - 1)).bit_count() & 1 else c
            for (e, m), c in self.terms.items()
            if m & bit
        })

    # -- substitutions -----------------------------------------------------------

    def shift(self, offsets) -> "SuperPoly":
        """Substitute x_i -> x_i + c_i for a sequence c of n Scalars; xi untouched."""
        cs = [Scalar.of(c) for c in offsets]
        if len(cs) != self.n:
            raise ValueError("offset sequence must have length n")
        from math import comb

        acc: dict[Key, Scalar] = {}
        for (e, m), coef in self.terms.items():
            # expand prod_i (x_i + c_i)^{e_i} term by term
            partial: dict[tuple[int, ...], Scalar] = {(): coef}
            for i in range(self.n):
                ci = cs[i]
                ei = e[i]
                if ei == 0 or not ci:
                    partial = {k + (ei,): v for k, v in partial.items()}
                    continue
                powers = [ONE]
                for _ in range(ei):
                    powers.append(powers[-1] * ci)
                # the keys k + (j,) are distinct, and ci != 0 keeps every product nonzero
                partial = {
                    k + (j,): v * (comb(ei, j) * powers[ei - j])
                    for k, v in partial.items()
                    for j in range(ei + 1)
                }
            for k, v in partial.items():
                add_term(acc, (k, m), v)
        return SuperPoly._wrap(self.n, acc)

    # -- rendering ------------------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Key, Scalar]]:
        """Terms in lexicographic (exponent word, xi word) order."""
        return iter(sorted(self.terms.items(), key=lambda kv: (kv[0][0], _mask_bits(kv[0][1]))))

    def text(self) -> str:
        """Canonical byte-stable rendering for logs and goldens."""
        if not self.terms:
            return "0"
        pieces = []
        for (e, m), c in self.sorted_terms():
            factors = [f"({c.text()})"]
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(f"x{i}")
                elif p > 1:
                    factors.append(f"x{i}^{p}")
            for i in _mask_bits(m):
                factors.append(f"xi{i}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"SuperPoly({self.n}, {self.text()})"


def term_weight(key: Key, d: int) -> int:
    e, m = key
    return sum(e) + (d - 1) * m.bit_count()


def monomials_of_degree(n: int, deg: int) -> list[tuple[int, ...]]:
    """All exponent words of total degree deg in n variables, lexicographic."""
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in monomials_of_degree(n - 1, deg - first):
            out.append((first,) + rest)
    out.sort()
    return out
