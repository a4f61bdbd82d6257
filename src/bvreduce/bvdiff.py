"""The action data type and the differentials d_cl, div, d_bv.

An Action packages a polynomial s with its homogeneous decomposition, the
diagonal/mixed split of the top part, precomputed gradients, and the quadratic
normal form when d = 2.  The differentials act on SuperPoly values and never
mutate shared state.
"""
from __future__ import annotations

from functools import cached_property
from math import factorial
from operator import add

from .errors import InputError
from .scalars import Scalar, clear_denominators
from .superpoly import SuperPoly, sum_pairs


class Action:
    """Polynomial action s with degree d and all decompositions precomputed.

    Fields:
      n, d          variable count and maximal total degree (d >= 2)
      s             the action itself (no xi content)
      parts         map k -> homogeneous piece s^(k)
      top           s^(d), the top part
      diag, mix     top = diag + mix; diag = sum_i a_i x_i^d / d!, every mix
                    monomial involves at least two variables
      diag_coeffs   the sequence a_1..a_n (d! times the x_i^d coefficient)
      low           the lower part s - top
      cgrad_mix     the gradients of mix as `contraction_terms`, the
                    weight-keeping contraction in d_bv - d_diag
      cgrad_low     the same for low, its weight-dropping contraction
      cgrad         the same for s, for d_cl, built on first use
      cgrad_diag    the same for diag, for d_diag, built on first use
      quad          for d = 2 only: (s2 matrix, s1 vector, s0 constant) with
                    s = 1/2 x^T s2 x + s1 . x + s0
    """

    def __init__(self, s: SuperPoly):
        if any(mask for _, mask in s.terms):
            raise InputError("action must not contain xi variables")
        d = s.max_xdeg()
        if d < 2:
            raise InputError("action must have total degree >= 2")
        self.n = s.n
        self.d = d
        self.s = s
        self.parts = s.xdeg_split()
        self.top = self.parts[d]

        diag = SuperPoly(s.n)
        mix = SuperPoly(s.n)
        for (e, m), c in self.top.terms.items():
            if sum(1 for p in e if p) <= 1:
                diag.terms[(e, m)] = c
            else:
                mix.terms[(e, m)] = c
        self.diag = diag
        self.mix = mix
        fact = factorial(d)
        self.diag_coeffs = tuple(
            Scalar.of(fact) * diag.coeff(tuple(d if j == i else 0 for j in range(s.n)))
            for i in range(s.n)
        )

        self.low = s - self.top
        # the gradients the reduction reads, as the rows _contract reads, built once per action
        self.cgrad_mix = _gradients(mix)
        self.cgrad_low = _gradients(self.low)

        self.quad = self._quadratic_form() if d == 2 else None
        self._session = None  # lazily built reduction session (reduce module)
        self._neg_inv_diag = None  # lazily built Scalars -(d-1)!/a_i (reduce.eta_diag)

    def _quadratic_form(self):
        n = self.n
        two = self.parts.get(2, SuperPoly.zero(n))
        s2 = [[Scalar(0)] * n for _ in range(n)]
        for (e, _), c in two.terms.items():
            idx = [i for i, p in enumerate(e) if p]
            if len(idx) == 1:
                i = idx[0]
                s2[i][i] = c * 2
            else:
                i, j = idx
                s2[i][j] = c
                s2[j][i] = c
        one = self.parts.get(1, SuperPoly.zero(n))
        s1 = [one.coeff(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
        s0 = self.parts.get(0, SuperPoly.zero(n)).coeff((0,) * n)
        return s2, s1, s0

    @cached_property
    def cgrad(self):
        return _gradients(self.s)

    @cached_property
    def cgrad_diag(self):
        return _gradients(self.diag)

    def has_mix(self) -> bool:
        return not self.mix.is_zero

    def has_lower(self) -> bool:
        return not self.low.is_zero

    def __repr__(self):
        return f"Action(n={self.n}, d={self.d}, s={self.s.text()})"


def action_build(s: SuperPoly) -> Action:
    """Build an Action from a xi-free, nonconstant SuperPoly of degree >= 2."""
    return Action(s)


def contraction_terms(grads) -> tuple[tuple[list[tuple], ...], int]:
    """The xi-free gradients as (rows, G) for `_contract`: rows[i] has (e, a, b) per term (a + b*i)/G x^e."""
    pairs, den = clear_denominators([c for gi in grads for c in gi.terms.values()])
    flat = iter(pairs)
    return tuple([(e, *next(flat)) for e, _ in gi.terms] for gi in grads), den


def _gradients(p: SuperPoly):
    return contraction_terms([p.dx(i) for i in range(p.n)])


def _contract(gterms, v: SuperPoly) -> SuperPoly:
    """sum_i grads[i] * dxi(v, i): the odd contraction common to all d_* maps.

    gterms is `contraction_terms(grads)`, which an Action and an HbarModel
    build once.  Every gradient must be xi-free, as theirs are, so each
    product carries the sign of dxi alone.  v is cleared to Gaussian
    integers over one L, so every product lies over L * G.
    """
    rows, gden = gterms
    pairs, den = clear_denominators(v.terms.values())

    def contributions():
        for (e, m), (ca, cb) in zip(v.terms, pairs):
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                gt = rows[bit.bit_length() - 1]
                if not gt:
                    continue
                sa, sb = (-ca, -cb) if (m & (bit - 1)).bit_count() & 1 else (ca, cb)
                mask = m ^ bit
                for ge, ga, gb in gt:
                    yield (tuple(map(add, e, ge)), mask), ga * sa - gb * sb, ga * sb + gb * sa

    return sum_pairs(v.n, contributions(), den * gden)


def d_cl(a: Action, v: SuperPoly) -> SuperPoly:
    """Koszul differential sum_i (ds/dx_i) d/dxi_i; lowers homological degree by 1."""
    if v.n != a.n:
        raise ValueError("variable count mismatch")
    return _contract(a.cgrad, v)


def d_div(v: SuperPoly) -> SuperPoly:
    """Divergence sum_i d^2/(dx_i dxi_i); lowers weight by exactly d on xi terms."""
    pairs, den = clear_denominators(v.terms.values())

    def contributions():
        for (e, m), (ca, cb) in zip(v.terms, pairs):
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                p = e[i]
                if not p:
                    continue
                if (m & (bit - 1)).bit_count() & 1:
                    p = -p
                yield (e[:i] + (e[i] - 1,) + e[i + 1:], m ^ bit), ca * p, cb * p

    return sum_pairs(v.n, contributions(), den)


def d_bv(a: Action, v: SuperPoly) -> SuperPoly:
    """The full differential d_cl + div."""
    return d_cl(a, v) + d_div(v)


def d_diag(a: Action, v: SuperPoly) -> SuperPoly:
    return _contract(a.cgrad_diag, v)
