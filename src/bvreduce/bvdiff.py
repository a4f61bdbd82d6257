"""The action data type and the differentials d_cl, div, d_bv and d_diag.

An Action packages a polynomial s with its split s = diag + mix + low, the
gradients the reduction reads, and the quadratic normal form when d = 2.  The
differentials are calls of one integer kernel, `_contract`, and mutate nothing.
"""
from __future__ import annotations

from functools import cached_property
from math import factorial, gcd
from operator import add

from .errors import InputError
from .scalars import ZERO, clear_denominators
from .superpoly import SuperPoly, sum_pairs


class Action:
    """Polynomial action s with degree d, split in one pass over its terms.

    Fields:
      n, d          variable count and maximal total degree (d >= 2)
      s             the action itself (no xi content)
      diag, mix     the degree-d terms: diag = sum_i a_i x_i^d / d!, and every
                    mix monomial involves at least two variables
      low           the terms of degree below d, so s = diag + mix + low
      diag_coeffs   the sequence a_1..a_n (d! times the x_i^d coefficient)
      cgrad_mix     the gradient rows of mix as `_gradients` writes them,
                    the weight-keeping contraction in d_bv - d_diag
      cgrad_low     the same for low, its weight-dropping contraction
      cgrad         the same for s, for d_cl, built on first use
      cgrad_diag    the same for diag, for d_diag, built on first use
      quad          for d = 2 only, built on first use: (s2 matrix, s1
                    vector, s0 constant) with s = 1/2 x^T s2 x + s1 . x + s0;
                    None for d > 2
    """

    def __init__(self, s: SuperPoly):
        if any(mask for _, mask in s.terms):
            raise InputError("action must not contain xi variables")
        d = s.max_xdeg()
        if d < 2:
            raise InputError("action must have total degree >= 2")
        self.n = n = s.n
        self.d = d
        self.s = s

        diag, mix, low = {}, {}, {}
        coeffs = [ZERO] * n
        fact = factorial(d)
        for key, c in s.terms.items():
            e = key[0]
            if sum(e) < d:
                low[key] = c
            elif d in e:
                diag[key] = c
                coeffs[e.index(d)] = c * fact
            else:
                mix[key] = c
        self.diag = SuperPoly._wrap(n, diag)
        self.mix = SuperPoly._wrap(n, mix)
        self.low = SuperPoly._wrap(n, low)
        self.diag_coeffs = tuple(coeffs)
        # the gradients the reduction reads, as the rows _contract reads, built once per action
        self.cgrad_mix = _gradients(self.mix)
        self.cgrad_low = _gradients(self.low)

        self._session = None  # lazily built reduction session (reduce module)
        self._neg_inv_diag = None  # lazily built Scalars -(d-1)!/a_i (reduce.eta_diag)

    @cached_property
    def quad(self):
        if self.d != 2:
            return None
        n = self.n
        s2 = [[ZERO] * n for _ in range(n)]
        s1 = [ZERO] * n
        s0 = ZERO
        for (e, _), c in self.s.terms.items():
            idx = [i for i, p in enumerate(e) if p]
            if not idx:
                s0 = c
            elif len(idx) == 2:
                i, j = idx
                s2[i][j] = s2[j][i] = c
            elif e[idx[0]] == 2:
                s2[idx[0]][idx[0]] = c * 2
            else:
                s1[idx[0]] = c
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


def _gradients(p: SuperPoly) -> tuple[tuple[list[tuple], ...], int]:
    """The gradient of a xi-free p as (rows, G), the rows `_contract` reads, in one integer pass over its terms.

    rows[i] lists (e, a, b) per term (a + b*i)/G x^e of dp/dx_i, in the order
    of p's terms.  p is cleared over one L, each term e[i] * x^(e - 1_i) is
    written to row i, and one gcd of L and every entry leaves G the lowest
    common denominator.
    """
    rows = tuple([] for _ in range(p.n))
    pairs, den = clear_denominators(p.terms.values())
    for (e, _), (a, b) in zip(p.terms, pairs):
        for i, k in enumerate(e):
            if k:
                rows[i].append((e[:i] + (k - 1,) + e[i + 1:], a * k, b * k))
    g = gcd(den, *[x for row in rows for _, a, b in row for x in (a, b)])
    if g > 1:
        rows = tuple([(e, a // g, b // g) for e, a, b in row] for row in rows)
    return rows, den // g


def _contract(gterms, v: SuperPoly, div: bool = False) -> SuperPoly:
    """sum_i grads[i] * dxi(v, i), plus the divergence sum_i d/dx_i dxi(v, i) if div: every d_* map.

    gterms is (rows, G) as `_gradients` writes it, one row per variable of v:
    rows[i] lists (e, a, b) per term (a + b*i)/G x^e of grads[i].  An Action
    and an HbarModel build theirs once.  Every gradient must be xi-free, as
    theirs are, so each contribution carries the sign of dxi alone.  v is
    cleared to Gaussian integers over one L, so every product lies over L * G,
    and each divergence contribution is scaled by G to lie there too.
    """
    rows, gden = gterms
    if len(rows) != v.n:
        raise ValueError("variable count mismatch")
    pairs, den = clear_denominators(v.terms.values())

    def contributions():
        for (e, m), (ca, cb) in zip(v.terms, pairs):
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                gt = rows[i]
                p = e[i] * gden if div else 0
                if not gt and not p:
                    continue
                sa, sb = (-ca, -cb) if (m & (bit - 1)).bit_count() & 1 else (ca, cb)
                mask = m ^ bit
                for ge, ga, gb in gt:
                    yield (tuple(map(add, e, ge)), mask), ga * sa - gb * sb, ga * sb + gb * sa
                if p:
                    yield (e[:i] + (e[i] - 1,) + e[i + 1:], mask), sa * p, sb * p

    return sum_pairs(v.n, contributions(), den * gden)


def d_cl(a: Action, v: SuperPoly) -> SuperPoly:
    """Koszul differential sum_i (ds/dx_i) d/dxi_i; lowers homological degree by 1."""
    return _contract(a.cgrad, v)


def d_div(v: SuperPoly) -> SuperPoly:
    """Divergence sum_i d^2/(dx_i dxi_i); lowers weight by exactly d on xi terms."""
    return _contract((((),) * v.n, 1), v, div=True)


def d_bv(a: Action, v: SuperPoly) -> SuperPoly:
    """The full differential d_cl + div, in one pass."""
    return _contract(a.cgrad, v, div=True)


def d_diag(a: Action, v: SuperPoly) -> SuperPoly:
    return _contract(a.cgrad_diag, v)
