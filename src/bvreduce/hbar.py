"""Asymptotic reduction of observables over a truncated hbar series.

The model is a nondegenerate quadratic pairing a together with vertex
polynomials of degree >= 3; the differential being inverted is

    L - B - hbar * div,
    L = sum a_ij x_i d/dxi_j,   B = sum_j (dU/dx_j) d/dxi_j,

with U the sum of the vertex polynomials.  Reduction rewrites an observable
modulo the image of this differential until only constants survive.  One
rewrite of a homogeneous part p of x-degree m > 0 applies the two Feynman
rules to its propagator leg y = sum_ij (a^-1)_ij xi_i d_j p / m:

  vertex  y joins a vertex of degree l through one leg, sum_i d_i U * y_i,
          at the same hbar order and x-degree m + l - 2;
  loop    y closes two legs into a loop, sum_i d_i y_i, at one more hbar and
          x-degree m - 2.

This is the usual Feynman-diagram sum evaluated without ever drawing a
diagram.

Termination and order given truncation order K: a term at hbar-order k with
x-degree m can only reach the constants at order >= k + m/2, so anything with
m > 2(K - k) is dropped.  On the survivors the pair (2(K - k) - m, m) falls
lexicographically at every step: a vertex of degree l sends (k, m) to
(k, m + l - 2) and lowers the first entry, a loop sends it to (k + 1, m - 2)
and keeps the first entry while lowering the second.  The terms are held in
buckets keyed by (k, m), at most (K + 1)^2 of them, and the bucket with the
largest pair is rewritten next.  Every step lands in a smaller pair, so each
bucket has all its terms when it is rewritten and is rewritten once, however
many paths of different lengths reach it; the constant of bucket (k, 0) is
the hbar^k coefficient.  A bucket is held as Gaussian integers over one
denominator, content-reduced by one gcd before it is rewritten, and only
those constants become Scalars.
"""
from __future__ import annotations

import re
from functools import lru_cache
from heapq import heappop, heappush
from math import factorial, gcd, lcm
from operator import add

from .bvdiff import _contract, contraction_terms, d_div
from .errors import InputError
from .linalg import invert
from .scalars import ZERO, Scalar, clear_denominators, gauss, q
from .superpoly import SuperPoly, add_pairs, sum_pairs


def _degree(key) -> int:
    """A vertex key as a degree: an int (not a bool), or a string of decimal digits with an optional sign."""
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, str) and re.fullmatch(r"[+-]?[0-9]+", key):
        try:
            return int(key)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"vertex degree {key!r} is not an integer")


def vertex_degrees(vertices: dict) -> dict:
    """vertices keyed by degree; a key that is no integer (3.7, " 3") or repeats a degree (3, "3") is an InputError."""
    out = {}
    for key, p in vertices.items():
        deg = _degree(key)
        if deg in out:
            raise InputError(f"vertex degree {deg} is given more than once")
        out[deg] = p
    return out


class HbarModel:
    """Quadratic pairing plus vertex polynomials sum b x...x / l!; u is their sum U."""

    def __init__(self, n: int, a, vertices=None):
        self.n = n
        rows = [[Scalar.of(v) for v in row] for row in a]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("pairing matrix must be n x n")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InputError("pairing matrix must be symmetric")
        self.a = rows
        f = invert(rows)  # SingularMatrix propagates
        self.ainv = f.inverse()
        # a^{-1} as (cols, A): cols[j] has (i, a, b) per nonzero entry (a + b*i)/A, read off the factor's
        # columns of det * a^{-1}; A = |det|, so the walk's denominators stay positive
        sign = -1 if f.det < 0 else 1
        self.cainv = tuple([(i, sign * a, sign * b) for i, a, b in f.column(j)] for j in range(n)), sign * f.det
        verts: dict[int, SuperPoly] = {}
        for deg, p in vertex_degrees(vertices or {}).items():
            if p.is_zero:
                continue
            if deg < 3:
                raise InputError("vertex degree must be at least 3")
            if p.n != n:
                raise InputError("vertex variable count mismatch")
            if any(mask for _, mask in p.terms):
                raise InputError("vertices must be xi-free")
            if any(sum(e) != deg for e, _ in p.terms):
                raise InputError(f"vertex of declared degree {deg} is not homogeneous")
            verts[deg] = p
        self.vertices = verts
        self.u = sum(verts.values(), SuperPoly.zero(n))
        # (degree, contraction_terms of its gradient) per vertex, by degree, for the vertex rule
        self.cgrad_vertices = tuple((deg, contraction_terms([verts[deg].dx(j) for j in range(n)]))
                                    for deg in sorted(verts))
        self.max_vertex_degree = max(verts) if verts else 0


class HbarSeries:
    """Coefficients of hbar^0 .. hbar^K; arithmetic drops orders beyond K."""

    __slots__ = ("n", "K", "coeffs")

    def __init__(self, n: int, K: int, coeffs=None):
        if K < 0:
            raise InputError("truncation order must be non-negative")
        self.n = n
        self.K = K
        if coeffs is None:
            self.coeffs = [SuperPoly.zero(n) for _ in range(K + 1)]
        else:
            coeffs = list(coeffs)
            if len(coeffs) != K + 1:
                raise InputError("need exactly K+1 coefficients")
            self.coeffs = coeffs

    @staticmethod
    def of_scalars(n: int, K: int, values) -> "HbarSeries":
        return HbarSeries(n, K, [SuperPoly.const(n, Scalar.of(v)) for v in values])

    def scalars(self) -> list[Scalar]:
        out = []
        for p in self.coeffs:
            if any(e != (0,) * self.n or m for (e, m) in p.terms):
                raise ValueError("series has non-constant coefficients")
            out.append(p.coeff((0,) * self.n))
        return out

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        if other.K != self.K or other.n != self.n:
            raise ValueError("series mismatch")
        return HbarSeries(self.n, self.K, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __eq__(self, other):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.n == other.n and self.K == other.K and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.K, tuple(self.coeffs)))

    def text(self) -> str:
        return " ; ".join(f"h^{k}: {p.text()}" for k, p in enumerate(self.coeffs))

    def __repr__(self):
        return f"HbarSeries({self.text()})"


def model_differential(m: HbarModel, v: SuperPoly, K: int) -> HbarSeries:
    """Apply L - B - hbar*div to a polynomial, as a truncated series."""
    n = m.n
    # L - B = sum_j (sum_i a_ij x_i - dU/dx_j) d/dxi_j
    grad_lb = [
        sum((SuperPoly.x(n, i) * m.a[i][j] for i in range(n)), SuperPoly.zero(n)) - m.u.dx(j) for j in range(n)
    ]
    out = HbarSeries(n, K)
    out.coeffs[0] = _contract(contraction_terms(grad_lb), v)
    if K >= 1:
        out.coeffs[1] = -d_div(v)
    return out


def hbar_eta(v: SuperPoly, m: HbarModel) -> SuperPoly:
    """Primitive for the leading term: -(1/l) sum (a^-1)_ij xi_i dv/dx_j per degree-l part.

    Satisfies L o hbar_eta = -id on xi-free polynomials of positive degree and
    kills constants.
    """
    if any(mask for _, mask in v.terms):
        raise InputError("hbar_eta expects homological degree 0")
    cols, aden = m.cainv
    pairs, den = clear_denominators(v.terms.values())
    ells = [sum(e) for e, _ in v.terms]
    # 1/ell for every degree ell over one common multiple
    lell = lcm(*[ell for ell in ells if ell])

    def contributions():
        for (e, _), (ca, cb), ell in zip(v.terms, pairs, ells):
            if not ell:
                continue
            scale = lell // ell
            for j, p in enumerate(e):
                if not p:
                    continue
                # -(p / ell) * ainv[i][j] * c
                f = -p * scale
                fa, fb = f * ca, f * cb
                ej = e[:j] + (p - 1,) + e[j + 1:]
                for i, ta, tb in cols[j]:
                    yield (ej, 1 << i), ta * fa - tb * fb, ta * fb + tb * fa

    return sum_pairs(m.n, contributions(), den * aden * lell)


MAX_HBAR_ORDER_DEGREE = 48
"""Budget on K * max(2, largest vertex degree) in hbar_reduce; a larger product is an InputError.

The walk rewrites at most (K + 1)^2 buckets, but a bucket's term count grows
with the number of variables, which the budget does not read.
"""


def hbar_reduce(f: SuperPoly, m: HbarModel, K: int) -> HbarSeries:
    """The class of f modulo the truncated differential, as a Scalar series.

    Rewrites each (order, x-degree) bucket once, in termination order: its
    terms v become (delta o hbar_eta)(v) with delta = -B - hbar*div, computed
    in integers by `feynman_rules`, and the constant left in the x-degree-0
    bucket of order k is the hbar^k coefficient.  hbar_reduce(1) == 1
    exactly.
    """
    return _walk(m, K, [f])


def hbar_reduce_series(series: HbarSeries, m: HbarModel) -> HbarSeries:
    """Linear extension of hbar_reduce to truncated series inputs: coefficient k enters at order k."""
    return _walk(m, series.K, series.coeffs)


def feynman_rules(m: HbarModel, terms: dict, den: int, deg: int, room: int):
    """One rewrite of a bucket sum_e terms[e] x^e / den, xi-free and homogeneous of x-degree deg > 0, in integers.

    terms maps exponent words to Gaussian integers (a, b).  The propagator
    leg y = sum_ij (a^-1)_ij xi_i d_j p / deg, which is -hbar_eta(p), is kept
    as integers y[(f, i)] for x^f xi_i, with 1/deg in the denominator (the
    bucket is homogeneous).  Returns (vertex, loop):

      vertex  (l, out, den) per vertex degree l with deg + l - 2 <= room:
              y contracted with the gradient of the degree-l vertex, of
              x-degree deg + l - 2 at the same order;
      loop    (out, den): sum_i d_i y_i, of x-degree deg - 2 at the next order.

    Each out maps exponent words to [a, b] lists, zeros not dropped.  The
    vertex outputs sum to _contract(grad U, y) and the loop output is
    d_div(y).
    """
    cols, aden = m.cainv

    def legs():
        for e, (ca, cb) in terms.items():
            for j, p in enumerate(e):
                if p:
                    f = e[:j] + (p - 1,) + e[j + 1:]
                    fa, fb = p * ca, p * cb
                    for i, ta, tb in cols[j]:
                        yield (f, i), ta * fa - tb * fb, ta * fb + tb * fa

    def joined(rows):
        for (f, i), (ya, yb) in y.items():
            for ge, ga, gb in rows[i]:
                yield tuple(map(add, f, ge)), ga * ya - gb * yb, ga * yb + gb * ya

    def closed():
        for (f, i), (ya, yb) in y.items():
            if p := f[i]:
                yield f[:i] + (p - 1,) + f[i + 1:], p * ya, p * yb

    y = add_pairs(legs())
    yden = den * aden * deg
    vertex = [(l, add_pairs(joined(rows)), yden * gden) for l, (rows, gden) in m.cgrad_vertices if deg + l - 2 <= room]
    return vertex, (add_pairs(closed()), yden)


def _gather(parts: list) -> tuple[dict, int]:
    """The parts (terms, den) of one bucket over one denominator, zeros dropped and the content divided out.

    The content is the gcd of the denominator and every integer, found by one gcd call.
    """
    den = lcm(*[d for _, d in parts])
    terms = add_pairs((e, a * (den // d), b * (den // d)) for part, d in parts for e, (a, b) in part.items())
    g = gcd(den, *[x for ab in terms.values() for x in ab])
    return {e: (a // g, b // g) for e, (a, b) in terms.items() if a or b}, den // g


def _walk(m: HbarModel, K: int, coeffs: list[SuperPoly]) -> HbarSeries:
    """Reduce sum_k hbar^k coeffs[k] by one pass over the buckets, largest (2(K - k) - deg, deg) first."""
    if K < 0:
        raise InputError("truncation order must be non-negative")
    # checked before anything of size K is allocated
    vdeg = max(2, m.max_vertex_degree)
    if K * vdeg > MAX_HBAR_ORDER_DEGREE:
        raise InputError(f"order K={K} times vertex degree {vdeg} is over the budget of {MAX_HBAR_ORDER_DEGREE}")
    if any(p.n != m.n for p in coeffs):
        raise ValueError("variable count mismatch")
    if any(mask for p in coeffs for _, mask in p.terms):
        raise InputError("observables must be xi-free")
    # buckets[(2(K - k) - deg, deg)] lists the parts (terms, den) of hbar order k and x-degree deg
    buckets: dict[tuple[int, int], list] = {}
    # every live pair once, negated, so the heap pops the largest
    heap: list[tuple[int, int]] = []

    def push(k: int, deg: int, terms: dict, den: int, below=(2 * K + 1, 0)) -> None:
        if not terms or deg > 2 * (K - k):
            return  # nothing, or it reaches the constants only past order K
        pair = (2 * (K - k) - deg, deg)
        if pair >= below:
            raise AssertionError("rewriting step does not descend; this is a bug")
        parts = buckets.get(pair)
        if parts is None:
            parts = buckets[pair] = []
            heappush(heap, (-pair[0], -deg))
        parts.append((terms, den))

    for k, p in enumerate(coeffs):
        for (e, _), c in p.terms.items():
            push(k, sum(e), {e: (c.a, c.b)}, c.den)
    result = [ZERO] * (K + 1)
    while heap:
        r, deg = heappop(heap)
        pair = r, deg = -r, -deg
        k = K - (r + deg) // 2
        terms, den = _gather(buckets.pop(pair))
        if not terms:
            continue
        if not deg:
            (a, b), = terms.values()
            result[k] = gauss(a, b, den)
            continue
        vertex, (loop, lden) = feynman_rules(m, terms, den, deg, 2 * (K - k))
        for l, out, vden in vertex:
            push(k, deg + l - 2, out, vden, pair)
        push(k + 1, deg - 2, loop, lden, pair)
    return HbarSeries.of_scalars(m.n, K, result)


def isserlis_moment(cov_rows, alpha: tuple[int, ...]) -> Scalar:
    """Gaussian moment E[x^alpha] for a covariance matrix, by pair recursion."""
    cov = tuple(tuple(Scalar.of(v) for v in row) for row in cov_rows)
    return _isserlis(cov, tuple(alpha))


@lru_cache(maxsize=None)
def _isserlis(cov, alpha: tuple[int, ...]) -> Scalar:
    total_deg = sum(alpha)
    if total_deg == 0:
        return Scalar(1)
    if total_deg % 2:
        return Scalar(0)
    i = next(k for k, a in enumerate(alpha) if a > 0)
    beta = list(alpha)
    beta[i] -= 1
    acc = Scalar(0)
    for j, bj in enumerate(beta):
        if bj and cov[i][j]:
            gamma = list(beta)
            gamma[j] -= 1
            acc = acc + cov[i][j] * bj * _isserlis(cov, tuple(gamma))
    return acc


def hbar_oracle(f: SuperPoly, m: HbarModel, K: int) -> HbarSeries:
    """Perturbative Gaussian check: <f e^U> / <e^U> with propagator hbar * a^{-1}.

    Independent of the rewriting route: vertex factors are expanded as
    polynomial powers and all moments evaluated by Isserlis pairings.
    """
    if K < 0:
        raise InputError("truncation order must be non-negative")
    if any(mask for _, mask in f.terms):
        raise InputError("observables must be xi-free")
    cov = tuple(tuple(v for v in row) for row in m.ainv)
    u = m.u

    def bracket(g: SuperPoly) -> list[Scalar]:
        # <g e^{U/hbar}>_0 as a truncated series; each monomial of degree D in
        # the r-th vertex power contributes at hbar^(D/2 - r)
        out = [Scalar(0)] * (K + 1)
        rmax = 2 * K if not u.is_zero else 0
        upow = SuperPoly.one(m.n)
        for r in range(rmax + 1):
            inv_fact = Scalar(q(1, factorial(r)))
            prod = g * upow
            for (e, _), c in prod.terms.items():
                deg = sum(e)
                if deg % 2:
                    continue
                p = deg // 2 - r
                if p < 0:
                    raise AssertionError("negative hbar power; vertex degrees < 3?")
                if p > K:
                    continue
                mom = _isserlis(cov, e)
                if mom:
                    out[p] = out[p] + c * inv_fact * mom
            if r < rmax:
                upow = upow * u
        return out

    num = bracket(f)
    den = bracket(SuperPoly.one(m.n))
    if not den[0]:
        raise AssertionError("normalization series has zero constant term")
    ratio = [Scalar(0)] * (K + 1)
    for k in range(K + 1):
        acc = num[k]
        for j in range(k):
            acc = acc - ratio[j] * den[k - j]
        ratio[k] = acc / den[0]
    return HbarSeries.of_scalars(m.n, K, ratio)
