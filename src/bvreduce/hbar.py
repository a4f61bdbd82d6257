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

The walk keys its terms by packed exponent words: exponent e_j sits in bits
SLOT_BITS * j and up of one int, so multiplying two monomials is one integer
addition and a derivative in x_j is one subtraction.  Every exponent the
walk holds is at most 2K, which the budget on K keeps inside a slot.
"""
from __future__ import annotations

import re
from math import factorial, gcd, lcm

from .bvdiff import _gradients
from .errors import InputError
from .linalg import invert
from .scalars import ONE, ZERO, Scalar, clear_denominators, gauss, q
from .superpoly import SuperPoly, sum_pairs

MAX_HBAR_ORDER_DEGREE = 48
"""Budget on K * max(2, largest vertex degree) in hbar_reduce and hbar_oracle; a larger product is an InputError.

The walk rewrites at most (K + 1)^2 buckets, but a bucket's term count grows
with the number of variables, which the budget does not read.
"""

SLOT_BITS = MAX_HBAR_ORDER_DEGREE.bit_length()
"""Bits per exponent in a packed word: enough for 2K, the largest exponent the walk holds, under the budget."""
_SLOT_MASK = (1 << SLOT_BITS) - 1


def _pack(e) -> int:
    """The exponent tuple e as one word, e_j in bits SLOT_BITS * j and up; each e_j must fit its slot."""
    word = 0
    for j, p in enumerate(e):
        word += p << (SLOT_BITS * j)
    return word


def _check_order(K) -> None:
    """A truncation order is an int (not a bool) >= 0; anything else is an InputError."""
    if isinstance(K, bool) or not isinstance(K, int):
        raise InputError(f"truncation order {K!r} is not an integer")
    if K < 0:
        raise InputError("truncation order must be non-negative")


def _check_budget(K, m: "HbarModel") -> None:
    """K as a truncation order for m: `_check_order`, and K * max(2, vertex degree) within MAX_HBAR_ORDER_DEGREE."""
    _check_order(K)
    vdeg = max(2, m.max_vertex_degree)
    if K * vdeg > MAX_HBAR_ORDER_DEGREE:
        raise InputError(f"order K={K} times vertex degree {vdeg} is over the budget of {MAX_HBAR_ORDER_DEGREE}")


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
        # (degree, rows, G) per vertex, by degree, for the vertex rule: the gradient rows of `_gradients` with
        # each x^e packed.  A vertex degree past the budget only passes it at K = 0, where no vertex is applied,
        # so a packed word that overflows its slot is never read.
        grads = []
        for deg in sorted(verts):
            rows, gden = _gradients(verts[deg])
            grads.append((deg, tuple([(_pack(e), a, b) for e, a, b in row] for row in rows), gden))
        self.cgrad_vertices = tuple(grads)
        self.max_vertex_degree = max(verts) if verts else 0


class HbarSeries:
    """The Scalar coefficients of hbar^0 .. hbar^K."""

    __slots__ = ("n", "K", "coeffs")

    def __init__(self, n: int, K: int, coeffs):
        _check_order(K)
        self.n = n
        self.K = K
        self.coeffs = [Scalar.of(c) for c in coeffs]
        if len(self.coeffs) != K + 1:
            raise InputError("need exactly K+1 coefficients")

    def scalars(self) -> list[Scalar]:
        return list(self.coeffs)

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
        return " ; ".join(f"h^{k}: ({c.text()})" if c else f"h^{k}: 0" for k, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"HbarSeries({self.text()})"


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


def hbar_reduce(f: SuperPoly, m: HbarModel, K: int) -> HbarSeries:
    """The class of f modulo the truncated differential, as a Scalar series.

    Rewrites each (order, x-degree) bucket once, in termination order: its
    terms v become (delta o hbar_eta)(v) with delta = -B - hbar*div, computed
    in integers by `feynman_rules`, and the constant left in the x-degree-0
    bucket of order k is the hbar^k coefficient.  hbar_reduce(1) == 1
    exactly.
    """
    _check_budget(K, m)  # before anything of size K is allocated
    if f.n != m.n:
        raise ValueError("variable count mismatch")
    if any(mask for _, mask in f.terms):
        raise InputError("observables must be xi-free")
    # buckets[(2(K - k) - deg, deg)] lists the parts (terms, den) of hbar order k and x-degree deg, terms keyed by
    # packed exponent words
    buckets: dict[tuple[int, int], list] = {}

    def push(k: int, deg: int, terms: dict, den: int, below=(2 * K + 1, 0)) -> None:
        if not terms or deg > 2 * (K - k):
            return  # nothing, or it reaches the constants only past order K
        pair = (2 * (K - k) - deg, deg)
        if pair >= below:
            raise AssertionError("rewriting step does not descend; this is a bug")
        buckets.setdefault(pair, []).append((terms, den))

    for (e, _), c in f.terms.items():
        deg = sum(e)
        if deg <= 2 * K:  # packed only once it survives the cut: a dropped term's exponent may not fit a slot
            push(0, deg, {_pack(e): [c.a, c.b]}, c.den)
    result = [ZERO] * (K + 1)
    while buckets:
        r, deg = pair = max(buckets)
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
    return HbarSeries(m.n, K, result)


def feynman_rules(m: HbarModel, terms: dict, den: int, deg: int, room: int):
    """One rewrite of a bucket sum_e terms[e] x^e / den, xi-free and homogeneous of x-degree deg > 0, in integers.

    terms maps packed exponent words to Gaussian integers (a, b).  The
    propagator leg y = sum_ij (a^-1)_ij xi_i d_j p / deg, which is
    -hbar_eta(p), is kept as integers y[i][f] for x^f xi_i, with 1/deg in the
    denominator (the bucket is homogeneous).  Returns (vertex, loop):

      vertex  (l, out, den) per vertex degree l with deg + l - 2 <= room:
              y contracted with the gradient of the degree-l vertex, of
              x-degree deg + l - 2 at the same order;
      loop    (out, den): sum_i d_i y_i, of x-degree deg - 2 at the next order.

    Each out maps packed words to [a, b] lists, summed in place as the
    contributions arrive, zeros not dropped (`_gather` drops them).  The
    vertex outputs sum to _contract(grad U, y) and the loop output is
    d_div(y).  Every word read or made has x-degree at most room, so no slot
    carries into the next.
    """
    cols, aden = m.cainv
    lanes = [(SLOT_BITS * j, 1 << (SLOT_BITS * j)) for j in range(m.n)]
    y = [{} for _ in lanes]
    for e, (ca, cb) in terms.items():
        for (shift, unit), col in zip(lanes, cols):
            if p := (e >> shift) & _SLOT_MASK:
                f = e - unit
                fa, fb = p * ca, p * cb
                for i, ta, tb in col:
                    a, b = ta * fa - tb * fb, ta * fb + tb * fa
                    yi = y[i]
                    s = yi.get(f)
                    if s is None:
                        yi[f] = [a, b]
                    else:
                        s[0] += a
                        s[1] += b
    yden = den * aden * deg
    vertex = []
    for l, rows, gden in m.cgrad_vertices:
        if deg + l - 2 > room:
            continue
        out: dict = {}
        for yi, row in zip(y, rows):
            for f, (ya, yb) in yi.items():
                for ge, ga, gb in row:
                    key = f + ge
                    a, b = ga * ya - gb * yb, ga * yb + gb * ya
                    s = out.get(key)
                    if s is None:
                        out[key] = [a, b]
                    else:
                        s[0] += a
                        s[1] += b
        vertex.append((l, out, yden * gden))
    loop: dict = {}
    for (shift, unit), yi in zip(lanes, y):
        for f, (ya, yb) in yi.items():
            if p := (f >> shift) & _SLOT_MASK:
                key = f - unit
                s = loop.get(key)
                if s is None:
                    loop[key] = [p * ya, p * yb]
                else:
                    s[0] += p * ya
                    s[1] += p * yb
    return vertex, (loop, yden)


def _gather(parts: list) -> tuple[dict, int]:
    """The parts (terms, den) of one bucket over one denominator, zeros dropped and the content divided out.

    The parts are merged in place into the first, whose values are [a, b]
    lists; a single part is neither rescaled nor merged.  The content is the
    gcd of the denominator and every integer, found by one gcd call.
    """
    terms, den = parts[0]
    if len(parts) > 1:
        first, den = den, lcm(*[d for _, d in parts])
        if den > first:
            s = den // first
            for ab in terms.values():
                ab[0] *= s
                ab[1] *= s
        for part, d in parts[1:]:
            s = den // d
            for e, (a, b) in part.items():
                t = terms.get(e)
                if t is None:
                    terms[e] = [a * s, b * s]
                else:
                    t[0] += a * s
                    t[1] += b * s
    g = gcd(den, *[x for ab in terms.values() for x in ab])
    return {e: (a // g, b // g) for e, (a, b) in terms.items() if a or b}, den // g


def isserlis_moment(cov_rows, alpha: tuple[int, ...]) -> Scalar:
    """Gaussian moment E[x^alpha] for a covariance matrix, by pair recursion."""
    cov = tuple(tuple(Scalar.of(v) for v in row) for row in cov_rows)
    return _isserlis(cov, tuple(alpha), {})


def _isserlis(cov, alpha: tuple[int, ...], memo: dict) -> Scalar:
    """E[x^alpha] for cov; memo holds the moments of cov found so far, so a caller keeps one per matrix."""
    total_deg = sum(alpha)
    if total_deg == 0:
        return ONE
    if total_deg % 2:
        return ZERO
    got = memo.get(alpha)
    if got is not None:
        return got
    i = next(k for k, a in enumerate(alpha) if a > 0)
    beta = list(alpha)
    beta[i] -= 1
    acc = ZERO
    for j, bj in enumerate(beta):
        if bj and cov[i][j]:
            gamma = list(beta)
            gamma[j] -= 1
            acc = acc + cov[i][j] * bj * _isserlis(cov, tuple(gamma), memo)
    memo[alpha] = acc
    return acc


def hbar_oracle(f: SuperPoly, m: HbarModel, K: int) -> HbarSeries:
    """Perturbative Gaussian check: <f e^U> / <e^U> with propagator hbar * a^{-1}.

    Independent of the rewriting route: vertex factors are expanded as
    polynomial powers and all moments evaluated by Isserlis pairings.  K is
    held to the walk's budget, MAX_HBAR_ORDER_DEGREE.
    """
    _check_budget(K, m)  # before any vertex power is expanded
    if any(mask for _, mask in f.terms):
        raise InputError("observables must be xi-free")
    cov = tuple(tuple(v for v in row) for row in m.ainv)
    memo: dict = {}
    u = m.u

    def bracket(g: SuperPoly) -> list[Scalar]:
        # <g e^{U/hbar}>_0 as a truncated series; each monomial of degree D in
        # the r-th vertex power contributes at hbar^(D/2 - r)
        out = [ZERO] * (K + 1)
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
                mom = _isserlis(cov, e, memo)
                if mom:
                    out[p] = out[p] + c * inv_fact * mom
            if r < rmax:
                upow = upow * u
        return out

    num = bracket(f)
    den = bracket(SuperPoly.one(m.n))
    if not den[0]:
        raise AssertionError("normalization series has zero constant term")
    ratio = [ZERO] * (K + 1)
    for k in range(K + 1):
        acc = num[k]
        for j in range(k):
            acc = acc - ratio[j] * den[k - j]
        ratio[k] = acc / den[0]
    return HbarSeries(m.n, K, ratio)
