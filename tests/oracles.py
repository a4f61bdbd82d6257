"""Independent oracles and reference helpers used by the test suite.

These deliberately avoid the engine's homotopy machinery and kernels:
- the moment recursion only uses the integration-by-parts identity
  integral (g' + g s') e^s = 0, eliminating moments from the top down;
- the weight split reads the grading off each term and nothing else;
- `contraction_terms` clears a list of gradients over one denominator, the
  reference that `bvdiff._gradients` is tested against, and builds the rows
  `_contract` reads from arbitrary gradients;
- `contract` runs the integer kernel `_contract` on a SuperPoly as the d_*
  maps do, `step_map` and `map_solver` turn the integer step of a
  `SliceSolver` into a SuperPoly map and back, and `map_columns` and
  `column_poly` do the same for its integer column kernel, so tests state
  maps on SuperPoly values;
- `model_differential` applies the hbar model's L - B - hbar*div with
  SuperPoly derivatives and products alone, and `pack_exponents` and
  `unpack_exponents` turn exponent tuples into the packed words the hbar
  walk keys its terms by and back;
- `reference_hbar_oracle` is the plain perturbative expansion that
  `hbar.hbar_oracle` is tested against: every power of U in full, once for
  <f e^U> and again for <e^U>, and each moment by the Isserlis recursion in
  Scalars (`scalar_moment`);
- `result_from_json` reads a `bvreduce reduce` result back into a JacClass.
"""
from __future__ import annotations

from math import factorial

from bvreduce import Action, HbarModel, HbarSeries, InputError, JacClass, Scalar, SuperPoly, jac_basis
from bvreduce.bvdiff import _contract_poly
from bvreduce.cli import _is_int, _scalar_from_json
from bvreduce.hbar import SLOT_BITS
from bvreduce.hpl import SliceSolver
from bvreduce.scalars import ONE, ZERO, clear_denominators, gauss, q


def ibp_moments(action: Action, k_max: int) -> list[list[Scalar]]:
    """Express the moments I(x^k), k <= k_max, over the basis moments I(x^0..x^{d-2}).

    For s' = sum_i c_i x^i of degree d-1, taking g = x^j in the identity
    j*m_{j-1} + sum_i c_i m_{j+i} = 0 solves for m_{j+d-1} in terms of lower
    moments; iterating expresses every m_k as an exact vector over the first
    d-1 moments.
    """
    if action.n != 1:
        raise ValueError("one-variable oracle")
    d = action.d
    sp = action.s.dx(0)
    c = [sp.coeff((i,)) for i in range(d)]
    assert c[d - 1], "top coefficient of s' must be nonzero"
    dim = d - 1
    vecs: list[list[Scalar]] = []
    for k in range(min(k_max, dim - 1) + 1):
        vecs.append([Scalar(1) if t == k else Scalar(0) for t in range(dim)])
    for k in range(dim, k_max + 1):
        j = k - (d - 1)
        acc = [Scalar(0)] * dim
        if j > 0:
            for t in range(dim):
                acc[t] = acc[t] + vecs[j - 1][t] * j
        for i in range(d - 1):
            if c[i]:
                for t in range(dim):
                    acc[t] = acc[t] + c[i] * vecs[j + i][t]
        vecs.append([-a / c[d - 1] for a in acc])
    return vecs


def weight_split(p: SuperPoly, d: int) -> dict[int, SuperPoly]:
    """Split p into weight-homogeneous parts for deg(x_i) = 1, deg(xi_i) = d - 1."""
    if d < 2:
        raise ValueError("weight grading needs d >= 2")
    out: dict[int, SuperPoly] = {}
    for (e, m), c in p.terms.items():
        w = sum(e) + (d - 1) * m.bit_count()
        out.setdefault(w, SuperPoly(p.n)).terms[(e, m)] = c
    return out


def contraction_terms(grads) -> tuple[tuple[list[tuple], ...], int]:
    """The xi-free gradients as (rows, G) for `_contract`: rows[i] has (e, a, b) per term (a + b*i)/G x^e."""
    pairs, den = clear_denominators([c for gi in grads for c in gi.terms.values()])
    flat = iter(pairs)
    return tuple([(e, *next(flat)) for e, _ in gi.terms] for gi in grads), den


# `_contract(gterms, terms, div)` on a SuperPoly v: v cleared over one L, each surviving sum reduced over L * G
contract = _contract_poly


def step_map(n: int, step):
    """An integer step (y, L) -> (terms, L') as a SuperPoly map: v cleared over one L, each surviving sum reduced."""

    def apply(v: SuperPoly) -> SuperPoly:
        pairs, den = clear_denominators(v.terms.values())
        terms, den = step(dict(zip(v.terms, pairs)), den)
        return SuperPoly(n, {key: gauss(a, b, den) for key, (a, b) in terms.items() if a or b})

    return apply


def map_columns(eta, keep):
    """SuperPoly maps eta and keep as a SliceSolver column kernel: key -> -keep(eta(x^key)) as (Gaussian integers, den)."""

    def column(key):
        terms = keep(eta(SuperPoly(len(key[0]), {key: Scalar(-1)}))).terms
        pairs, den = clear_denominators(terms.values())
        return dict(zip(terms, pairs)), den

    return column


def column_poly(n: int, column) -> SuperPoly:
    """A cleared column (terms, den), as a column kernel or `SliceSolver._slice` hands it over, as a SuperPoly."""
    terms, den = column
    return SuperPoly(n, {key: gauss(a, b, den) for key, (a, b) in terms.items() if a or b})


def map_solver(n: int, d: int, eta, column, drop) -> SliceSolver:
    """A SliceSolver whose step is drop o eta for SuperPoly maps eta and drop."""

    def step(y, den):
        img = drop(eta(SuperPoly(n, {key: gauss(a, b, den) for key, (a, b) in y.items()})))
        pairs, lden = clear_denominators(img.terms.values())
        return dict(zip(img.terms, pairs)), lden

    return SliceSolver(n, d, column, step)


def model_differential(m: HbarModel, v: SuperPoly, K: int) -> list[SuperPoly]:
    """L - B - hbar*div applied to v, as its K+1 coefficients of hbar^0 .. hbar^K.

    L - B = sum_j g_j d/dxi_j with g_j = sum_i a_ij x_i - dU/dx_j, and div =
    sum_j d/dx_j d/dxi_j.
    """
    n = m.n
    zero = SuperPoly.zero(n)
    out = [zero] * (K + 1)
    grads = [sum((SuperPoly.x(n, i) * m.a[i][j] for i in range(n)), zero) - m.u.dx(j) for j in range(n)]
    out[0] = sum((g * v.dxi(j) for j, g in enumerate(grads)), zero)
    if K >= 1:
        out[1] = -sum((v.dxi(j).dx(j) for j in range(n)), zero)
    return out


def pack_exponents(e) -> int:
    """The exponent tuple e as a packed word of the hbar walk: e_j in bits SLOT_BITS * j and up."""
    assert all(0 <= p < 1 << SLOT_BITS for p in e), f"{e} does not fit {SLOT_BITS}-bit slots"
    return sum(p << (SLOT_BITS * j) for j, p in enumerate(e))


def unpack_exponents(word: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a packed word with n slots; nothing may be set past the n-th slot."""
    assert 0 <= word < 1 << (SLOT_BITS * n), f"word {word} has more than {n} slots"
    return tuple((word >> (SLOT_BITS * j)) & ((1 << SLOT_BITS) - 1) for j in range(n))


def scalar_moment(cov, alpha: tuple[int, ...], memo: dict) -> Scalar:
    """E[x^alpha] for the Scalar covariance rows cov by the Isserlis pair recursion; memo holds the moments of cov
    found so far."""
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
            acc = acc + cov[i][j] * bj * scalar_moment(cov, tuple(gamma), memo)
    memo[alpha] = acc
    return acc


def reference_hbar_oracle(f: SuperPoly, m: HbarModel, K: int) -> HbarSeries:
    """<f e^U> / <e^U> with propagator hbar * a^{-1}, every power U^r, r <= 2K, expanded in full for each bracket."""
    cov = tuple(tuple(v for v in row) for row in m.ainv)
    memo: dict = {}
    u = m.u

    def bracket(g: SuperPoly) -> list[Scalar]:
        # each monomial of degree D in g U^r / r! contributes at hbar^(D/2 - r)
        out = [ZERO] * (K + 1)
        rmax = 2 * K if not u.is_zero else 0
        upow = SuperPoly.one(m.n)
        for r in range(rmax + 1):
            inv_fact = Scalar(q(1, factorial(r)))
            for (e, _), c in (g * upow).terms.items():
                deg = sum(e)
                if deg % 2:
                    continue
                p = deg // 2 - r
                assert p >= 0, "negative hbar power; vertex degrees < 3?"
                if p <= K:
                    mom = scalar_moment(cov, e, memo)
                    if mom:
                        out[p] = out[p] + c * inv_fact * mom
            if r < rmax:
                upow = upow * u
        return out

    num = bracket(f)
    den = bracket(SuperPoly.one(m.n))
    ratio = [ZERO] * (K + 1)
    for k in range(K + 1):
        acc = num[k]
        for j in range(k):
            acc = acc - ratio[j] * den[k - j]
        ratio[k] = acc / den[0]
    return HbarSeries(m.n, K, ratio)


def result_from_json(data) -> JacClass:
    """The class in a `bvreduce reduce` result; InputError when the document does not describe one."""
    if not isinstance(data, dict) or not all(_is_int(data.get(k)) for k in ("n", "d")):
        raise InputError("result must be an object with integer 'n' and 'd' fields")
    basis = jac_basis(data["n"], data["d"])
    if data.get("basis") != [list(m) for m in basis.monomials]:
        raise InputError("basis in result file does not match n, d")
    coeffs = data.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != len(basis):
        raise InputError(f"'coefficients' must be a list of {len(basis)} scalars, one per basis monomial")
    return JacClass(basis, {m: _scalar_from_json(c) for m, c in zip(basis.monomials, coeffs)})
