"""The term-map kernels against independent references.

The single-pass kernels of the HPL loop are checked against their
compositional definitions, written with public SuperPoly operations only.
The SuperPoly ring operations, JacClass addition and SliceSolver.apply are
checked against a plain reference on dicts of Fraction pairs, on inputs with
planted cancellations.  Every output must be canonical: each coefficient
reduced over a positive denominator, and none zero.
"""
from fractions import Fraction
from math import comb, factorial, gcd, prod
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bvreduce import HbarModel, JacClass, Scalar, SuperPoly, action_build, eta_diag, hbar_eta, jac_basis
from bvreduce.bvdiff import d_div
from bvreduce.errors import SingularMatrix
from bvreduce.reduce import ReduceSession
from bvreduce.scalars import clear_denominators, gauss
from bvreduce.superpoly import monomials_of_degree
from oracles import contract, contraction_terms, map_columns, map_solver, step_map

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

small = st.integers(-4, 4)
# real, purely imaginary and general Gaussian rationals, zero included
scalars = st.builds(
    lambda a, b, den: Scalar(Fraction(a, den), Fraction(b, den)),
    small,
    small | st.just(0),
    st.integers(1, 4),
)
nonzero_scalars = scalars.filter(bool)


def polys(n: int, xi: bool, max_exp: int = 4):
    """Sparse SuperPolys in n variables; with xi, words of two or more xi factors occur."""
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    masks = st.integers(0, (1 << n) - 1) if xi else st.just(0)
    terms = st.dictionaries(st.tuples(exps, masks), scalars, max_size=8)
    return terms.map(lambda t: SuperPoly(n, {k: c for k, c in t.items() if c}))


# distinct primes from 29 to 97: the lcm of any four passes 10^6
WIDE_PRIMES = [29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def wide_polys(n: int, xi: bool, max_exp: int = 4):
    """SuperPolys of four to eight terms, each over its own prime denominator, with imaginary parts."""
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    masks = st.integers(0, (1 << n) - 1) if xi else st.just(0)
    keys = st.lists(st.tuples(exps, masks), min_size=4, max_size=8, unique=True)
    # numerators below 29 leave every prime denominator unreduced
    nums = st.lists(st.tuples(st.integers(-28, 28).filter(bool), st.integers(-28, 28)), min_size=8, max_size=8)
    return st.builds(
        lambda ks, dens, cs: SuperPoly(
            n, {k: Scalar(Fraction(a, p), Fraction(b, p)) for k, p, (a, b) in zip(ks, dens, cs)}
        ),
        keys,
        st.permutations(WIDE_PRIMES),
        nums,
    )


def assert_canonical(p: SuperPoly):
    for c in p.terms.values():
        assert c and c.den > 0 and gcd(c.a, c.b, c.den) == 1


def contract_ref(grads, v: SuperPoly) -> SuperPoly:
    return sum((g * v.dxi(i) for i, g in enumerate(grads)), SuperPoly.zero(v.n))


def d_div_ref(v: SuperPoly) -> SuperPoly:
    return sum((v.dxi(i).dx(i) for i in range(v.n)), SuperPoly.zero(v.n))


def eta_diag_ref(v: SuperPoly, action) -> SuperPoly:
    """sum_i P_1 (x) ... (x) P_(i-1) (x) eta_i (x) id, literally, on the one-variable factors.

    Factor j of x^m xi^S is x_j^(m_j) xi_j^(j in S); P_j keeps it when it is
    xi-free with m_j < d-1, and eta_i(x_i^p) = -((d-1)!/a_i) x_i^(p-d+1) xi_i
    for p >= d-1, 0 otherwise and on xi_i terms.  The factors are multiplied
    back in index order, and eta_i, being odd, takes the Koszul sign of the
    factors it passes.
    """
    n, d = v.n, action.d

    def factor(j, p, odd):
        f = SuperPoly.x(n, j, p)
        return SuperPoly.xi(n, j) * f if odd else f

    def proj(j, p, odd):
        return factor(j, p, odd) if not odd and p < d - 1 else SuperPoly.zero(n)

    def eta(j, p, odd):
        if odd or p < d - 1:
            return SuperPoly.zero(n)
        return factor(j, p - d + 1, True).scale(Scalar(-factorial(d - 1)) / action.diag_coeffs[j])

    out = SuperPoly.zero(n)
    for (e, mask), c in v.terms.items():
        for i in range(n):
            g = SuperPoly.const(n, c)
            for j in range(n):
                g = g * (proj if j < i else eta if j == i else factor)(j, e[j], mask >> j & 1)
            if (mask & ((1 << i) - 1)).bit_count() & 1:
                g = -g
            out = out + g
    return out


def hbar_eta_ref(v: SuperPoly, m: HbarModel) -> SuperPoly:
    n = m.n
    # the homogeneous parts of v by total x-degree
    parts: dict[int, SuperPoly] = {}
    for (e, mask), c in v.terms.items():
        parts.setdefault(sum(e), SuperPoly(n)).terms[(e, mask)] = c
    out = SuperPoly.zero(n)
    for ell, part in parts.items():
        if ell:
            piece = SuperPoly.zero(n)
            for i in range(n):
                for j in range(n):
                    piece = piece + SuperPoly.xi(n, i) * part.dx(j) * m.ainv[i][j]
            out = out + piece.scale(Scalar(Fraction(-1, ell)))
    return out


@SETTINGS
@given(st.data())
def test_contract_is_sum_of_gradient_times_dxi(data):
    n = data.draw(st.integers(1, 3))
    grads = [data.draw(polys(n, xi=False, max_exp=2)) for _ in range(n)]
    v = data.draw(polys(n, xi=True))
    got = contract(contraction_terms(grads), v)
    assert got == contract_ref(grads, v)
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_d_div_is_sum_of_dx_dxi(data):
    n = data.draw(st.integers(1, 3))
    v = data.draw(polys(n, xi=True))
    got = d_div(v)
    assert got == d_div_ref(v)
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_eta_diag_term_by_term(data):
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(2, 4))
    s = SuperPoly.zero(n)
    for i in range(n):
        s = s + SuperPoly.x(n, i, d) * data.draw(nonzero_scalars)
    if n > 1:
        s = s + SuperPoly.monomial(n, (1, d - 1) + (0,) * (n - 2), coeff=data.draw(scalars))
    action = action_build(s)
    v = data.draw(polys(n, xi=True, max_exp=6))
    got = eta_diag(v, action)
    assert got == eta_diag_ref(v, action)
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_session_step_is_drop_of_eta_diag(data):
    """The sweep's integer step is the weight-dropping contraction of eta_diag, both on SuperPoly values.

    drop is the contraction with the lower-order gradients plus the
    divergence.  The step is checked against it and against the plain
    references, on actions with real and complex coefficients, with and
    without a mixed and a lower part, and on y handed over unreduced, over
    a negative denominator as a negative slice det leaves it.
    """
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(2, 4))
    s = SuperPoly.zero(n)
    for i in range(n):
        s = s + SuperPoly.x(n, i, d) * data.draw(nonzero_scalars)
    if n > 1:
        s = s + SuperPoly.monomial(n, (1, d - 1) + (0,) * (n - 2), coeff=data.draw(scalars))
    lower = data.draw(st.booleans())
    if lower:
        s = s + SuperPoly.x(n, 0) * data.draw(nonzero_scalars)
        for e in (e for deg in range(d) for e in monomials_of_degree(n, deg)):
            s = s + SuperPoly.monomial(n, e, coeff=data.draw(scalars))
    action = action_build(s)
    assert action.has_lower() == lower
    step = ReduceSession(action).solver.step
    y = data.draw(polys(n, xi=True, max_exp=6))
    got = step_map(n, step)(y)
    assert got == contract(action.cgrad_low, eta_diag(y, action), div=True)
    e = eta_diag_ref(y, action)
    assert got == contract_ref([action.low.dx(i) for i in range(n)], e) + d_div_ref(e)
    assert_canonical(got)
    pairs, den = clear_denominators(y.terms.values())
    terms, tden = step({key: (-3 * a, -3 * b) for key, (a, b) in zip(y.terms, pairs)}, -3 * den)
    assert SuperPoly(n, {key: gauss(a, b, tden) for key, (a, b) in terms.items() if a or b}) == got


@SETTINGS
@given(st.data())
def test_hbar_eta_is_scaled_sum_over_degree_parts(data):
    n = data.draw(st.integers(1, 3))
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = data.draw(scalars)
    try:
        m = HbarModel(n, a)
    except SingularMatrix:
        assume(False)
    v = data.draw(polys(n, xi=False))
    got = hbar_eta(v, m)
    assert got == hbar_eta_ref(v, m)
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_kernels_match_references_over_wide_denominators(data):
    n = data.draw(st.integers(1, 3))
    v = data.draw(wide_polys(n, xi=True))
    f = data.draw(wide_polys(n, xi=False))
    grads = [data.draw(wide_polys(n, xi=False, max_exp=3)) for _ in range(n)]
    d = data.draw(st.integers(2, 4))
    s = SuperPoly.zero(n)
    for i in range(n):
        s = s + SuperPoly.x(n, i, d) * data.draw(nonzero_scalars)
    action = action_build(s)
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = data.draw(scalars)
    try:
        m = HbarModel(n, a)
    except SingularMatrix:
        assume(False)
    for got, want in [
        (contract(contraction_terms(grads), v), contract_ref(grads, v)),
        (contract(contraction_terms(grads), v, div=True), contract_ref(grads, v) + d_div_ref(v)),
        (d_div(v), d_div_ref(v)),
        (eta_diag(v, action), eta_diag_ref(v, action)),
        (hbar_eta(f, m), hbar_eta_ref(f, m)),
        (v * f, from_ref(n, ref_mul(ref(v), ref(f)))),
        (f * v, from_ref(n, ref_mul(ref(f), ref(v)))),
    ]:
        assert got == want
        assert_canonical(got)


def _x(i):
    return SuperPoly.x(2, i)


def _xi(i):
    return SuperPoly.xi(2, i)


@pytest.mark.parametrize(
    "kernel, v, expected",
    [
        # x0 * x1 - x1 * x0: every contribution cancels
        (lambda v: contract(contraction_terms((_x(0), _x(1))), v), _x(1) * _xi(0) - _x(0) * _xi(1), SuperPoly.zero(2)),
        # x1 - x1 from two different terms
        (d_div, _x(0) * _x(1) * _xi(0) - (_x(1) ** 2 * _xi(1)).scale(Scalar(Fraction(1, 2))), SuperPoly.zero(2)),
        # ainv = [[1, 1], [1, 2]]: the x0*xi0 contributions of the two terms cancel
        (
            lambda v: hbar_eta(v, HbarModel(2, [[2, -1], [-1, 1]])),
            _x(0) ** 2 - 2 * (_x(0) * _x(1)),
            _x(0) * _xi(1) + _x(1) * _xi(0) + _x(1) * _xi(1),
        ),
    ],
)
def test_cancelled_contributions_leave_no_term(kernel, v, expected):
    got = kernel(v)
    assert got == expected
    assert_canonical(got)


# -- a plain reference: term maps as dicts of (re, im) Fraction pairs ---------------


def ref(p: SuperPoly) -> dict:
    return {k: (c.re, c.im) for k, c in p.terms.items()}


def from_ref(n: int, p: dict) -> SuperPoly:
    return SuperPoly(n, {k: Scalar(re, im) for k, (re, im) in p.items()})


def ref_sum(contributions) -> dict:
    """Sum (key, (re, im)) contributions and drop the keys that cancel."""
    out = {}
    for k, (re, im) in contributions:
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + re, i0 + im)
    return {k: c for k, c in out.items() if c != (0, 0)}


def ref_neg(p: dict) -> dict:
    return {k: (-re, -im) for k, (re, im) in p.items()}


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def cpow(u, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = cmul(out, u)
    return out


def word(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ref_mul(p: dict, q: dict) -> dict:
    contributions = []
    for (e1, m1), c1 in p.items():
        for (e2, m2), c2 in q.items():
            if m1 & m2:
                continue
            w = word(m1) + word(m2)
            swaps = sum(w[a] > w[b] for a in range(len(w)) for b in range(a + 1, len(w)))
            c = cmul(c1, c2)
            contributions.append(((tuple(map(add, e1, e2)), m1 | m2), (-c[0], -c[1]) if swaps % 2 else c))
    return ref_sum(contributions)


def ref_dx(p: dict, i: int) -> dict:
    return ref_sum(
        ((e[:i] + (e[i] - 1,) + e[i + 1:], m), (re * e[i], im * e[i]))
        for (e, m), (re, im) in p.items()
        if e[i]
    )


def ref_dxi(p: dict, i: int) -> dict:
    return ref_sum(
        ((e, m & ~(1 << i)), (-re, -im) if sum(j < i for j in word(m)) % 2 else (re, im))
        for (e, m), (re, im) in p.items()
        if m >> i & 1
    )


def ref_shift(p: dict, cs) -> dict:
    """x_i -> x_i + cs[i] by binomial expansion of every term."""
    contributions = []
    for (e, m), c in p.items():
        expansion = [((), c)]
        for ei, ci in zip(e, cs):
            expansion = [
                (k + (j,), cmul(v, cmul((comb(ei, j), 0), cpow(ci, ei - j))))
                for k, v in expansion
                for j in range(ei + 1)
            ]
        contributions += [((k, m), v) for k, v in expansion]
    return ref_sum(contributions)


def planted(data, p: dict, extra: dict) -> dict:
    """extra minus a drawn part of p: added to p, every term of that part cancels."""
    keys = sorted(p)
    part = {k: p[k] for k in keys if data.draw(st.booleans())}
    return ref_sum([*ref_neg(part).items(), *extra.items()])


@SETTINGS
@given(st.data())
def test_add_sub_match_reference_and_drop_cancelled_terms(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, xi=True))
    r = ref(data.draw(polys(n, xi=True)))
    q = planted(data, ref(p), r)
    got = p + from_ref(n, q)
    assert ref(got) == ref_sum([*ref(p).items(), *q.items()])
    assert_canonical(got)
    got = p - from_ref(n, ref_neg(q))
    assert ref(got) == ref_sum([*ref(p).items(), *q.items()])
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_mul_matches_reference_and_drops_cancelled_terms(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, xi=True, max_exp=2))
    q = from_ref(n, planted(data, ref(p), ref(data.draw(polys(n, xi=True, max_exp=2)))))
    # on the even parts the cross terms of (p + q)(p - q) cancel
    a, b = p + q, p - q
    got = a * b
    assert ref(got) == ref_mul(ref(a), ref(b))
    assert_canonical(got)
    # an odd element squares to zero: every contribution meets its negative
    odd = SuperPoly(n, {k: c for k, c in p.terms.items() if k[1].bit_count() % 2})
    assert (odd * odd).is_zero
    assert ref_mul(ref(odd), ref(odd)) == {}


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_ring_identities(data):
    """Associativity, distributivity, and the graded Leibniz rule for dxi and dx."""
    n = data.draw(st.integers(1, 3))
    a, b, c = (data.draw(polys(n, xi=True, max_exp=2)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    even = SuperPoly(n, {k: v for k, v in a.terms.items() if not k[1].bit_count() % 2})
    odd = a - even
    for i in range(n):
        assert (a * b).dx(i) == a.dx(i) * b + a * b.dx(i)
        assert (a * b).dxi(i) == a.dxi(i) * b + even * b.dxi(i) - odd * b.dxi(i)


@SETTINGS
@given(st.data())
def test_dx_dxi_match_reference(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, xi=True))
    for i in range(n):
        for got, want in ((p.dx(i), ref_dx(ref(p), i)), (p.dxi(i), ref_dxi(ref(p), i))):
            assert ref(got) == want
            assert_canonical(got)


@SETTINGS
@given(st.data())
def test_shift_matches_reference_and_undoes_its_inverse(data):
    n = data.draw(st.integers(1, 3))
    g = data.draw(polys(n, xi=True, max_exp=3))
    cs = [data.draw(scalars) for _ in range(n)]
    pairs = [(c.re, c.im) for c in cs]
    # f = g(x - c), so shifting f by c cancels back down to g
    f = ref_shift(ref(g), [(-re, -im) for re, im in pairs])
    got = from_ref(n, f).shift(cs)
    assert ref(got) == ref_shift(f, pairs) == ref(g)
    assert_canonical(got)


@SETTINGS
@given(st.data())
def test_jac_class_add_matches_reference(data):
    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(2, 4))
    basis = jac_basis(n, d)
    coeffs = st.dictionaries(st.sampled_from(basis.monomials), scalars, max_size=6)
    a = JacClass(basis, data.draw(coeffs))
    extra = {m: (c.re, c.im) for m, c in data.draw(coeffs).items() if c}
    b = planted(data, {m: (c.re, c.im) for m, c in a.coeffs.items()}, extra)
    got = a + JacClass(basis, {m: Scalar(re, im) for m, (re, im) in b.items()})
    assert {m: (c.re, c.im) for m, c in got.coeffs.items()} == ref_sum(
        [*((m, (c.re, c.im)) for m, c in a.coeffs.items()), *b.items()]
    )
    assert all(got.coeffs.values())


def keep_ref(p: dict) -> dict:
    """The weight-keeping part of a degree-0 map t on two variables with (id - t) invertible per slice.

    Within a weight it is lower triangular in the y exponent, with (id - t)
    diagonal i*(a+1)/(b+2), and it kills the constants.
    """
    contributions = []
    for ((a, b), m), c in p.items():
        if a + b == 0:
            continue
        contributions.append((((a, b), m), cmul(c, (1, Fraction(-(a + 1), b + 2)))))
        if a:
            contributions.append((((a - 1, b + 1), m), cmul(c, (Fraction(1, 2), 0))))
    return ref_sum(contributions)


def drop_ref(p: dict) -> dict:
    """The weight-dropping part of the same t: it leaks one weight down through y-lowering."""
    return ref_sum([
        (((a, b - 1), m), cmul(c, (Fraction(-2, 3), Fraction(1, 5)))) for ((a, b), m), c in p.items() if b
    ])


@SETTINGS
@given(st.data())
def test_slice_solver_apply_matches_reference(data):
    def keep(v):
        return from_ref(2, keep_ref(ref(v)))

    def drop(v):
        return from_ref(2, drop_ref(ref(v)))

    # eta is the identity, so the column kernel is key -> -keep(x^key)
    column = map_columns(lambda v: v, keep)

    y = data.draw(polys(2, xi=True))
    # v = y - t(y): the leak of each solved slice cancels the matching terms of v
    v = ref_sum([*ref(y).items(), *ref_neg(keep_ref(ref(y))).items(), *ref_neg(drop_ref(ref(y))).items()])
    got = map_solver(2, 3, lambda v: v, column, drop).apply(from_ref(2, v))
    assert ref(got) == ref(y)
    assert_canonical(got)
