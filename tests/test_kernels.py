"""The single-pass kernels of the HPL loop against their compositional definitions.

Each kernel builds its output in one pass over the input terms; the
references here are written with public SuperPoly operations only.
"""
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bvreduce import HbarModel, Scalar, SuperPoly, action_build, eta_diag, hbar_eta
from bvreduce.bvdiff import _contract, d_div
from bvreduce.errors import SingularMatrix

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


def assert_no_zero_coefficient(p: SuperPoly):
    assert all(p.terms.values())


def contract_ref(grads, v: SuperPoly) -> SuperPoly:
    return sum((g * v.dxi(i) for i, g in enumerate(grads)), SuperPoly.zero(v.n))


def d_div_ref(v: SuperPoly) -> SuperPoly:
    return sum((v.dxi(i).dx(i) for i in range(v.n)), SuperPoly.zero(v.n))


def eta_diag_ref(v: SuperPoly, action) -> SuperPoly:
    d = action.d
    out = SuperPoly.zero(v.n)
    for (e, _), c in v.terms.items():
        den = sum(comb(p, d - 1) for p in e)
        for i, p in enumerate(e):
            if p >= d - 1:
                falling = prod(range(p - d + 2, p + 1))
                coeff = -(c * falling) / (action.diag_coeffs[i] * den)
                exps = list(e)
                exps[i] -= d - 1
                out = out + SuperPoly.monomial(v.n, exps, (i,), coeff)
    return out


def hbar_eta_ref(v: SuperPoly, m: HbarModel) -> SuperPoly:
    n = m.n
    out = SuperPoly.zero(n)
    for ell, part in v.xdeg_split().items():
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
    got = _contract(grads, v)
    assert got == contract_ref(grads, v)
    assert_no_zero_coefficient(got)


@SETTINGS
@given(st.data())
def test_d_div_is_sum_of_dx_dxi(data):
    n = data.draw(st.integers(1, 3))
    v = data.draw(polys(n, xi=True))
    got = d_div(v)
    assert got == d_div_ref(v)
    assert_no_zero_coefficient(got)


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
    v = data.draw(polys(n, xi=False, max_exp=6))
    got = eta_diag(v, action)
    assert got == eta_diag_ref(v, action)
    assert_no_zero_coefficient(got)


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
    assert_no_zero_coefficient(got)


def _x(i):
    return SuperPoly.x(2, i)


def _xi(i):
    return SuperPoly.xi(2, i)


@pytest.mark.parametrize(
    "kernel, v, expected",
    [
        # x0 * x1 - x1 * x0: every contribution cancels
        (lambda v: _contract((_x(0), _x(1)), v), _x(1) * _xi(0) - _x(0) * _xi(1), SuperPoly.zero(2)),
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
    assert_no_zero_coefficient(got)
