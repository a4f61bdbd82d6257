import random
from math import factorial

import pytest

from bvreduce import (
    InputError,
    Scalar,
    SuperPoly,
    action_build,
    d_bv,
    d_cl,
    d_diag,
    d_div,
    q,
)
from bvreduce.bvdiff import _gradients
from bvreduce.scalars import ONE
from bvreduce.verify import random_action, random_degree1, random_rational
from oracles import contract, contraction_terms, weight_split


def test_action_build_1d():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3 + x)
    assert a.d == 3
    assert a.diag == x**3
    assert a.mix.is_zero
    assert a.low == x
    assert a.diag_coeffs == (Scalar(6),)


def test_action_build_diag_mix_split():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**3 + 2 * (x**2 * y) + y**3)
    assert a.diag == x**3 + y**3
    assert a.mix == 2 * (x**2 * y)
    assert a.diag_coeffs == (Scalar(6), Scalar(6))


def test_action_build_failure_quartic_split():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    s = x**4 + 2 * (x**3 * y) + 2 * (x * y**3) + y**4
    a = action_build(s)
    assert a.diag == x**4 + y**4
    assert a.mix == 2 * (x**3 * y) + 2 * (x * y**3)
    assert a.diag_coeffs == (Scalar(24), Scalar(24))


def test_one_pass_split_reads_s_term_by_term():
    """s = diag + mix + low with each term in its place, a_i = d! [x_i^d]s, and quad is s's normal form for d = 2."""
    rng = random.Random(41)
    seen = set()
    for trial in range(60):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        terms = dict(random_action(rng, n, d).s.terms)
        if trial % 3 == 0 and n > 1:
            # a_0 = 0, with a mixed term of degree d so that d stays the degree
            del terms[((d,) + (0,) * (n - 1), 0)]
            terms[((1, d - 1) + (0,) * (n - 2), 0)] = ONE
        complexified = trial % 2 == 1
        if complexified:
            terms = {key: c * (ONE + Scalar(0, 1) * random_rational(rng)) for key, c in terms.items()}
        s = SuperPoly(n, terms)
        a = action_build(s)
        assert a.d == d
        assert a.diag + a.mix + a.low == s
        assert all(not mask and sum(e) == d and sum(1 for p in e if p) == 1 for e, mask in a.diag.terms)
        assert all(not mask and sum(e) == d and sum(1 for p in e if p) >= 2 for e, mask in a.mix.terms)
        assert all(not mask and sum(e) < d for e, mask in a.low.terms)
        fact = factorial(d)
        assert a.diag_coeffs == tuple(fact * s.coeff(tuple(d * (j == i) for j in range(n))) for i in range(n))
        if d == 2:
            assert "quad" not in vars(a)  # built on first access
            s2, s1, s0 = a.quad
            x = [SuperPoly.x(n, i) for i in range(n)]
            form = SuperPoly.const(n, s0)
            for i in range(n):
                form = form + x[i].scale(s1[i])
                for j in range(n):
                    form = form + (x[i] * x[j]).scale(s2[i][j] * Scalar(q(1, 2)))
            assert form == s
        else:
            assert a.quad is None
        seen.add((complexified, not all(a.diag_coeffs)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_action_build_rejects_constant_and_linear():
    with pytest.raises(InputError):
        action_build(SuperPoly.const(1, 5))
    with pytest.raises(InputError):
        action_build(SuperPoly.x(1, 0))


def test_action_build_rejects_xi():
    with pytest.raises(InputError):
        action_build(SuperPoly.xi(1, 0) + SuperPoly.x(1, 0) ** 2)


def test_quadratic_accessors():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**2 - (x * y) + 3 * y**2 + 2 * x + 5)
    s2, s1, s0 = a.quad
    assert s2[0][0] == Scalar(2) and s2[1][1] == Scalar(6)
    assert s2[0][1] == s2[1][0] == Scalar(-1)
    assert s1 == [Scalar(2), Scalar(0)]
    assert s0 == Scalar(5)


def test_d_cl_examples():
    x = SuperPoly.x(1, 0)
    xi = SuperPoly.xi(1, 0)
    a = action_build(x**3)
    assert d_cl(a, xi) == 3 * x**2
    assert d_cl(a, (xi * x).scale(Scalar(q(1, 3)))) == x**3


def test_d_div_examples():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    xi0, xi1 = SuperPoly.xi(n, 0), SuperPoly.xi(n, 1)
    assert d_div(xi0 * x0) == SuperPoly.one(n)
    assert d_div(xi0 * x1).is_zero
    # hand expansion with the ascending-word sign convention
    assert d_div(xi0 * xi1 * x0 * x1) == xi1 * x1 - xi0 * x0


def test_d_bv_example_and_constants():
    x = SuperPoly.x(1, 0)
    xi = SuperPoly.xi(1, 0)
    a = action_build(x**3)
    got = d_bv(a, (xi * x).scale(Scalar(q(1, 3))))
    assert got == x**3 + SuperPoly.const(1, Scalar(q(1, 3)))
    assert d_bv(a, SuperPoly.const(1, 7)).is_zero


@pytest.mark.parametrize("kernel", [d_cl, d_diag, d_bv])
def test_differentials_refuse_another_variable_count(kernel):
    """v in n - 1 or n + 1 variables is a ValueError, never a truncated or out-of-range exponent word."""
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + 2 * (x0 * x1**2) + x1**3 + x0)
    for m in (n - 1, n + 1):
        v = SuperPoly.x(m, 0, 2) * SuperPoly.xi(m, 0)
        with pytest.raises(ValueError, match="variable count mismatch"):
            kernel(a, v)


def _contraction(p):
    """v -> sum_i dp/dx_i * dxi(v, i), the contraction with the gradient of a xi-free p."""
    gterms = contraction_terms([p.dx(i) for i in range(p.n)])
    return lambda v: contract(gterms, v)


def _as_rational_rows(gterms):
    """Contraction rows (rows, G) as one {exponent word: Scalar} map per variable."""
    rows, den = gterms
    maps = []
    for row in rows:
        out = {}
        for e, a, b in row:
            assert e not in out
            out[e] = Scalar(q(a, den), q(b, den))
        maps.append(out)
    return maps


def test_gradients_match_contraction_terms_of_dx():
    """_gradients(p), one integer pass, is contraction_terms of the n partial derivatives of p."""
    rng = random.Random(71)
    cases = [SuperPoly.zero(n) for n in (1, 2, 3, 4)] + [SuperPoly.const(2, Scalar(q(3, 7), q(-1, 2)))]
    for _ in range(40):
        n = rng.randint(1, 4)
        p = SuperPoly.zero(n)
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 4) for _ in range(n))
            c = random_rational(rng, 6)
            if rng.random() < 0.5:
                c = c + random_rational(rng, 6) * Scalar(0, 1)
            p = p + SuperPoly.monomial(n, e, coeff=c)
        cases.append(p)
    for p in cases:
        got, want = _gradients(p), contraction_terms([p.dx(i) for i in range(p.n)])
        assert len(got[0]) == p.n and got[1] > 0
        assert _as_rational_rows(got) == _as_rational_rows(want)
    assert any(c.b for p in cases for c in p.terms.values())
    assert _gradients(SuperPoly.zero(3)) == (([], [], []), 1)


def test_d_diag_d_mix_split():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**3 + 2 * (x**2 * y) + y**3)
    d_mix, d_top = _contraction(a.mix), _contraction(a.diag + a.mix)
    xi0 = SuperPoly.xi(n, 0)
    assert d_diag(a, xi0) == 3 * x**2
    assert d_mix(xi0) == 4 * (x * y)
    v = xi0 * (x * y)
    assert d_diag(a, v) + d_mix(v) == d_top(v)


def test_d_mix_zero_when_no_mix():
    x = SuperPoly.x(1, 0)
    a = action_build(x**4)
    assert _contraction(a.mix)(SuperPoly.xi(1, 0)).is_zero


def test_rest_contraction_is_d_bv_minus_d_diag():
    rng = random.Random(33)
    for _ in range(15):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d, homogeneous=rng.random() < 0.3)
        v = _random_element(rng, n)
        mix, low = contract(a.cgrad_mix, v), contract(a.cgrad_low, v)
        assert mix + low + d_div(v) == d_bv(a, v) - d_diag(a, v)
        assert mix == _contraction(a.mix)(v)
        assert low == _contraction(a.low)(v)


def test_weight_behavior():
    rng = random.Random(31)
    for _ in range(15):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        d_top, d_low = _contraction(a.diag + a.mix), _contraction(a.low)
        v = random_degree1(rng, n, d, 7)
        w = max(weight_split(v, d))
        t = d_top(v)
        if not t.is_zero:
            assert max(weight_split(t, d)) <= w
            # the top contraction is weight-preserving on each graded piece
            for ww, part in weight_split(v, d).items():
                tp = d_top(part)
                if not tp.is_zero:
                    assert set(weight_split(tp, d)) == {ww}
        dv = d_div(v)
        if not dv.is_zero:
            for ww, part in weight_split(v, d).items():
                dp = d_div(part)
                if not dp.is_zero:
                    assert set(weight_split(dp, d)) == {ww - d}
        lo = d_low(v)
        if not lo.is_zero:
            assert max(weight_split(lo, d)) < w


def _random_element(rng, n, deg_cap=8):
    p = SuperPoly.zero(n)
    for _ in range(5):
        e = [0] * n
        for _ in range(rng.randint(0, deg_cap)):
            e[rng.randrange(n)] += 1
        xis = [i for i in range(n) if rng.random() < 0.4]
        p = p + SuperPoly.monomial(n, e, xis, rng.randint(-4, 4))
    return p


def test_differentials_square_to_zero():
    rng = random.Random(32)
    for _ in range(20):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        v = _random_element(rng, n)
        assert d_cl(a, d_cl(a, v)).is_zero
        assert d_div(d_div(v)).is_zero
        assert (d_cl(a, d_div(v)) + d_div(d_cl(a, v))).is_zero
        assert d_bv(a, d_bv(a, v)).is_zero
