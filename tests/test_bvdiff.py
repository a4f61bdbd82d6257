import random

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
from bvreduce.bvdiff import _contract, contraction_terms
from bvreduce.verify import random_action, random_degree1


def test_action_build_1d():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3 + x)
    assert a.d == 3
    assert set(a.parts) == {3, 1}
    assert a.parts[3] == x**3
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


def _contraction(p):
    """v -> sum_i dp/dx_i * dxi(v, i), the contraction with the gradient of a xi-free p."""
    gterms = contraction_terms([p.dx(i) for i in range(p.n)])
    return lambda v: _contract(gterms, v)


def test_d_diag_d_mix_split():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**3 + 2 * (x**2 * y) + y**3)
    d_mix, d_top = _contraction(a.mix), _contraction(a.top)
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
        mix, low = _contract(a.cgrad_mix, v), _contract(a.cgrad_low, v)
        assert mix + low + d_div(v) == d_bv(a, v) - d_diag(a, v)
        assert mix == _contraction(a.mix)(v)
        assert low == _contraction(a.low)(v)


def test_weight_behavior():
    rng = random.Random(31)
    for _ in range(15):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        d_top, d_low = _contraction(a.top), _contraction(a.low)
        v = random_degree1(rng, n, d, 7)
        w = v.max_weight(d)
        t = d_top(v)
        if not t.is_zero:
            assert t.max_weight(d) <= w
            # the top contraction is weight-preserving on each graded piece
            for ww, part in v.weight_split(d).items():
                tp = d_top(part)
                if not tp.is_zero:
                    assert set(tp.weight_split(d)) == {ww}
        dv = d_div(v)
        if not dv.is_zero:
            for ww, part in v.weight_split(d).items():
                dp = d_div(part)
                if not dp.is_zero:
                    assert set(dp.weight_split(d)) == {ww - d}
        lo = d_low(v)
        if not lo.is_zero:
            assert lo.max_weight(d) < w


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
