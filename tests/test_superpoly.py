import random

import pytest

from bvreduce import Scalar, SuperPoly, q
from oracles import weight_split


def sp_x(n, i, p=1):
    return SuperPoly.x(n, i, p)


def test_add_cancels_to_empty():
    x = sp_x(1, 0)
    assert (x + (-x)).terms == {}
    assert (x + (-x)).is_zero


def test_add_xi_doubles():
    xi = SuperPoly.xi(1, 0)
    assert (xi + xi) == xi.scale(2)


def test_add_polynomials():
    x = sp_x(1, 0)
    assert (x**2 + 1) + x == x**2 + x + 1


def test_add_rejects_mismatched_n():
    with pytest.raises(ValueError):
        sp_x(1, 0) + sp_x(2, 0)


def test_x_rejects_a_negative_power():
    # x0^-2 is no monomial: reduced, it would be a class with a key outside the basis
    with pytest.raises(ValueError, match="power -2 is negative"):
        SuperPoly.x(1, 0, -2)
    assert SuperPoly.x(1, 0, 0) == SuperPoly.one(1)


def test_mul_koszul_sign_single_transposition():
    n = 2
    xi0, xi1 = SuperPoly.xi(n, 0), SuperPoly.xi(n, 1)
    assert xi1 * xi0 == -(xi0 * xi1)


def test_mul_odd_square_is_zero():
    xi0 = SuperPoly.xi(2, 0)
    assert (xi0 * xi0).is_zero


def test_mul_mixed_terms():
    n = 2
    x0, x1 = sp_x(n, 0), sp_x(n, 1)
    xi0, xi1 = SuperPoly.xi(n, 0), SuperPoly.xi(n, 1)
    got = (x0 * xi0) * (x1 * xi1)
    want = SuperPoly.monomial(n, (1, 1), (0, 1))
    assert got == want


def test_dx_basic():
    n = 2
    x0 = sp_x(n, 0)
    xi1 = SuperPoly.xi(n, 1)
    assert (x0**3 * xi1).dx(0) == 3 * (x0**2 * xi1)
    assert (x0**3).dx(1).is_zero
    assert (x0 * sp_x(n, 1)).dx(0) == sp_x(n, 1)


def test_dxi_sign_convention():
    n = 2
    xi0, xi1 = SuperPoly.xi(n, 0), SuperPoly.xi(n, 1)
    w = xi0 * xi1
    assert w.dxi(0) == xi1
    assert w.dxi(1) == -xi0
    assert (sp_x(n, 0) ** 2).dxi(0).is_zero


def test_shift_square():
    x = sp_x(1, 0)
    assert (x**2).shift([1]) == x**2 + 2 * x + 1


def test_shift_ignores_xi():
    xi = SuperPoly.xi(1, 0)
    assert xi.shift([Scalar(q(7, 3))]) == xi


def test_shift_inverse_random():
    rng = random.Random(9)
    n = 3
    for _ in range(20):
        p = SuperPoly.zero(n)
        for _ in range(5):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            xis = [i for i in range(n) if rng.random() < 0.3]
            p = p + SuperPoly.monomial(n, e, xis, Scalar(q(rng.randint(-5, 5), rng.randint(1, 4))))
        c = [Scalar(q(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
        assert p.shift(c).shift([-v for v in c]) == p


def test_weight_split():
    n = 1
    x, xi = sp_x(n, 0), SuperPoly.xi(n, 0)
    parts = weight_split(x**3 + xi, 3)
    assert set(parts) == {3, 2}
    assert parts[3] == x**3
    assert parts[2] == xi


def test_weight_split_mixed_term():
    p = SuperPoly.monomial(2, (1, 1), (0,))
    parts = weight_split(p, 4)
    assert set(parts) == {5}
    assert parts[5] == p


def test_weight_split_zero():
    assert weight_split(SuperPoly.zero(2), 3) == {}


def test_weight_split_parts_sum_and_homogeneous():
    rng = random.Random(4)
    n, d = 3, 4
    for _ in range(10):
        p = SuperPoly.zero(n)
        for _ in range(6):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            xis = [i for i in range(n) if rng.random() < 0.4]
            p = p + SuperPoly.monomial(n, e, xis, rng.randint(-4, 4))
        parts = weight_split(p, d)
        total = SuperPoly.zero(n)
        for w, part in parts.items():
            total = total + part
            assert {sum(e) + (d - 1) * m.bit_count() for (e, m) in part.terms} <= {w}
        assert total == p


def _random_homogeneous(rng, n, xdeg, h):
    """Random element with fixed x-degree and homological degree."""
    p = SuperPoly.zero(n)
    masks = [m for m in range(1 << n) if bin(m).count("1") == h]
    for _ in range(4):
        e = [0] * n
        for _ in range(xdeg):
            e[rng.randrange(n)] += 1
        m = masks[rng.randrange(len(masks))]
        xis = [i for i in range(n) if m >> i & 1]
        p = p + SuperPoly.monomial(n, e, xis, rng.randint(-3, 3))
    return p


def test_supercommutativity_random():
    rng = random.Random(12)
    n = 3
    for _ in range(30):
        ha, hb = rng.randint(0, n), rng.randint(0, n)
        a = _random_homogeneous(rng, n, rng.randint(0, 3), ha)
        b = _random_homogeneous(rng, n, rng.randint(0, 3), hb)
        sign = -1 if (ha & 1) and (hb & 1) else 1
        assert a * b == (b * a).scale(sign)


def test_dxi_anticommute():
    rng = random.Random(13)
    n = 3
    for _ in range(20):
        p = _random_homogeneous(rng, n, 2, rng.randint(0, n))
        for i in range(n):
            assert p.dxi(i).dxi(i).is_zero
            for j in range(n):
                if i != j:
                    assert p.dxi(i).dxi(j) == -(p.dxi(j).dxi(i))


def test_dx_dxi_commute():
    rng = random.Random(14)
    n = 3
    for _ in range(20):
        p = _random_homogeneous(rng, n, 3, rng.randint(0, n))
        for i in range(n):
            for j in range(n):
                assert p.dxi(i).dx(j) == p.dx(j).dxi(i)


def test_leibniz_graded():
    rng = random.Random(15)
    n = 2
    for _ in range(20):
        ha = rng.randint(0, n)
        a = _random_homogeneous(rng, n, rng.randint(0, 2), ha)
        b = _random_homogeneous(rng, n, rng.randint(0, 2), rng.randint(0, n))
        for i in range(n):
            lhs = (a * b).dxi(i)
            rhs = a.dxi(i) * b + (a * b.dxi(i)).scale(-1 if ha & 1 else 1)
            assert lhs == rhs


def test_text_rendering_canonical():
    n = 2
    p = (
        SuperPoly.monomial(n, (0, 1), (1,), Scalar(q(-1, 3)))
        + SuperPoly.monomial(n, (2, 0), (), Scalar(q(1, 1), q(1, 2)))
        + SuperPoly.monomial(n, (0, 1), (0,), 2)
    )
    assert p.text() == "(2/1+0/1*i)*x1*xi0 + (-1/3+0/1*i)*x1*xi1 + (1/1+1/2*i)*x0^2"
    assert SuperPoly.zero(2).text() == "0"


def test_scalar_text():
    assert Scalar(q(-1, 3)).text() == "-1/3+0/1*i"
    assert Scalar(0, q(-2, 5)).text() == "0/1-2/5*i"
