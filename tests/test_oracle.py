import cmath
import math
import warnings

import pytest

from bvreduce import (
    ContourSpec,
    InputError,
    NotAllowable,
    Scalar,
    SuperPoly,
    action_build,
    contour_integrate,
    default_contours,
    ToleranceNotReached,
    q,
    verify_reduction,
)
from bvreduce import oracle
from bvreduce.reduce import ReduceSession


X = SuperPoly.x(1, 0)


def test_gaussian_value():
    a = action_build(X**2 * Scalar(q(-1, 2)))
    (c,) = default_contours(2, s=a.s)
    est = contour_integrate(a.s, SuperPoly.one(1), c, tol=1e-10)
    ref = math.sqrt(2 * math.pi)
    assert abs(est.value - ref) <= 1e-8 * ref
    assert est.err <= 1e-8 * ref


def test_total_derivative_integrates_to_zero():
    # 3x^2 e^{x^3} is exact, so its integral vanishes on every allowable contour
    a = action_build(X**3)
    for c in default_contours(3, s=a.s):
        est = contour_integrate(a.s, 3 * X**2, c, tol=1e-9)
        assert abs(est.value) <= 1e-8


def test_cubic_ratio_matches_class():
    a = action_build(X**3)
    for c in default_contours(3, s=a.s):
        num = contour_integrate(a.s, X**3, c, tol=1e-10)
        den = contour_integrate(a.s, SuperPoly.one(1), c, tol=1e-10)
        ratio = num.value / den.value
        assert abs(ratio - (-1 / 3)) < 1e-8


def test_default_contour_counts_and_sectors():
    assert len(default_contours(2)) == 1
    cs3 = default_contours(3)
    assert len(cs3) == 2
    # for e^{x^3} the decay sector midlines sit at pi/3, pi, 5pi/3
    want = {math.pi / 3, math.pi, 5 * math.pi / 3}
    got = set()
    for c in cs3:
        for u in c.end_directions:
            ang = cmath.phase(u) % (2 * math.pi)
            got.add(min(want, key=lambda t: abs(t - ang)))
            assert min(abs(t - ang) for t in want) < 1e-12
    assert got == want
    assert len(default_contours(4)) == 3


def test_verify_reduction_known_cases():
    a = action_build(X**3)
    rep = verify_reduction(a, X**6, tol=1e-6)
    assert rep.passed
    assert rep.coefficients[0] == Scalar(q(4, 9))
    a2 = action_build(X**3 * Scalar(q(1, 3)) - X)
    rep2 = verify_reduction(a2, X**3, tol=1e-6)
    assert rep2.passed
    assert rep2.coefficients == [Scalar(-1), Scalar(1)]


def test_verify_reduction_exact_element():
    # d_bv(3 xi) pushed to degree 0 is 9x^2 e^{x^3}-exact: class 0, integrals ~ 0
    a = action_build(X**3)
    rep = verify_reduction(a, 3 * X**2, tol=1e-6)
    assert rep.passed
    assert all(not c for c in rep.coefficients)


def test_homotopy_invariance_of_contour():
    # wiggling an interior waypoint moves I(f) by less than the quadrature tolerance
    a = action_build(X**3)
    base = default_contours(3, s=a.s)[0]
    bent = ContourSpec(
        waypoints=(0.3 + 0.2j, -0.1 - 0.25j),
        end_directions=base.end_directions,
        ray_length=base.ray_length,
    )
    v1 = contour_integrate(a.s, X**2 + X, base, tol=1e-10).value
    v2 = contour_integrate(a.s, X**2 + X, bent, tol=1e-10).value
    assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))


def test_linearity_of_integral():
    a = action_build(X**3)
    c = default_contours(3, s=a.s)[0]
    f, g = X**2, X**4
    i_f = contour_integrate(a.s, f, c, tol=1e-10).value
    i_g = contour_integrate(a.s, g, c, tol=1e-10).value
    i_mix = contour_integrate(a.s, 2 * f + 5 * g, c, tol=1e-10).value
    assert abs(i_mix - (2 * i_f + 5 * i_g)) < 1e-8 * max(1.0, abs(i_mix))


def test_not_allowable_contour():
    # rays along the growth sectors of x^3 violate the decay check
    bad = ContourSpec(waypoints=(0j,), end_directions=(1 + 0j, cmath.exp(2j * math.pi / 3)), ray_length=40.0)
    a = action_build(X**3)
    with pytest.raises(NotAllowable):
        contour_integrate(a.s, SuperPoly.one(1), bad, tol=1e-8)


def test_huge_ray_length_stays_resolved():
    # a valid contour may declare an enormous ray; the mass near the origin
    # must not be missed by the adaptive rule
    a = action_build(X**2 * Scalar(q(-1, 2)))
    base = default_contours(2, s=a.s)[0]
    huge = ContourSpec(base.waypoints, base.end_directions, 1.0e6)
    est = contour_integrate(a.s, SuperPoly.one(1), huge, tol=1e-9)
    ref = math.sqrt(2 * math.pi)
    assert abs(est.value - ref) <= 1e-8 * ref


def test_contour_json_round_trip():
    c = default_contours(3)[0]
    c2 = ContourSpec.from_json(c.to_json())
    assert c2 == c


def test_oracle_rejects_multivariable():
    n = 2
    s = SuperPoly.x(n, 0) ** 3 + SuperPoly.x(n, 1) ** 3
    with pytest.raises(InputError):
        verify_reduction(action_build(s), SuperPoly.one(n))


def test_separable_two_variable_recipe():
    """Documented n = 2 recipe: separable actions factor into 1-D integrals.

    For s = s1(x) + s2(y) and monomial f = x^a y^b, the product contour gives
    I(f) = I1(x^a) I2(y^b); the reduction of f must satisfy the induced
    relation with coefficients from the 2-D engine.
    """
    from bvreduce import reduce_full

    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a2 = action_build(x0**3 + x1**3)
    a1 = action_build(X**3)
    contours = default_contours(3, s=a1.s)
    c1, c2 = contours[0], contours[1]

    def i1(k, c):
        return contour_integrate(a1.s, X**k, c, tol=1e-10).value

    f = x0**3 * x1**4
    jc = reduce_full(a2, f)
    lhs = i1(3, c1) * i1(4, c2)
    rhs = 0j
    for (m0, m1), coeff in jc.coeffs.items():
        rhs += coeff.to_complex() * i1(m0, c1) * i1(m1, c2)
    scale = max(abs(lhs), abs(rhs), 1e-10)
    assert abs(lhs - rhs) <= 1e-6 * scale


def _rule_on_monomial(nodes, weights, centre_weight, k):
    # the symmetric rule applied to t^k over [-1, 1]
    return centre_weight * (k == 0) + sum(w * (x**k + (-x) ** k) for x, w in zip(nodes, weights))


@pytest.mark.parametrize("k", range(23))
def test_gauss_kronrod_tables_exact_on_monomials(k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    assert abs(_rule_on_monomial(oracle._XGK, oracle._WGK, oracle._WGK_CENTRE, k) - exact) <= 1e-15
    value, _ = oracle._qk15(lambda t: complex(t**k), -1.0, 1.0)
    assert abs(value - exact) <= 1e-15
    if k <= 13:
        gauss = _rule_on_monomial(oracle._XGK[1::2], oracle._WG, oracle._WG_CENTRE, k)
        assert abs(gauss - exact) <= 1e-15


def test_gauss_tables_not_exact_beyond_degree_13():
    # degree 14 is where 7-point Gauss first errs, so the k <= 13 check above has teeth
    assert abs(_rule_on_monomial(oracle._XGK[1::2], oracle._WG, oracle._WG_CENTRE, 14) - 2 / 15) > 1e-6


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 20, 35, 50])
def test_quad_oscillatory_closed_form(k):
    tol = 1e-10
    exact = 1.0 if k == 0 else (cmath.exp(1j * k) - 1) / (1j * k)
    est = oracle.quad(lambda t: cmath.exp(1j * k * t), 0.0, 1.0, tol)
    assert abs(est.value - exact) <= tol * max(1.0, abs(exact))
    assert est.err <= max(tol, tol * abs(est.value))


def test_quad_gaussian_closed_forms():
    tol = 1e-10
    est = oracle.quad(lambda t: cmath.exp(-t * t), 0.0, 3.0, tol)
    exact = math.sqrt(math.pi) / 2 * math.erf(3.0)
    assert abs(est.value - exact) <= tol * exact
    # complex width: the tails beyond |t| = 6 are below 1e-15
    a = 1 + 2j
    est = oracle.quad(lambda t: cmath.exp(-a * t * t), -6.0, 6.0, tol)
    exact = cmath.sqrt(math.pi / a)
    assert abs(est.value - exact) <= tol * abs(exact)


def test_quad_unreachable_tol_stops_at_limit():
    calls = []

    def g(t):
        calls.append(t)
        return cmath.exp(1j * 40 * t)

    est = oracle.quad(g, 0.0, 1.0, 1e-300)
    # one 15-point rule on the whole range, then two per bisection
    assert len(calls) == 15 * (2 * oracle._LIMIT - 1)
    assert est.err > 1e-300
    assert abs(est.value - (cmath.exp(40j) - 1) / 40j) <= 1e-12


def test_unreachable_tol_raises_without_warning(monkeypatch, capsys):
    evaluations = []
    real_quad = oracle.quad

    def counted_quad(g, a, b, tol):
        count = [0]

        def h(t):
            count[0] += 1
            return g(t)

        est = real_quad(h, a, b, tol)
        evaluations.append(count[0])
        return est

    monkeypatch.setattr(oracle, "quad", counted_quad)
    a = action_build(X**3)
    c = default_contours(3, s=a.s)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotReached):
            contour_integrate(a.s, X**2, c, tol=1e-22)
    assert evaluations
    assert all(n <= 15 * (2 * oracle._LIMIT - 1) for n in evaluations)
    assert capsys.readouterr() == ("", "")
