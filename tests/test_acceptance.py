"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete.  Every tolerance is pinned here; the exact-arithmetic criteria use
zero tolerance.
"""
import random
import time

import pytest

from bvreduce import (
    HbarModel,
    JacClass,
    NotGenericAtWeight,
    Scalar,
    SingularMatrix,
    SuperPoly,
    action_build,
    contour_integrate,
    default_contours,
    hbar_oracle,
    hbar_reduce,
    jac_basis,
    jac_rank_check,
    q,
    reduce_full,
    verify_reduction,
    wick,
)
from bvreduce.reduce import ReduceSession
from bvreduce.scalars import Q
from bvreduce.superpoly import monomials_of_degree
from bvreduce.verify import (
    check_exactness,
    isserlis_wick,
    random_action,
    random_quadratic,
    random_rational,
)

from oracles import ibp_moments

SEED = 20260810


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_exactness_gate():
    """200 seeded random boundaries reduce to zero, exactly, in under 60 s."""
    t0 = time.perf_counter()
    rep = check_exactness(200, seed=SEED, n_max=3, d_max=4, max_weight=8)
    elapsed = time.perf_counter() - t0
    ok = not rep.failures and rep.checks + rep.skipped == 200 and elapsed < 60.0
    _report(
        1,
        ok,
        f"exactness gate: {rep.checks} boundaries vanished exactly, "
        f"{rep.skipped} non-generic skips, {len(rep.failures)} failures, {elapsed:.1f}s (< 60s) "
        f"with scalars.Q = {Q.__module__}.{Q.__name__}",
    )


def test_criterion_2_known_1d_values():
    """Named 1-D classes plus the integration-by-parts recursion for all x^k, k <= 9."""
    x = SuperPoly.x(1, 0)
    b = jac_basis(1, 3)
    a_hom = action_build(x**3)
    a_inh = action_build(x**3 * Scalar(q(1, 3)) - x)
    named = (
        reduce_full(a_hom, x**3) == JacClass(b, {(0,): Scalar(q(-1, 3))})
        and reduce_full(a_hom, x**4) == JacClass(b, {(1,): Scalar(q(-2, 3))})
        and reduce_full(a_hom, x**6) == JacClass(b, {(0,): Scalar(q(4, 9))})
        and reduce_full(a_inh, x**2) == JacClass(b, {(0,): 1})
        and reduce_full(a_inh, x**3) == JacClass(b, {(0,): -1, (1,): 1})
    )
    recursion = True
    for a in (a_hom, a_inh):
        vecs = ibp_moments(a, 9)
        for k in range(10):
            if reduce_full(a, x**k).vector() != vecs[k]:
                recursion = False
    _report(2, named and recursion, "known 1-D values and IBP recursion for k <= 9, exact equality")


def test_criterion_3_wick_triple_agreement():
    """wick == reduce_full == Isserlis for quadratic actions up to n = 4, exactly."""
    x = SuperPoly.x(1, 0)
    a0 = action_build(x**2 * Scalar(q(-1, 2)))
    ok = wick(a0, x**4) == Scalar(3) == reduce_full(a0, x**4).vector()[0]
    rng = random.Random(SEED + 3)
    checks = 1
    for n, trials in ((1, 6), (2, 6), (3, 4), (4, 2)):
        for _ in range(trials):
            a = random_quadratic(rng, n)
            e = [0] * n
            for _ in range(rng.randint(0, 6)):
                e[rng.randrange(n)] += 1
            f = SuperPoly.monomial(n, e)
            w = wick(a, f)
            o = isserlis_wick(a, f)
            r = reduce_full(a, f).vector()[0]
            checks += 1
            if not (w == o == r):
                ok = False
    _report(3, ok, f"wick = reduce_full = Isserlis on {checks} quadratic instances (n <= 4, deg f <= 6)")


def test_criterion_4_dimension_serre_bezout():
    """jac_rank_check totals (d-1)^n with per-weight counts, 20 generic homogeneous actions."""
    rng = random.Random(SEED + 4)
    pairs = [(2, 3), (2, 4), (2, 5), (3, 3)]
    done = 0
    ok = True
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        n, d = pairs[done % len(pairs)]
        a = random_action(rng, n, d, homogeneous=True)
        w_max = n * (d - 2) + 1
        dims = jac_rank_check(a, w_max)
        basis = jac_basis(n, d)
        expected = [0] * (w_max + 1)
        for m in basis.monomials:
            expected[sum(m)] += 1
        if dims != expected:
            # non-generic sample: the engine must reject it too, then resample
            bad_w = next(w for w in range(w_max + 1) if dims[w] != expected[w])
            probe = next(m for m in basis.monomials if sum(m) == bad_w)
            try:
                reduce_full(a, SuperPoly.monomial(n, probe))
                ok = False
            except NotGenericAtWeight:
                continue
        if sum(dims) != (d - 1) ** n:
            ok = False
        done += 1
    ok = ok and done == 20
    _report(4, ok, f"rank-check dimensions match basis counts on {done} generic homogeneous actions")


def test_criterion_5_failure_detection():
    """The degenerate quartic trips NotGenericAtWeight(4) and shows the rank deficit."""
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**4 + 2 * (x**3 * y) + 2 * (x * y**3) + y**4)
    raised = None
    try:
        reduce_full(a, x**2 * y**2)
    except NotGenericAtWeight as exc:
        raised = exc.weight
    dims = jac_rank_check(a, 4)
    ok = raised == 4 and dims[4] == 0 and dims[:4] == [1, 2, 3, 2]
    _report(5, ok, f"NotGenericAtWeight({raised}) raised and weight-4 rank deficit confirmed (dims={dims})")


def test_criterion_6_hbar_asymptotics():
    """hbar_reduce matches the perturbative Gaussian oracle through hbar^3, exactly."""
    rng = random.Random(SEED + 6)
    ok = True
    checks = 0
    for _ in range(8):
        n = rng.randint(1, 2)
        a = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = random_rational(rng, 3, nonzero=True)
        for i in range(n):
            for j in range(i + 1, n):
                c = random_rational(rng, 2)
                a[i][j] = c
                a[j][i] = c
        vertices = {}
        for deg in (3, 4):
            p = SuperPoly.zero(n)
            for e in monomials_of_degree(n, deg):
                if rng.random() < 0.5:
                    p = p + SuperPoly.monomial(n, e, coeff=random_rational(rng, 2))
            if p.is_zero:
                # the criterion wants both a cubic and a quartic vertex present
                p = SuperPoly.x(n, 0, deg)
            vertices[deg] = p
        try:
            m = HbarModel(n, a, vertices)
        except SingularMatrix:
            continue
        e = [0] * n
        for _ in range(rng.randint(0, 4)):
            e[rng.randrange(n)] += 1
        f = SuperPoly.monomial(n, e)
        checks += 1
        if hbar_reduce(f, m, 3) != hbar_oracle(f, m, 3):
            ok = False
    # vertex-free case against the exact quadratic closed form, term by term
    x = SuperPoly.x(1, 0)
    m0 = HbarModel(1, [[1]])
    aq = action_build(x**2 * Scalar(q(-1, 2)))
    for k in range(4):
        series = hbar_reduce(x ** (2 * k), m0, 3).scalars()
        expect = [Scalar(0)] * 4
        if k <= 3:
            expect[k] = wick(aq, x ** (2 * k))
        if series != expect:
            ok = False
    ok = ok and checks >= 6
    _report(6, ok, f"hbar engine equals Gaussian oracle through order 3 on {checks} models; vertex-free matches quadratic closed form")


def test_criterion_7_numeric_validation():
    """Contour residuals within 1e-6 relative on all default contours; Gaussian to 1e-8."""
    import math

    t0 = time.perf_counter()
    x = SuperPoly.x(1, 0)
    ok = True
    worst = 0.0
    for s_poly in (x**3, x**3 * Scalar(q(1, 3)) - x, x**3 * Scalar(0, 1) + x**2):
        a = action_build(s_poly)
        for f in (x**2, x**3, x**4, x**6):
            rep = verify_reduction(a, f, tol=1e-6)
            worst = max(worst, max(c.residual / c.bound for c in rep.checks))
            if not rep.passed:
                ok = False
    ag = action_build(x**2 * Scalar(q(-1, 2)))
    (c2,) = default_contours(2, s=ag.s)
    est = contour_integrate(ag.s, SuperPoly.one(1), c2, tol=1e-10)
    ref = math.sqrt(2 * math.pi)
    gauss_ok = abs(est.value - ref) <= 1e-8 * ref
    elapsed = time.perf_counter() - t0
    ok = ok and gauss_ok and elapsed < 30.0
    _report(
        7,
        ok,
        f"12 reductions verified on every default contour (worst residual ratio {worst:.2e}), "
        f"Gaussian within 1e-8, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_8_splitting_independence():
    """Two valid splittings yield functionals passing the same contour budget.

    For one variable the filtered splitting of the diagonal projection is
    unique, so the second splitting here corrects x by a degree-2 element of
    the kernel (x -> x + x^2/2); the contour relations must hold for both at
    the same tolerance.  A strictly-lower-degree filtered correction only
    exists from n = 2, d = 4 upward, where the exact change-of-basis identity
    is checked as well.
    """
    x = SuperPoly.x(1, 0)
    ok = True
    for s_poly in (x**3, x**3 * Scalar(q(1, 3)) - x, x**3 * Scalar(0, 1) + x**2):
        a = action_build(s_poly)
        alt = ReduceSession(a, phi_correction={(1,): x**2 * Scalar(q(1, 2))})
        for f in (x**2, x**3, x**4, x**6):
            rep_std = verify_reduction(a, f, tol=1e-6)
            rep_alt = verify_reduction(a, f, tol=1e-6, session=alt)
            if not (rep_std.passed and rep_alt.passed):
                ok = False

    # strictly-lower-degree filtered correction, exact change-of-basis check
    rng = random.Random(SEED + 8)
    n, d = 2, 4
    x0 = SuperPoly.x(n, 0)
    corr = {(2, 2): x0**3 * Scalar(q(1, 2))}
    done = 0
    while done < 3:
        a2 = random_action(rng, n, d)
        try:
            std = ReduceSession(a2)
            alt2 = ReduceSession(a2, phi_correction=corr)
            basis = jac_basis(n, d)
            for _ in range(3):
                e = [0, 0]
                for _ in range(rng.randint(0, 8)):
                    e[rng.randrange(2)] += 1
                f = SuperPoly.monomial(n, e)
                lhs = std.reduce(f)
                rhs = JacClass(basis)
                for m, c in alt2.reduce(f).coeffs.items():
                    rep = alt2.phi(JacClass(basis, {m: 1}))
                    rhs = rhs + std.reduce(rep).scale(c)
                if lhs != rhs:
                    ok = False
        except NotGenericAtWeight:
            continue
        done += 1
    _report(8, ok, "both splittings pass every contour relation at the 1e-6 budget; change-of-basis identity exact")
