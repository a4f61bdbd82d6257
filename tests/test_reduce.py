import hashlib
import itertools
import random

import pytest

import bvreduce.hpl as hpl
import bvreduce.reduce as reduce_mod
from bvreduce import (
    InputError,
    JacClass,
    NonDiagonalizableAction,
    NotGenericAtWeight,
    Scalar,
    SuperPoly,
    action_build,
    d_bv,
    eta_diag,
    jac_basis,
    jac_rank_check,
    q,
    reduce_full,
    tau_diag,
    wick,
)
from bvreduce.reduce import ReduceSession, session_for
from bvreduce.superpoly import monomials_of_degree
from bvreduce.verify import isserlis_wick, random_action, random_degree1, random_quadratic, random_rational

from oracles import ibp_moments


# -- basis -----------------------------------------------------------------


def test_jac_basis_n2_d3():
    b = jac_basis(2, 3)
    assert b.monomials == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(b) == 4


def test_basis_membership_matches_the_monomial_scan():
    """`m in basis` is an O(n) rule that accepts and rejects exactly what a scan of the monomials does."""
    for n, d in ((1, 2), (2, 3), (3, 4)):
        basis = jac_basis(n, d)
        words = [w for size in (n - 1, n, n + 1) for w in itertools.product(range(-1, d + 1), repeat=size)]
        for w in words + [list(basis.monomials[-1]), None, 0, (1.0,) * n, (True,) * n]:
            assert (w in basis) == (w in basis.monomials)


def test_classes_and_sections_reject_words_outside_the_basis():
    """A wrong-length word and a word with exponent d - 1 are refused by JacClass and by a section correction."""
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    basis = jac_basis(2, 3)
    a = action_build(x0**3 + x1**3)
    for word in ((0,), (0, 0, 0), (2, 0), (1, 2)):
        with pytest.raises(ValueError, match="is not a basis monomial"):
            JacClass(basis, {word: 1})
        with pytest.raises(InputError, match="is not a basis monomial"):
            ReduceSession(a, phi_correction={word: x0**3 * x1**3})
    assert JacClass(basis, {(1, 1): 1}).coeffs == {(1, 1): Scalar(1)}
    ReduceSession(a, phi_correction={(1, 1): x0**3 * x1**3})


def test_jac_basis_n1_d2():
    assert jac_basis(1, 2).monomials == ((0,),)


def test_jac_basis_n2_d4():
    b = jac_basis(2, 4)
    assert len(b) == 9
    assert all(max(m) <= 2 for m in b.monomials)


def test_jac_basis_cache_is_bounded_and_an_evicted_basis_still_compares_equal():
    old = jac_basis(1, 3)
    cls = JacClass(old, {(1,): 2})
    for d in range(2, 302):  # more shapes than the cache holds
        jac_basis(1, d)
    assert jac_basis.cache_info().currsize <= 256
    fresh = jac_basis(1, 3)
    assert fresh is not old
    assert fresh == old and JacClass(fresh, {(1,): 2}) == cls


def test_jac_basis_rejects_small_d():
    with pytest.raises(InputError):
        jac_basis(2, 1)


# -- tau_diag / eta_diag ------------------------------------------------------


def test_tau_diag_examples():
    x = SuperPoly.x(1, 0)
    assert tau_diag(x**2, 3).is_zero
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    got = tau_diag(x0 * x1, 3)
    assert got == JacClass(jac_basis(2, 3), {(1, 1): 1})
    got2 = tau_diag(SuperPoly.const(n, 5) + x0**2 * x1, 3)
    assert got2 == JacClass(jac_basis(2, 3), {(0, 0): 5})


def test_eta_diag_cubic():
    x = SuperPoly.x(1, 0)
    xi = SuperPoly.xi(1, 0)
    a = action_build(x**3)
    got = eta_diag(x**3, a)
    assert got == (xi * x).scale(Scalar(q(-1, 3)))
    # d_diag(eta(x^3)) = -x^3 = (phi tau - id)(x^3)
    from bvreduce.bvdiff import d_diag

    assert d_diag(a, got) == -(x**3)


def test_eta_diag_vanishes_on_basis_monomials():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + x1**3)
    assert eta_diag(x0 * x1, a).is_zero


def test_eta_diag_mixed_monomial():
    # x0 is the first index with m_i >= d-1, so only it contracts: -(2!/6) xi0 x1^2;
    # the retraction identity d_diag(eta(v)) = -v off the basis pins the value
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    xi0 = SuperPoly.xi(n, 0)
    a = action_build(x0**3 + x1**3)
    got = eta_diag(x0**2 * x1**2, a)
    want = (xi0 * x1**2).scale(Scalar(q(-1, 3)))
    assert got == want
    from bvreduce.bvdiff import d_diag

    assert d_diag(a, got) == -(x0**2 * x1**2)


def test_eta_diag_zero_diag_coefficient():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + x0 * x1**2)  # no x1^3 term
    with pytest.raises(NonDiagonalizableAction):
        eta_diag(x1**3, a)


def test_eta_diag_retraction_identity_random():
    rng = random.Random(61)
    for _ in range(15):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        from bvreduce.bvdiff import d_diag

        p = SuperPoly.zero(n)
        for _ in range(4):
            e = [0] * n
            for _ in range(rng.randint(0, 7)):
                e[rng.randrange(n)] += 1
            p = p + SuperPoly.monomial(n, e, coeff=random_rational(rng))
        got = d_diag(a, eta_diag(p, a))
        want = tau_diag(p, d).to_superpoly() - p
        assert got == want


# -- reduction: known values -----------------------------------------------------


def test_reduce_cubic_known_values():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    b = jac_basis(1, 3)
    assert reduce_full(a, x**3) == JacClass(b, {(0,): Scalar(q(-1, 3))})
    assert reduce_full(a, x**6) == JacClass(b, {(0,): Scalar(q(4, 9))})
    assert reduce_full(a, x**4) == JacClass(b, {(1,): Scalar(q(-2, 3))})


def test_reduce_separable_product():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + x1**3)
    got = reduce_full(a, x0**3 * x1**3)
    assert got == JacClass(jac_basis(2, 3), {(0, 0): Scalar(q(1, 9))})


def test_reduce_inhomogeneous_known_values():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3 * Scalar(q(1, 3)) - x)
    b = jac_basis(1, 3)
    assert reduce_full(a, x**2) == JacClass(b, {(0,): 1})
    assert reduce_full(a, x**3) == JacClass(b, {(0,): -1, (1,): 1})
    assert reduce_full(a, SuperPoly.one(1)) == JacClass(b, {(0,): 1})


def test_reduce_ibp_oracle_both_actions():
    x = SuperPoly.x(1, 0)
    for s in [x**3, x**3 * Scalar(q(1, 3)) - x]:
        a = action_build(s)
        vecs = ibp_moments(a, 9)
        for k in range(10):
            got = reduce_full(a, x**k).vector()
            assert got == vecs[k], f"s={s.text()} k={k}"


def test_reduce_ibp_oracle_complex_action():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3 * Scalar(0, 1) + x**2)
    vecs = ibp_moments(a, 9)
    for k in range(10):
        assert reduce_full(a, x**k).vector() == vecs[k]


# -- wick ------------------------------------------------------------------------


def test_wick_gaussian_fourth_moment():
    x = SuperPoly.x(1, 0)
    a = action_build(x**2 * Scalar(q(-1, 2)))
    assert wick(a, x**4) == Scalar(3)


def test_wick_critical_point_shift():
    x = SuperPoly.x(1, 0)
    a = action_build(x**2 * Scalar(q(-1, 2)) + x)
    assert wick(a, x) == Scalar(1)


def test_wick_independent_coordinates():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build((x0**2 + x1**2).scale(Scalar(q(-1, 2))))
    assert wick(a, x0**2 * x1**2) == Scalar(1)


def test_wick_triple_agreement_random():
    rng = random.Random(62)
    for _ in range(12):
        n = rng.randint(1, 3)
        a = random_quadratic(rng, n)
        e = [0] * n
        for _ in range(rng.randint(0, 6)):
            e[rng.randrange(n)] += 1
        f = SuperPoly.monomial(n, e)
        w = wick(a, f)
        o = isserlis_wick(a, f)
        r = reduce_full(a, f).vector()[0]
        assert w == o == r


def test_isserlis_wick_clears_the_covariance_once(monkeypatch):
    """A complex action and an observable of many terms: one cleared covariance serves every moment."""
    import bvreduce.verify as verify_mod

    real, calls = verify_mod.gaussian_moments, []
    monkeypatch.setattr(verify_mod, "gaussian_moments", lambda cov: calls.append(cov) or real(cov))
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    i = Scalar(0, 1)
    a = action_build(x0**2 * (i - 1) * Scalar(q(1, 2)) + x0 * x1 * Scalar(q(1, 3)) - x1**2 + x0 * Scalar(q(1, 2)))
    f = x0**4 + x0**2 * x1**2 * i + x1**3 - x0 * Scalar(q(2, 5)) + Scalar(7)
    assert isserlis_wick(a, f) == wick(a, f)
    assert len(calls) == 1


def test_wick_rejects_nonquadratic():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    with pytest.raises(InputError):
        wick(a, x)


# -- rank check ---------------------------------------------------------------------


def test_rank_check_separable_cubic():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + x1**3)
    assert jac_rank_check(a, 3) == [1, 2, 1, 0]


def test_rank_check_failure_quartic():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**4 + 2 * (x**3 * y) + 2 * (x * y**3) + y**4)
    dims = jac_rank_check(a, 5)
    assert dims[4] == 0  # x^2 y^2 lies in the gradient ideal
    assert dims[:4] == [1, 2, 3, 2]


def test_rank_check_gaussian():
    x = SuperPoly.x(1, 0)
    a = action_build(x**2 * Scalar(q(-1, 2)))
    assert jac_rank_check(a, 3) == [1, 0, 0, 0]


# -- failure detection ---------------------------------------------------------------


def test_not_generic_at_weight_4():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**4 + 2 * (x**3 * y) + 2 * (x * y**3) + y**4)
    with pytest.raises(NotGenericAtWeight) as exc:
        reduce_full(a, x**2 * y**2)
    assert exc.value.weight == 4


def test_non_diagonalizable_detected():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**3 + x * y**2)
    with pytest.raises(NonDiagonalizableAction):
        reduce_full(a, x * y)


# -- structural invariants ---------------------------------------------------------------


def test_exactness_randomized():
    rng = random.Random(63)
    done = 0
    while done < 20:
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        v = random_degree1(rng, n, d, 8)
        try:
            got = reduce_full(a, d_bv(a, v))
        except NotGenericAtWeight:
            continue
        assert got.is_zero
        done += 1


def test_section_property_all_basis_monomials():
    rng = random.Random(64)
    done = 0
    while done < 8:
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        basis = jac_basis(n, d)
        try:
            for m in basis.monomials:
                got = reduce_full(a, SuperPoly.monomial(n, m))
                assert got == JacClass(basis, {m: 1})
        except NotGenericAtWeight:
            continue
        done += 1


def test_filtration_non_increasing():
    rng = random.Random(65)
    done = 0
    while done < 12:
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        e = [0] * n
        for _ in range(rng.randint(0, 8)):
            e[rng.randrange(n)] += 1
        f = SuperPoly.monomial(n, e)
        try:
            jc = reduce_full(a, f)
        except NotGenericAtWeight:
            continue
        for m in jc.coeffs:
            assert sum(m) <= sum(e)
        done += 1


def test_rank_totals_match_basis_for_generic_homogeneous():
    rng = random.Random(66)
    done = 0
    while done < 8:
        n, d = rng.choice([(2, 3), (2, 4), (3, 3)])
        a = random_action(rng, n, d, homogeneous=True)
        w_max = n * (d - 2) + 1
        dims = jac_rank_check(a, w_max)
        basis = jac_basis(n, d)
        expected = [0] * (w_max + 1)
        for m in basis.monomials:
            expected[sum(m)] += 1
        if dims != expected:
            # legitimately non-generic: the engine must agree
            bad_w = next(w for w in range(w_max + 1) if dims[w] != expected[w])
            probe = next(m for m in basis.monomials if sum(m) == bad_w)
            with pytest.raises(NotGenericAtWeight):
                reduce_full(a, SuperPoly.monomial(n, probe))
            continue
        assert sum(dims) == (d - 1) ** n
        done += 1


def _pinned_case(rng):
    """An action (homogeneous, inhomogeneous or with an imaginary top coefficient), a
    section correction about three times in ten, and an observable of weight at most 8."""
    n, d = rng.randint(1, 3), rng.choice((3, 4))
    kind = rng.choice(("homogeneous", "inhomogeneous", "complex"))
    a = random_action(rng, n, d, height=3, homogeneous=kind == "homogeneous")
    if kind == "complex":
        e = rng.choice(monomials_of_degree(n, d))
        a = action_build(a.s + SuperPoly.monomial(n, e, coeff=Scalar(0, random_rational(rng, 3, nonzero=True).re)))
    correction = None
    if rng.random() < 0.3:
        m = rng.choice(jac_basis(n, d).monomials)
        e = [rng.randint(0, 2) for _ in range(n)]
        e[rng.randrange(n)] = d - 1 + rng.randint(0, 1)
        correction = {m: SuperPoly.monomial(n, e, coeff=random_rational(rng, 3, nonzero=True))}
    f = SuperPoly.zero(n)
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        for _ in range(rng.randint(0, 8)):
            e[rng.randrange(n)] += 1
        f = f + SuperPoly.monomial(n, e, coeff=random_rational(rng))
    return a, correction, f


def test_pinned_classes_digest():
    """The exact classes of 450 seeded reductions, pinned by one sha256.

    Only the classes (or the error a reduction ends in) enter the digest: which
    weights a sweep solves depends on the diagonal homotopy, the classes do not.
    """
    rng = random.Random(2012)
    digest = hashlib.sha256()
    for _ in range(450):
        a, correction, f = _pinned_case(rng)
        try:
            jc = ReduceSession(a, phi_correction=correction).reduce(f)
            line = " ".join(f"{c.a},{c.b},{c.den}" for c in jc.vector())
        except (InputError, NotGenericAtWeight) as exc:
            line = type(exc).__name__
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "1f5a78de02bc3232410e1ae1a28f674c69c7839370ab1feeda94ee949e6f9c43"


def test_complex_cubic_golden_class():
    """x0^16 on the n = 3 cubic with x1^3 and x0 x1 x2 coefficients 1 + i/2 and 1 + i, pinned exactly.

    Every slice of this action is complex, so it is factored through its
    real embedding, and one reduction solves each slice once: by the
    factor's first-use substitution, with no column memoized.
    """
    x0, x1, x2 = (SuperPoly.x(3, i) for i in range(3))
    a = action_build(x0**3 + x1**3 * Scalar(1, q(1, 2)) + x2**3 + x0 * x1 * x2 * Scalar(1, 1))
    session = ReduceSession(a)
    cls = session.reduce(x0**16)
    want = Scalar(q(-6239711545855614401120, 120674156011400872143), q(18730318287431562560, 1489804395202479903))
    assert cls.coeffs == {(1, 0, 0): want}
    factors = [f for f in session.solver._cache.values() if f is not None]
    # realified: twice as many pivots as rows
    assert factors and all(len(f._upper) == 2 * f.k for f in factors)
    assert all(col is None for f in factors for col in f.columns.values())


def test_sweep_coefficients_stay_near_the_class_size():
    """The transferred sweep's output is not much wider than the class it projects to."""
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    a = action_build((x0**3 + x1**3).scale(q(1, 3)) + x0 * x1**2 - x0)
    session = ReduceSession(a)

    def bits(coeffs):
        return max(max(c.a.bit_length(), c.b.bit_length(), c.den.bit_length()) for c in coeffs)

    swept = session.solver.apply(x0**32)
    cls = session.reduce(x0**32)
    assert bits(swept.terms.values()) <= 2 * bits(cls.coeffs.values())


# -- alternate splittings ------------------------------------------------------------------


def test_custom_splitting_change_of_basis_identity():
    """A filtered splitting differing by a strictly-lower-degree correction."""
    rng = random.Random(67)
    n, d = 2, 4
    x0 = SuperPoly.x(n, 0)
    corr = {(2, 2): x0**3 * Scalar(q(1, 2))}  # degree 3 < 4, killed by tau_diag
    done = 0
    while done < 4:
        a = random_action(rng, n, d)
        try:
            std = ReduceSession(a)
            alt = ReduceSession(a, phi_correction=corr)
            basis = jac_basis(n, d)
            for _ in range(3):
                e = [0, 0]
                for _ in range(rng.randint(0, 8)):
                    e[rng.randrange(2)] += 1
                f = SuperPoly.monomial(n, e)
                lhs = std.reduce(f)
                rhs = JacClass(basis)
                for m, c in alt.reduce(f).coeffs.items():
                    rep = alt.phi(JacClass(basis, {m: 1}))
                    rhs = rhs + std.reduce(rep).scale(c)
                assert lhs == rhs
        except NotGenericAtWeight:
            continue
        done += 1


def test_higher_degree_splitting_is_a_change_of_basis_that_solves_no_slice():
    """A section corrected by a higher-degree term only changes the basis of H: the
    change of basis to the standard session stays exact, and neither session solves
    a slice for an action without a mixed part."""
    x = SuperPoly.x(1, 0)
    a = action_build(x**3 * Scalar(0, 1) + x**2)
    std = ReduceSession(a)
    alt = ReduceSession(a, phi_correction={(1,): x**2 * Scalar(q(1, 2))})
    basis = jac_basis(1, 3)
    for p in (2, 3, 4, 6):
        f = x**p
        rhs = JacClass(basis)
        for m, c in alt.reduce(f).coeffs.items():
            rhs = rhs + std.reduce(alt.phi(JacClass(basis, {m: 1}))).scale(c)
        assert std.reduce(f) == rhs
    assert alt.solved_weights() == std.solved_weights() == []


def test_custom_splitting_rejects_basis_overlap():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    with pytest.raises(InputError):
        ReduceSession(a, phi_correction={(1,): SuperPoly.one(1)})  # 1 is a basis monomial
    with pytest.raises(InputError):
        # x^4 has the class -2/3 x, so x + 3/2 x^4 is a boundary and the representatives miss a class
        ReduceSession(a, phi_correction={(1,): x**4 * Scalar(q(3, 2))})


def test_section_correction_over_the_weight_budget_is_refused_before_the_sweep(monkeypatch):
    """A correction is swept once when the session is built, so it has the budget of an observable."""
    x = SuperPoly.x(1, 0)
    ReduceSession(action_build(x**3), phi_correction={(0,): x**128})  # at the budget
    # every sweep level runs the step, whose first call is eta_diag's integer core, and solves its slice
    monkeypatch.setattr(reduce_mod, "_eta", lambda *args: pytest.fail("the sweep ran"))
    monkeypatch.setattr(hpl.SliceSolver, "_slice", lambda *args: pytest.fail("a slice was built"))
    with pytest.raises(InputError, match="the observable has weight 129, over the budget of 128"):
        ReduceSession(action_build(x**3), phi_correction={(0,): x**129})
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    a = action_build(x0**3 + x1**3 + x0 * x1**2 - x0)
    with pytest.raises(InputError, match="the observable has weight 200, over the budget of 128"):
        ReduceSession(a, phi_correction={(0, 0): x0**200})


def test_a_budget_lifted_at_run_time_cannot_overflow_a_slot(monkeypatch):
    """The slot width of a slice's packed words is fixed at import: past it, a reduction is refused, not answered
    from words whose exponents carried into the next slot."""
    monkeypatch.setattr(hpl, "MAX_OBSERVABLE_WEIGHT", 4000)
    monkeypatch.setattr(hpl, "MAX_SLICE_ROWS", 4000)
    bits = hpl.SLOT_BITS
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    a = action_build(x0**3 + x1**3 + x0 * x1**2 - x0)
    w = 1 << bits
    with pytest.raises(InputError, match=rf"the \(degree 0, weight {w}\) slice holds exponents up to {w}, past the"):
        ReduceSession(a).reduce(x0**w)
    with pytest.raises(InputError, match=f"past the {bits}-bit slot of a packed word"):
        reduce_full(a, x0**300 * x1 - x1**2)


def test_class_at_the_top_of_the_weight_budget_is_pinned():
    """x0^128, at the weight budget, on x0^3 + x1^3 + x0 x1^2 - x0: every weight level, the largest slices the
    budget lets n = 2 build, and exponents near the top of a slot.  Its class is pinned by the sha256 of its line
    in the format of `test_pinned_classes_digest`."""
    assert hpl.MAX_OBSERVABLE_WEIGHT == 128
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    jc = ReduceSession(action_build(x0**3 + x1**3 + x0 * x1**2 - x0)).reduce(x0**128)
    line = " ".join(f"{c.a},{c.b},{c.den}" for c in jc.vector())
    want = "82f55254574f5457d4ff5eb280e25780dd41ee0cbe01ac85be2b5af4e300d099"
    assert hashlib.sha256(line.encode()).hexdigest() == want


def test_session_reuse_is_cached():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    assert session_for(a) is session_for(a)


def test_concurrent_first_session_for_builds_one_session():
    """Threads racing on a fresh Action all get its one session and agree."""
    import sys
    import threading

    x, y = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    s = x**3 + (x * y) * (x - y).scale(q(2, 5)) + y**3
    f = (x**4 * y + y**3 - x).scale(q(3, 7))
    expected = ReduceSession(action_build(s)).reduce(f)
    a = action_build(s)
    workers = 8
    barrier = threading.Barrier(workers)
    sessions = [None] * workers
    classes = [None] * workers
    errors = []

    def worker(i):
        try:
            barrier.wait(timeout=30)
            sessions[i] = session_for(a)
            classes[i] = sessions[i].reduce(f)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(sess is sessions[0] for sess in sessions)
    assert a._session is sessions[0]
    assert classes == [expected] * workers


def test_concurrent_reduce_shares_one_session():
    """Concurrent readers of one session agree with the sequential answers."""
    import threading

    rng = random.Random(68)
    n, d = 2, 3
    while True:
        a = random_action(rng, n, d)
        try:
            sess = ReduceSession(a)
            fs = []
            for _ in range(12):
                e = [0, 0]
                for _ in range(rng.randint(0, 7)):
                    e[rng.randrange(2)] += 1
                fs.append(SuperPoly.monomial(n, e, coeff=random_rational(rng)))
            expected = [sess.reduce(f) for f in fs]
            break
        except NotGenericAtWeight:
            continue
    fresh = ReduceSession(a)
    results = [None] * len(fs)
    errors = []

    def worker(i):
        try:
            results[i] = fresh.reduce(fs[i])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(fs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == expected


def test_star_import_binds_every_public_name():
    import bvreduce

    namespace = {}
    exec("from bvreduce import *", namespace)
    assert [name for name in bvreduce.__all__ if name not in namespace] == []
