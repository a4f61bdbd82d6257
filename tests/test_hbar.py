import hashlib
import random

import pytest

from bvreduce import (
    HbarModel,
    HbarSeries,
    InputError,
    Scalar,
    SingularMatrix,
    SuperPoly,
    action_build,
    hbar_eta,
    hbar_oracle,
    hbar_reduce,
    isserlis_moment,
    q,
    wick,
)
from bvreduce.bvdiff import d_div
from bvreduce.hbar import MAX_HBAR_ORDER_DEGREE, SLOT_BITS, feynman_rules, gaussian_moments
from bvreduce.linalg import invert
from bvreduce.scalars import clear_denominators, gauss
from bvreduce.superpoly import monomials_of_degree
from bvreduce.verify import random_rational
from oracles import (
    contract,
    contraction_terms,
    model_differential,
    pack_exponents,
    reference_hbar_oracle,
    unpack_exponents,
)


def _model1(vertices=None):
    return HbarModel(1, [[1]], vertices)


def test_eta_square():
    x = SuperPoly.x(1, 0)
    xi = SuperPoly.xi(1, 0)
    assert hbar_eta(x**2, _model1()) == -(xi * x)


def test_eta_constant():
    assert hbar_eta(SuperPoly.one(1), _model1()).is_zero


def test_eta_two_variables():
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    xi0, xi1 = SuperPoly.xi(n, 0), SuperPoly.xi(n, 1)
    m = HbarModel(n, [[1, 0], [0, 1]])
    got = hbar_eta(x0 * x1, m)
    assert got == (xi0 * x1 + xi1 * x0).scale(Scalar(q(-1, 2)))


def test_eta_inverts_leading_term():
    # (sum a_ij x_i d/dxi_j) o eta = -id on positive-degree xi-free inputs
    rng = random.Random(71)
    n = 2
    m = HbarModel(n, [[2, 1], [1, 3]])  # no vertices, so L - B = L

    for _ in range(10):
        e = [0, 0]
        for _ in range(rng.randint(1, 5)):
            e[rng.randrange(2)] += 1
        v = SuperPoly.monomial(n, e, coeff=random_rational(rng, nonzero=True))
        assert model_differential(m, hbar_eta(v, m), 0)[0] == -v


def test_reduce_one_is_one():
    m = _model1({3: SuperPoly.x(1, 0) ** 3})
    got = hbar_reduce(SuperPoly.one(1), m, 3).scalars()
    assert got == [Scalar(1), Scalar(0), Scalar(0), Scalar(0)]


def test_reduce_vertex_free_square():
    x = SuperPoly.x(1, 0)
    got = hbar_reduce(x**2, _model1(), 2).scalars()
    assert got == [Scalar(0), Scalar(1), Scalar(0)]


def test_reduce_cubic_vertex_linear_observable():
    # lambda = 1 vertex x^3/3!: the class of x starts (1/2) hbar
    x = SuperPoly.x(1, 0)
    m = _model1({3: x**3 * Scalar(q(1, 6))})
    got = hbar_reduce(x, m, 1).scalars()
    assert got == [Scalar(0), Scalar(q(1, 2))]


def test_reduce_matches_oracle_cubic():
    x = SuperPoly.x(1, 0)
    m = _model1({3: x**3 * Scalar(q(1, 6))})
    assert hbar_reduce(x, m, 3) == hbar_oracle(x, m, 3)


def test_reduce_matches_oracle_random():
    rng = random.Random(72)
    checked = 0
    for _ in range(6):
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
            if not p.is_zero:
                vertices[deg] = p
        try:
            m = HbarModel(n, a, vertices)
        except SingularMatrix:
            continue
        e = [0] * n
        for _ in range(rng.randint(0, 4)):
            e[rng.randrange(n)] += 1
        f = SuperPoly.monomial(n, e)
        K = rng.randint(0, 3)
        assert hbar_reduce(f, m, K) == hbar_oracle(f, m, K)
        checked += 1
    assert checked >= 3  # the agreement must actually have been exercised


@pytest.mark.parametrize("n, K", [(2, 6), (3, 4)])
def test_reduce_matches_oracle_past_order_3(n, K):
    """Dense cubic and quartic vertices, an observable with terms of degree 0 to 4."""
    rng = random.Random(74 + n)
    a = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = random_rational(rng, 3, nonzero=True)
        for j in range(i):
            a[i][j] = a[j][i] = random_rational(rng, 2)
    vertices = {
        deg: sum((SuperPoly.monomial(n, e, coeff=random_rational(rng, 2)) for e in monomials_of_degree(n, deg)),
                 SuperPoly.zero(n))
        for deg in (3, 4)
    }
    m = HbarModel(n, a, vertices)
    f = SuperPoly.const(n, random_rational(rng, 3, nonzero=True))
    for deg in (1, 2, 3, 4):
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += 1
        f = f + SuperPoly.monomial(n, e, coeff=random_rational(rng, 3, nonzero=True))
    assert hbar_reduce(f, m, K) == hbar_oracle(f, m, K)


def test_each_bucket_is_rewritten_once(monkeypatch):
    """One feynman_rules call per (order, x-degree) bucket at most: (K + 1)^2 of them."""
    n, K = 3, 8
    x0, x1, x2 = (SuperPoly.x(n, i) for i in range(n))
    m = HbarModel(n, [[2, 1, 0], [1, 3, 0], [0, 0, 1]],
                  {3: x0**3 + x0 * x1 * x2 + x1**2 * x2, 4: x0**2 * x1**2 + x2**4 + x0 * x1 * x2**2})
    calls = []

    def counted(model, terms, den, deg, room):
        # every bucket is homogeneous: each packed key reads back as an exponent tuple of x-degree deg
        assert {sum(unpack_exponents(e, n)) for e in terms} == {deg}
        calls.append(deg)
        return feynman_rules(model, terms, den, deg, room)

    monkeypatch.setattr("bvreduce.hbar.feynman_rules", counted)
    hbar_reduce(x0**2, m, K)
    assert 0 < len(calls) <= (K + 1) ** 2


def _as_poly(n, out, den):
    return SuperPoly(n, {(unpack_exponents(e, n), 0): gauss(a, b, den) for e, (a, b) in out.items() if a or b})


def test_feynman_rules_match_eta_contract_and_div():
    """The bucket kernel equals (contract(grad U, e), d_div(e)) with e = -hbar_eta(p), on homogeneous p."""
    rng = random.Random(76)
    i = Scalar(0, 1)
    pairings = [
        [[-1]],  # a negative Bareiss det: the cleared a^{-1} is flipped to a positive denominator
        [[Scalar(q(3, 2))]],
        [[2, 1], [1, 3]],
        [[0, 1], [1, 0]],
        [[1 + i, Scalar(q(1, 2))], [Scalar(q(1, 2)), 2 - i]],
        [[2, 1, 0], [1, 3, 0], [0, 0, -1]],
        [[1, i, 0], [i, 2, 1], [0, 1, Scalar(q(-1, 3))]],
    ]
    dets = []
    for a in pairings:
        n = len(a)
        dets.append(invert([[Scalar.of(v) for v in row] for row in a]).det)
        cplx = any(Scalar.of(v).b for row in a for v in row)

        def coeff():
            c = random_rational(rng, 3, nonzero=True)
            return c + random_rational(rng, 2) * i if cplx else c

        def homogeneous(deg):
            # x_(n-1)^deg always, the other monomials at random, each with a nonzero coefficient
            return SuperPoly(n, {(e, 0): coeff() for e in monomials_of_degree(n, deg)
                                 if e[-1] == deg or rng.random() < 0.6})

        vertices = {3: homogeneous(3), 4: homogeneous(4)}
        m = HbarModel(n, a, vertices)
        assert m.cainv[1] > 0
        cgrad_u = contraction_terms([m.u.dx(j) for j in range(n)])
        for deg in (1, 2, 3, 4):
            p = homogeneous(deg)
            pairs, den = clear_denominators(p.terms.values())
            terms = {pack_exponents(e): ab for (e, _), ab in zip(p.terms, pairs)}
            vertex, (loop, lden) = feynman_rules(m, terms, den, deg, deg + 2)
            assert [l for l, _, _ in vertex] == [3, 4]
            leg = -hbar_eta(p, m)
            assert sum((_as_poly(n, out, d) for _, out, d in vertex), SuperPoly.zero(n)) == contract(cgrad_u, leg)
            assert _as_poly(n, loop, lden) == d_div(leg)
            # room for the cubic vertex only: the quartic one is not applied
            assert [l for l, _, _ in feynman_rules(m, terms, den, deg, deg + 1)[0]] == [3]
    assert min(dets) < 0


def test_vertex_free_matches_quadratic_wick_term_by_term():
    # model a <-> action -1/2 x a x; hbar^k coefficient of x^{2k} equals the exact class
    x = SuperPoly.x(1, 0)
    m = _model1()
    a = action_build(x**2 * Scalar(q(-1, 2)))
    for k in range(4):
        series = hbar_reduce(x ** (2 * k), m, k).scalars()
        assert series[k] == wick(a, x ** (2 * k))
        assert all(not c for c in series[:k])


def test_exactness_under_model_differential():
    rng = random.Random(73)
    x = SuperPoly.x(1, 0)
    xi = SuperPoly.xi(1, 0)
    m = _model1({3: x**3 * Scalar(q(1, 6))})
    K = 3
    for _ in range(8):
        g = SuperPoly.zero(1)
        for _ in range(3):
            g = g + SuperPoly.monomial(1, (rng.randint(0, 4),), coeff=random_rational(rng))
        zero = HbarSeries(1, K, [0] * (K + 1))
        got = zero
        for j, c in enumerate(model_differential(m, xi * g, K)):
            # hbar^j c reduces by linearity: the class of c to order K - j, shifted up j orders
            got = got + HbarSeries(1, K, [0] * j + hbar_reduce(c, m, K - j).scalars())
        assert got == zero


def test_odd_moments_vanish_with_even_vertices():
    x = SuperPoly.x(1, 0)
    m = _model1({4: x**4 * Scalar(q(1, 24))})
    for k in (1, 3, 5):
        assert hbar_reduce(x**k, m, 3) == HbarSeries(1, 3, [0] * 4)
        assert hbar_oracle(x**k, m, 3) == HbarSeries(1, 3, [0] * 4)


def test_linearity_of_reduction():
    x = SuperPoly.x(1, 0)
    m = _model1({3: x**3 * Scalar(q(1, 2))})
    f1, f2 = x, x**2
    lhs = hbar_reduce(f1 + 3 * f2, m, 3)
    rhs = hbar_reduce(f1, m, 3) + HbarSeries(1, 3, [c * 3 for c in hbar_reduce(f2, m, 3).scalars()])
    assert lhs == rhs


def test_one_loop_vacuum_term_vanishes():
    # single cubic vertex: the hbar^1 coefficient of class(1) is 0 by parity
    x = SuperPoly.x(1, 0)
    m = _model1({3: x**3 * Scalar(q(1, 6))})
    got = hbar_reduce(SuperPoly.one(1), m, 1).scalars()
    assert got == [Scalar(1), Scalar(0)]


def test_isserlis_values():
    cov = [[Scalar(1)]]
    assert isserlis_moment(cov, (4,)) == Scalar(3)
    assert isserlis_moment(cov, (6,)) == Scalar(15)
    assert isserlis_moment(cov, (3,)) == Scalar(0)
    cov2 = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]]
    assert isserlis_moment(cov2, (2, 2)) == Scalar(1)
    assert isserlis_moment(cov2, (1, 1)) == Scalar(0)
    # complex entries: E[x0^2 x1^2] = c00 c11 + 2 c01^2
    i = Scalar(0, 1)
    assert isserlis_moment([[i, 1], [1, 2]], (2, 2)) == Scalar(2, 2)
    assert isserlis_moment([[i / 2, Scalar(q(1, 3))], [Scalar(q(1, 3)), 2]], (2, 2)) == Scalar(q(2, 9), 1)
    # the integer core: cov = C / 6 and E[x^alpha] = M_C(alpha) / 6^(|alpha|/2)
    moment, A = gaussian_moments([[i / 2, Scalar(q(1, 3))], [Scalar(q(1, 3)), 2]])
    assert A == 6
    assert moment((2, 2)) == (8, 36)
    assert moment((3, 0)) == (0, 0)
    assert moment((0, 0)) == (1, 0)


def test_model_validation():
    x = SuperPoly.x(1, 0)
    with pytest.raises(InputError):
        HbarModel(1, [[1]], {2: x**2})  # vertex degree below 3
    with pytest.raises(InputError):
        HbarModel(1, [[1]], {4: x**3})  # inhomogeneous for its slot
    with pytest.raises(InputError):
        HbarModel(2, [[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(InputError):
        hbar_reduce(x, _model1(), -1)


def test_truncation_order_must_be_an_int():
    # a bool or a float is no truncation order, as it is no vertex degree, even when it is whole
    x = SuperPoly.x(1, 0)
    m = _model1({3: x**3})
    for K in (True, 2.0, "2", None):
        for call in (lambda: hbar_reduce(x**2, m, K), lambda: hbar_oracle(x**2, m, K),
                     lambda: HbarSeries(1, K, [0, 0])):
            with pytest.raises(InputError, match="truncation order .* is not an integer"):
                call()
    assert hbar_reduce(x**2, m, 1) == hbar_oracle(x**2, m, 1)


def test_oracle_keeps_the_walk_budget():
    # past the budget the oracle's vertex powers take seconds; both routes refuse such a K before any work
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    m = HbarModel(n, [[2, 1], [1, 3]], {4: x0**4 + x0 * x1**3})
    for K in (13, 24):
        for route in (hbar_reduce, hbar_oracle):
            with pytest.raises(InputError, match=f"order K={K} times vertex degree 4 is over the budget of 48"):
                route(x0**2, m, K)


def test_slot_width_follows_the_budget():
    """A packed slot holds 2K, the largest exponent the walk holds, for the largest K the budget admits."""
    assert SLOT_BITS == MAX_HBAR_ORDER_DEGREE.bit_length()
    assert 2 * (MAX_HBAR_ORDER_DEGREE // 2) < 1 << SLOT_BITS


def test_a_budget_lifted_at_run_time_cannot_overflow_a_slot(monkeypatch):
    """The slot width is fixed at import: past it, a K is refused, not answered with carried exponents."""
    import bvreduce.hbar as hbar

    monkeypatch.setattr(hbar, "MAX_HBAR_ORDER_DEGREE", 2000)
    n = 2
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    quartic = HbarModel(n, [[2, 1], [1, 3]], {4: x0**4 + x0 * x1**3})
    for route in (hbar_reduce, hbar_oracle):
        with pytest.raises(InputError, match=f"order K=400 holds exponents up to 800, past the {SLOT_BITS}-bit slot"):
            route(x0**2, quartic, 400)
    # the last K whose 2K fits a slot is answered, and the next one refused
    free = HbarModel(n, [[2, 1], [1, 3]])
    top = (1 << SLOT_BITS) // 2 - 1
    f = x0 ** (2 * top - 2) * x1**2
    assert hbar_reduce(f, free, top) == hbar_oracle(f, free, top)
    with pytest.raises(InputError, match="past the"):
        hbar_reduce(f, free, top + 1)


@pytest.mark.parametrize("e", [(MAX_HBAR_ORDER_DEGREE,), (16, 16, 16)])
def test_largest_exponent_in_a_slot(e):
    """No vertex and K = MAX_HBAR_ORDER_DEGREE / 2: the observable's exponents fill their slots to 2K."""
    n, K = len(e), MAX_HBAR_ORDER_DEGREE // 2
    a = [[2, 1, 0], [1, 3, 0], [0, 0, 1]] if n == 3 else [[3]]
    m = HbarModel(n, a)
    f = SuperPoly.monomial(n, e, coeff=Scalar(q(2, 3)))
    got = hbar_reduce(f, m, K)
    assert got == hbar_oracle(f, m, K)
    assert got.scalars()[sum(e) // 2]


def test_quartic_model_at_the_budget():
    n, K = 2, 12  # K * 4 = MAX_HBAR_ORDER_DEGREE
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    m = HbarModel(n, [[2, 1], [1, 3]], {4: x0**4 * Scalar(q(1, 24)) - x0 * x1**3 * Scalar(q(1, 6))})
    f = x0**2 + x0 * x1 * Scalar(q(1, 2))
    got = hbar_reduce(f, m, K)
    assert got == hbar_oracle(f, m, K)
    assert all(got.scalars()[1:])


def test_term_past_the_cut_is_dropped_before_it_is_packed():
    # x0^64 would overflow its slot into x1's; it reaches the constants only past K, so it must not count at all
    n, K = 2, 3
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    m = HbarModel(n, [[2, 1], [1, 3]], {3: x0**3 + x0 * x1**2})
    assert hbar_reduce(x0**64 + x1**2, m, K) == hbar_reduce(x1**2, m, K)
    assert hbar_reduce(x1**2, m, K) == hbar_oracle(x1**2, m, K)


def test_vertex_keys_name_one_degree_each():
    # 3 and "3" name one degree: the model kept only the last of the two
    x = SuperPoly.x(1, 0)
    with pytest.raises(InputError, match="vertex degree 3 is given more than once"):
        HbarModel(1, [[1]], {3: x**3, "3": 5 * x**3})
    with pytest.raises(InputError, match="vertex degree 'cubic' is not an integer"):
        HbarModel(1, [[1]], {"cubic": x**3})
    # a float key is no degree, even when it is whole: int() would truncate 3.7 to 3
    for key in (3.7, 3.0, True):
        with pytest.raises(InputError, match=f"vertex degree {key!r} is not an integer"):
            HbarModel(1, [[1]], {key: x**3})
    with pytest.raises(InputError, match="is not an integer"):
        HbarModel(1, [[1]], {"9" * 5000: x**3})  # past int()'s digit limit
    assert HbarModel(1, [[1]], {"+3": x**3}).vertices == HbarModel(1, [[1]], {3: x**3}).vertices


def _pinned_series_case(rng):
    """A random model and observable: n <= 3, K <= 5 (K <= 3 for n = 3), cubic and quartic vertices."""
    n = rng.randint(1, 3)
    K = rng.randint(0, 5 if n < 3 else 3)
    cplx = rng.random() < 0.3

    def entry(height, nonzero=False):
        c = random_rational(rng, height, nonzero)
        return c + random_rational(rng, 2, nonzero=True) * Scalar(0, 1) if cplx and rng.random() < 0.7 else c

    a = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = entry(3, nonzero=True)
        for j in range(i):
            a[i][j] = a[j][i] = entry(2)
    vertices = {}
    for deg in (3, 4):
        p = SuperPoly.zero(n)
        for e in monomials_of_degree(n, deg):
            if rng.random() < 0.4:
                p = p + SuperPoly.monomial(n, e, coeff=entry(2))
        vertices[deg] = p
    f = SuperPoly.zero(n)
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        for _ in range(rng.randint(0, 4)):
            e[rng.randrange(n)] += 1
        f = f + SuperPoly.monomial(n, e, coeff=entry(3))
    return n, a, vertices, f, K


def test_pinned_series_digest():
    """The exact series of 320 seeded hbar reductions, pinned by one sha256."""
    rng = random.Random(2017)
    digest = hashlib.sha256()
    for _ in range(320):
        n, a, vertices, f, K = _pinned_series_case(rng)
        try:
            line = hbar_reduce(f, HbarModel(n, a, vertices), K).text()
        except SingularMatrix:
            line = "SingularMatrix"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "00d5f0896930dde8f4d08391ba0a54ef24694357cd2dcd4f0e66009eb0e66973"


def test_routes_refuse_a_variable_count_mismatch(monkeypatch):
    """An observable in another number of variables than the model is refused before any moment is found."""
    import bvreduce.hbar as hbar

    m = HbarModel(2, [[2, 1], [1, 3]], {3: SuperPoly.x(2, 0) ** 3})
    monkeypatch.setattr(hbar, "gaussian_moments", None)  # an oracle that went on would fail with a TypeError
    for f in (SuperPoly.x(1, 0) ** 2, SuperPoly.x(3, 2) ** 2):
        for route in (hbar_reduce, hbar_oracle):
            with pytest.raises(ValueError, match="variable count mismatch"):
                route(f, m, 2)


def _random_model(rng, n, degrees, cplx):
    """A pairing (complex entries when cplx) and random vertices of the given degrees; None when singular."""

    def entry(height, nonzero=False):
        c = random_rational(rng, height, nonzero)
        return c + random_rational(rng, 2, nonzero=True) * Scalar(0, 1) if cplx and rng.random() < 0.7 else c

    a = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = entry(3, nonzero=True)
        for j in range(i):
            a[i][j] = a[j][i] = entry(2)
    vertices = {}
    for deg in degrees:
        terms = [e for e in monomials_of_degree(n, deg) if rng.random() < 0.5] or [(deg,) + (0,) * (n - 1)]
        vertices[deg] = sum((SuperPoly.monomial(n, e, coeff=entry(2, nonzero=True)) for e in terms), SuperPoly.zero(n))
    try:
        return HbarModel(n, a, vertices)
    except SingularMatrix:
        return None


@pytest.mark.parametrize("degrees", [(), (3,), (4,), (3, 4)], ids=["free", "cubic", "quartic", "cubic+quartic"])
def test_oracle_matches_the_full_expansion(degrees):
    """hbar_oracle against the plain expansion: every power of U in full and Scalar Isserlis moments."""
    rng = random.Random(91 + len(degrees) + sum(degrees))
    checked = 0
    for case in range(8):
        n = 1 + case % 3
        K = rng.randint(0, 4 if n < 3 else 3) if case else 4  # the first case at n = 1, K = 4
        m = _random_model(rng, n, degrees, cplx=case % 2 == 1)
        if m is None:
            continue
        f = SuperPoly.zero(n)
        for deg in range(6):  # degrees 0 to 5, odd ones included
            if rng.random() < 0.6:
                e = [0] * n
                for _ in range(deg):
                    e[rng.randrange(n)] += 1
                f = f + SuperPoly.monomial(n, e, coeff=random_rational(rng, 3, nonzero=True))
        assert hbar_oracle(f, m, K) == reference_hbar_oracle(f, m, K)
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("n, K", [(2, 12), (3, 6)])
def test_reduce_matches_oracle_with_every_cubic_and_quartic_monomial(n, K):
    """The largest K the budget admits for quartic vertices at n = 2, and n = 3 at K = 6."""
    vertices = {
        deg: sum((SuperPoly.monomial(n, e, coeff=Scalar(q(1, fact))) for e in monomials_of_degree(n, deg)),
                 SuperPoly.zero(n))
        for deg, fact in ((3, 6), (4, 24))
    }
    m = HbarModel(n, [[2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)], vertices)
    x0, xl = SuperPoly.x(n, 0), SuperPoly.x(n, n - 1)
    f = x0**2 + x0 * xl * Scalar(q(1, 2)) + xl**3 * Scalar(q(1, 3))
    got = hbar_oracle(f, m, K)
    assert got == hbar_reduce(f, m, K)
    assert all(got.scalars()[1:])


def test_oracle_needs_nothing_of_the_walk(monkeypatch):
    """hbar_oracle reads m.ainv and m.u only: the walk's kernels and its cleared a^{-1} may all be gone."""
    import bvreduce.hbar as hbar

    rng = random.Random(93)
    m = _random_model(rng, 2, (3, 4), cplx=True)
    x0, x1 = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    f = x0**2 * x1 + x1**2 - x0 * Scalar(q(2, 5))
    want = hbar_oracle(f, m, 4)

    def gone(*args, **kwargs):
        raise AssertionError("hbar_oracle called into the walk")

    for name in ("feynman_rules", "_gather", "pack"):
        monkeypatch.setattr(hbar, name, gone)
    m.cainv = None
    assert hbar_oracle(f, m, 4) == want
    assert want == reference_hbar_oracle(f, m, 4)
