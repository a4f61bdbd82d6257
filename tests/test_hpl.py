import random
from math import gcd

import pytest

import bvreduce.hpl as hpl
from bvreduce import (
    InputError,
    NonTerminating,
    NotGenericAtWeight,
    Scalar,
    SuperPoly,
    action_build,
    d_bv,
    d_diag,
    eta_diag,
    q,
    tau_diag,
)
from bvreduce.bvdiff import d_div
from bvreduce.hpl import SliceSolver, slice_basis
from bvreduce.reduce import JacClass, ReduceSession, jac_basis
from bvreduce.superpoly import term_weight
from bvreduce.verify import random_action, random_degree1, random_rational
from oracles import (
    column_poly,
    contract,
    contraction_terms,
    map_columns,
    map_solver,
    placed_poly,
    slice_key,
    slice_word,
    step_map,
)


def _zero(v):
    return SuperPoly.zero(v.n)


def _id(v):
    """A degree-0 eta, so that degree-0 keep and drop parts are the whole t."""
    return v


def _eta(a):
    """The diagonal homotopy of the action a as a plain map."""
    return lambda v: eta_diag(v, a)


def _contraction(grads):
    """The degree -1 map contracting with the given xi-free gradients."""
    gterms = contraction_terms(grads)
    return lambda v: contract(gterms, v)


def _parts(a):
    """d_bv - d_diag of an action as its three pieces: mixed top, lower-order and divergence."""
    n = a.n
    mix = _contraction([a.mix.dx(i) for i in range(n)])
    low = _contraction([a.low.dx(i) for i in range(n)])
    return mix, low, d_div


def _compose(f, g):
    return lambda v: f(g(v))


def _dropping_solver_builds_nothing(solver):
    return solver.column is None and solver.solved_weights() == []


def test_neumann_zero_delta_identity():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    v = x**5 + 2 * x - 3
    solver = map_solver(1, 3, _eta(a), None, _zero)
    assert solver.apply(v) == v
    assert _dropping_solver_builds_nothing(solver)


def test_neumann_one_term_series():
    # s = x^3, delta = div: (id - div eta)^{-1}(x^3) = x^3 - 1/3
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    solver = map_solver(1, 3, _eta(a), None, d_div)
    assert solver.apply(x**3) == x**3 - SuperPoly.const(1, Scalar(q(1, 3)))
    assert _dropping_solver_builds_nothing(solver)
    # div(eta(x^3)) computed by hand is -1/3
    assert d_div(eta_diag(x**3, a)) == SuperPoly.const(1, Scalar(q(-1, 3)))


def test_weight_solve_failure_quartic():
    n = 2
    x, y = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x**4 + 2 * (x**3 * y) + 2 * (x * y**3) + y**4)
    delta, _, _ = _parts(a)
    with pytest.raises(NotGenericAtWeight) as exc:
        map_solver(n, 4, _eta(a), map_columns(_eta(a), delta), _zero).apply(x**2 * y**2)
    assert exc.value.weight == 4


def test_nonterminating_guard():
    x = SuperPoly.x(1, 0)
    # a drop whose image stays at the weight it came from
    with pytest.raises(NonTerminating, match="weight-dropping part sent weight 2 to weight 2"):
        map_solver(1, 3, _id, None, lambda v: v).apply(x**2)
    # ... or climbs one weight
    with pytest.raises(NonTerminating, match="weight-dropping part sent weight 2 to weight 3"):
        map_solver(1, 3, _id, None, lambda v: v * x).apply(x**2)
    # a keep whose image leaves its slice upward
    with pytest.raises(NonTerminating, match="weight-keeping part sent weight 2 to weight 3"):
        map_solver(1, 3, _id, map_columns(_id, lambda v: v * x), _zero).apply(x**2)
    # ... or downward
    with pytest.raises(NonTerminating, match="weight-keeping part sent weight 2 to weight 1"):
        map_solver(1, 3, _id, map_columns(_id, lambda v: v.dx(0)), _zero).apply(x**2)
    # an eta that lowers weight cannot have its slice solved: its column images leave the slice
    lowering = map_solver(1, 3, lambda v: v.dx(0), map_columns(lambda v: v.dx(0), _id), _zero)
    with pytest.raises(NonTerminating, match="weight-keeping part sent weight 2 to weight 1"):
        lowering._slice(0, 2)
    with pytest.raises(NonTerminating):
        lowering.apply(x**2)
    assert lowering.solved_weights() == []


def test_perturb_zero_delta_keeps_tau():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    solver = map_solver(1, 3, _eta(a), None, _zero)
    for f in [x**3, x**5 + x, SuperPoly.one(1)]:
        assert tau_diag(solver.apply(f), 3) == tau_diag(f, 3)


def test_perturb_diagonal_by_div_matches_known_class():
    x = SuperPoly.x(1, 0)
    a = action_build(x**3)
    solver = map_solver(1, 3, _eta(a), None, d_div)
    got = tau_diag(solver.apply(x**3), 3)
    basis = jac_basis(1, 3)
    assert got == JacClass(basis, {(0,): Scalar(q(-1, 3))})
    # div o eta drops weight, so the solver sweeps without building a slice
    assert _dropping_solver_builds_nothing(solver)


def _random_degree0(rng, n, cap=7):
    p = SuperPoly.zero(n)
    for _ in range(4):
        e = [0] * n
        for _ in range(rng.randint(0, cap)):
            e[rng.randrange(n)] += 1
        p = p + SuperPoly.monomial(n, e, coeff=random_rational(rng))
    return p


def test_convention_after_perturbation():
    """phi tau - id = D eta + eta D on degree-0 and degree-1 inputs, exactly.

    tau is the session's reduce, phi the monomial inclusion, eta the
    transferred homotopy eta_diag o (id - (d_bv - d_diag) o eta_diag)^{-1}
    and D = d_bv."""
    rng = random.Random(51)
    done = 0
    while done < 12:
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        try:
            session = ReduceSession(a)
            tau, phi = session.reduce, JacClass.to_superpoly

            def eta(v):
                return eta_diag(session.solver.apply(v), a)

            def diff(v):
                return d_bv(a, v)

            v0 = _random_degree0(rng, n)
            v1 = random_degree1(rng, n, d, 7)
            for v in (v0, v1):
                lhs = phi(tau(v)) - v
                rhs = diff(eta(v)) + eta(diff(v))
                assert lhs == rhs
            # the arbiter of all sign conventions: tau kills boundaries
            assert tau(diff(v1)).is_zero
            # tau o phi = id on random basis classes
            basis = jac_basis(n, d)
            m = basis.monomials[rng.randrange(len(basis))]
            unit = JacClass(basis, {m: random_rational(rng, nonzero=True)})
            assert tau(phi(unit)) == unit
        except NotGenericAtWeight:
            continue
        done += 1


def _random_of_degree(rng, n, d, h, max_weight=10):
    """A random element of homological degree h and weight at most max_weight."""
    masks = [m for m in range(1 << n) if m.bit_count() == h]
    p = SuperPoly.zero(n)
    for _ in range(5):
        e = [0] * n
        for _ in range(rng.randint(0, max_weight - (d - 1) * h)):
            e[rng.randrange(n)] += 1
        p = p + SuperPoly(n, {(tuple(e), rng.choice(masks)): random_rational(rng, nonzero=True)})
    return p


def test_diag_retraction_identities_on_every_degree():
    """phi tau - id = D eta + eta D, eta eta = 0 and tau eta = 0 for the diagonal retraction, degrees 0..n."""
    rng = random.Random(54)
    for _ in range(30):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d)
        for h in range(n + 1):
            v = _random_of_degree(rng, n, d, h)
            e = eta_diag(v, a)
            assert tau_diag(v, d).to_superpoly() - v == d_diag(a, e) + eta_diag(d_diag(a, v), a)
            assert eta_diag(e, a).is_zero
            assert tau_diag(e, d).is_zero


def test_two_perturbations_equal_combined():
    """Successive small deformations agree with their sum, on random inputs.

    Staged: mix as the weight-keeping part, then low, then div as
    weight-dropping parts, one nested solver each: S_k solves against
    eta_{k-1}, where eta_0 = eta_diag and eta_k = eta_{k-1} o S_k.apply, and
    tau = tau_diag o S_1 o ... o S_k.  Only the mix stage builds slices.
    Combined: one solver, for d_bv - d_diag split into mix and low + div,
    whose ReduceSession must give the same classes.
    """
    rng = random.Random(52)
    done = three = 0
    while done < 8:
        n, d = rng.randint(2, 3), rng.randint(3, 4)
        a = random_action(rng, n, d, homogeneous=done % 2 == 0)
        mix, low, div = _parts(a)
        keep = mix if a.has_mix() else None
        drops = [low, div] if a.has_lower() else [div]
        stages = ([(keep, _zero)] if keep else []) + [(None, op) for op in drops]
        try:
            staged = []
            eta = _eta(a)
            for k, dr in stages:
                solver = map_solver(n, d, eta, None if k is None else map_columns(eta, k), dr)
                staged.append(solver)
                eta = _compose(eta, solver.apply)

            def staged_tau(f):
                for solver in reversed(staged):
                    f = solver.apply(f)
                return tau_diag(f, d)

            combined_drop = div if len(drops) == 1 else (lambda v: low(v) + div(v))
            kernel = None if keep is None else map_columns(_eta(a), keep)
            combined = map_solver(n, d, _eta(a), kernel, combined_drop)
            session = ReduceSession(a)
            assert len(staged) == len(stages)
            assert isinstance(session.solver, SliceSolver)
            for _ in range(3):
                f = _random_degree0(rng, n)
                assert staged_tau(f) == tau_diag(combined.apply(f), d) == session.reduce(f)
            assert all(_dropping_solver_builds_nothing(s) for s in staged[1 if keep else 0:])
            # the one stage visits the slices the staged mix solver built, no more
            staged_weights = sorted({w for s in staged for w in s.solved_weights()})
            assert session.solved_weights() == combined.solved_weights() == staged_weights
            if not a.has_mix():
                assert _dropping_solver_builds_nothing(session.solver)
        except NotGenericAtWeight:
            continue
        done += 1
        three += len(stages) == 3
    assert three


def _assert_grading(op, v, d, degree_shift, weight_change, exact):
    """op sends each monomial of v to degree + degree_shift, and to weight + weight_change
    exactly when exact, else to at most that weight."""
    for key, c in v.terms.items():
        h, w = key[1].bit_count(), term_weight(key, d)
        for kk in op(SuperPoly(v.n, {key: c})).terms:
            assert kk[1].bit_count() == h + degree_shift, (key, kk)
            ww = term_weight(kk, d)
            assert ww == w + weight_change if exact else ww <= w + weight_change, (key, kk)


def test_declared_gradings_hold_at_runtime():
    """The split the sweep relies on, with the shifts worked out here from the action: eta
    raises degree by 1 and keeps weight, the column kernel -keep o eta keeps both, drop
    lowers degree by 1 and weight by at least d - deg(low), or by d with no lower part,
    and the session's integer step drop o eta keeps degree and lowers weight as drop does.
    Checked on random inputs of every homological degree."""
    rng = random.Random(53)
    kinds = set()
    for t in range(12):
        n, d = rng.randint(1, 3), rng.randint(2, 4)
        a = random_action(rng, n, d, homogeneous=t % 3 == 0)
        solver = ReduceSession(a).solver
        drop_change = a.low.max_xdeg() - d if a.has_lower() else -d
        assert drop_change < 0
        assert (solver.column is not None) == a.has_mix()
        kinds.add((solver.column is not None, a.has_lower()))
        for h in range(n + 1):
            for _ in range(2):
                v = _random_of_degree(rng, n, d, h, max_weight=12)
                _assert_grading(_eta(a), v, d, 1, 0, exact=True)
                _assert_grading(lambda p: contract(a.cgrad_low, p, div=True), v, d, -1, drop_change, exact=False)
                _assert_grading(step_map(n, solver.step), v, d, 0, drop_change, exact=False)
                if solver.column is not None:
                    _assert_grading(lambda p: column_poly(p.n, solver.column, *p.terms), v, d, 0, 0, exact=True)
    assert len(kinds) == 4


def _degree0_op(images, n=2):
    """The degree-0 map sending x^a y^b (a + b > 0) to sum c x^e over images(a, b) = [(e, c)], as (keep, drop).

    keep is the part of weight a + b and drop the part below it.  Weight 0
    is the kernel, so that slice has no inverse."""

    def part(same_weight):
        def fn(v):
            out = {}
            for ((a, b), _), c in v.terms.items():
                if a + b == 0:
                    continue
                for e, f in images(a, b):
                    if (sum(e) == a + b) != same_weight:
                        continue
                    s = out.get((e, 0), Scalar(0)) + c * f
                    if s:
                        out[(e, 0)] = s
                    else:
                        out.pop((e, 0), None)
            return SuperPoly(n, out)

        return fn

    return part(True), part(False)


def _mixing_images(a, b):
    # complex entries, mixed denominators: within a weight, scale and shift
    # x^a y^b both ways; leak one weight down through y-lowering
    yield (a, b), Scalar(q(a + 1, 2 * (a + b) + 9), q(b, 5))
    if a:
        yield (a - 1, b + 1), Scalar(q(1, 3), q(-2, 5))
    if b:
        yield (a + 1, b - 1), Scalar(q(-3, 7))
        yield (a, b - 1), Scalar(q(3, 4), 1)


def _triangular_images(a, b):
    # id - t is lower triangular with a purely imaginary diagonal, so X has
    # purely imaginary entries
    yield (a, b), Scalar(1, q(-(a + 1), b + 2))
    if a:
        yield (a - 1, b + 1), Scalar(q(1, 2))
    if b:
        yield (a, b - 1), Scalar(q(-2, 3))


@pytest.mark.parametrize("images", [_mixing_images, _triangular_images])
def test_slice_solver_apply_inverts_id_minus_t(monkeypatch, images):
    n = 2
    keep, drop = _degree0_op(images)
    solver = map_solver(n, 3, _id, map_columns(_id, keep), drop)
    builds = []
    hpl_invert = hpl.invert

    def counting_invert(cols, dens, keys):
        builds.append(len(cols))
        return hpl_invert(cols, dens, keys)

    monkeypatch.setattr(hpl, "invert", counting_invert)
    v = SuperPoly(n, {
        ((3, 1), 0): Scalar(q(2, 3), q(-1, 6)),
        ((0, 4), 0): Scalar(q(-5, 4)),
        ((1, 1), 0): Scalar(0, q(7, 10)),
        ((2, 0), 0): Scalar(q(1, 9), q(3, 2)),
        ((0, 0), 0): Scalar(q(4, 15)),
    })
    y = solver.apply(v)
    assert y - keep(y) - drop(y) == v
    assert builds and max(builds) == 5  # the weight-4 slice: x^4 ... y^4
    assert solver.solved_weights() == [0, 1, 2, 3, 4]
    n_builds = len(builds)
    assert solver.apply(v) == y
    assert len(builds) == n_builds  # every slice came from the cache
    # weight 0 is the kernel: no inverse is kept and its input passes through
    assert solver._slice(0, 0) is None
    one = SuperPoly.const(n, Scalar(q(-2, 7), q(1, 3)))
    assert solver.apply(one) == one


def test_slice_without_weight_keeping_image_is_built_once(monkeypatch):
    # keep o eta vanishes on every slice: each is cached as None and must not be assembled again
    x = SuperPoly.x(2, 0)
    y = SuperPoly.x(2, 1)
    calls = []
    zero_columns = map_columns(_id, _zero)

    def counting_columns(key):
        calls.append(key)
        return zero_columns(key)

    solver = map_solver(2, 3, _id, counting_columns, lambda v: v.dx(0))
    v = x**3 + x * y
    out = solver.apply(v)
    assert calls and solver.solved_weights() == [0, 1, 2, 3]
    assert list(solver._cache.values()) == [None] * 4
    built = len(calls)
    assert solver.apply(v) == out
    assert len(calls) == built


def test_slice_basis_is_built_once_per_shape():
    basis = slice_basis(3, 4, 1, 7)
    assert isinstance(basis, tuple) and basis == tuple(sorted(basis)) and len(basis) == hpl.slice_rows(3, 4, 1, 7)
    assert slice_basis(3, 4, 1, 7) is basis
    assert slice_basis(2, 3, 3, 9) == ()


def test_slice_words_pack_each_key_with_its_mask_above_the_slots():
    """A slice's words are its keys in SLOT_BITS-bit slots with the xi mask above them, and its index finds each."""
    for n, d, h, w in [(3, 4, 1, 7), (2, 3, 2, 9), (1, 3, 0, 5), (3, 2, 3, 6)]:
        basis = slice_basis(n, d, h, w)
        assert basis and basis.words == tuple(slice_word(key) for key in basis)
        assert basis.index == {word: i for i, word in enumerate(basis.words)} and len(basis.index) == len(basis)
        assert [hpl.word_key(word, n) for word in basis.words] == [slice_key(word, n) for word in basis.words]
        assert [slice_key(word, n) for word in basis.words] == list(basis)


def test_slot_width_follows_the_weight_budget():
    """A slot holds every exponent of a slice under the weight budget; a slice past the slot is refused."""
    bits = hpl.SLOT_BITS
    assert bits == hpl.MAX_OBSERVABLE_WEIGHT.bit_length() and hpl.MAX_OBSERVABLE_WEIGHT < 1 << bits
    top = (1 << bits) - 1
    assert slice_basis(2, 3, 0, top).words[-1] == top  # x0^top, the last key, fills the first slot
    with pytest.raises(InputError, match=f"slice holds exponents up to {top + 1}, past the {bits}-bit slot"):
        slice_basis(2, 3, 0, top + 1)
    # the exponents of a degree-h slice reach w - (d-1)h, not w
    assert len(slice_basis(2, 3, 1, top + 2)) == 2 * (top + 1)


def test_slices_at_the_edge_of_a_slot_place_every_column(monkeypatch):
    """The largest slices whose exponents fit a slot, built past the row budget, have the columns of the definition
    at the slot's edge, where a carry would alias another word."""
    monkeypatch.setattr(hpl, "MAX_SLICE_ROWS", 1 << 12)
    seen = []
    hpl_invert = hpl.invert

    def recording_invert(cols, dens, keys):
        seen.append((cols, dens, keys))
        return hpl_invert(cols, dens, keys)

    monkeypatch.setattr(hpl, "invert", recording_invert)
    n, top = 2, (1 << hpl.SLOT_BITS) - 1
    x0, x1 = SuperPoly.x(n, 0), SuperPoly.x(n, 1)
    a = action_build(x0**3 + x1**3 + x0 * x1**2 - x0)
    solver = ReduceSession(a).solver
    for h, w in [(0, top), (1, top + 2)]:
        assert solver._slice(h, w).k == hpl.slice_rows(n, 3, h, w)
    checked = 0
    for cols, dens, keys in seen:
        for key, col, den in zip(keys, cols, dens):
            if top in key[0] or top - 1 in key[0]:
                e = SuperPoly(n, {key: Scalar(1)})
                assert placed_poly(n, keys, col, den) == e - contract(a.cgrad_mix, eta_diag(e, a))
                checked += 1
    assert checked == 12  # x0^top, x1^top, x0^(top-1) x1 and x0 x1^(top-1) in each of the three xi words


def test_slice_solver_solves_only_the_columns_apply_reaches():
    n = 2
    keep, drop = _degree0_op(_mixing_images)
    solver = map_solver(n, 3, _id, map_columns(_id, keep), drop)
    v = SuperPoly(n, {((3, 1), 0): Scalar(q(2, 3), q(-1, 6)), ((0, 4), 0): Scalar(q(-5, 4))})
    y = solver.apply(v)
    assert y - keep(y) - drop(y) == v
    factor = solver._slice(0, 4)
    basis = factor.keys
    assert tuple(basis) == slice_basis(n, 3, 0, 4)
    # each slice's first bucket is one substitution of the bucket itself: no column is memoized
    assert all(col is None for f in solver._cache.values() if f for col in f.columns.values())
    # the second apply memoizes exactly the columns its top bucket touches
    assert solver.apply(v) == y
    solved = [key for key, col in factor.columns.items() if col is not None]
    assert solved == sorted(v.terms) and len(solved) < len(basis)
    # the top slice of y is the whole inverse of id - keep applied to v
    inv = factor.inverse()
    index = {key: i for i, key in enumerate(basis)}
    top = {key: sum((inv[i][index[kv]] * c for kv, c in v.terms.items()), Scalar(0)) for i, key in enumerate(basis)}
    assert {key: c for key, c in y.terms.items() if key in index} == {key: c for key, c in top.items() if c}
    assert solver.apply(v) == y


def _delta_eta_block(a, eta, basis):
    """The in-slice block of (d_bv - d_diag) o eta on a slice basis, from SuperPoly products alone."""
    n, k = a.n, len(basis)
    grads = [(a.s - a.diag).dx(i) for i in range(n)]
    index = {key: i for i, key in enumerate(basis)}
    block = [[Scalar(0)] * k for _ in range(k)]
    for j, key in enumerate(basis):
        e = eta(SuperPoly(n, {key: Scalar(1)}))
        img = SuperPoly.zero(n)
        for i in range(n):
            di = e.dxi(i)
            img = img + grads[i] * di + di.dx(i)
        for kk, c in img.terms.items():
            if kk in index:
                block[index[kk]][j] = c
    return block


def _factored_slices_invert_their_blocks(session, eta):
    """Every slice the session factored inverts id - its block of (d_bv - d_diag) o eta; returns how many."""
    solver = session.solver
    factored = 0
    for (h, w), factor in solver._cache.items():
        basis = slice_basis(solver.n, solver.d, h, w)
        block = _delta_eta_block(session.action, eta, basis)
        if factor is None:
            assert not any(c for row in block for c in row)
            continue
        assert tuple(factor.keys) == basis
        k = len(basis)
        det = Scalar(factor.det)
        for j, key in enumerate(basis):
            x = [Scalar(0)] * k
            for i, xr, xi in factor.column(key):
                x[i] = Scalar(xr, xi)
            for i in range(k):
                got = x[i] - sum((block[i][t] * x[t] for t in range(k)), Scalar(0))
                assert got == (det if i == j else Scalar(0))
        factored += 1
    return factored


def _complexified(rng, a):
    """The action a with every coefficient c turned into c (1 + r i) for a random rational r."""
    terms = {key: c * (Scalar(1) + Scalar(0, 1) * random_rational(rng)) for key, c in a.s.terms.items()}
    return action_build(SuperPoly(a.n, terms))


def test_every_factored_slice_inverts_the_whole_in_slice_block():
    """Slices built from the weight-keeping part alone are exact for the whole perturbation.

    The in-slice block of (d_bv - d_diag) o eta is computed here with Scalar
    arithmetic from the definition, for real and complex actions, mixed and
    inhomogeneous.
    """
    rng = random.Random(55)
    cases = []
    while len(cases) < 8:
        n, d = rng.randint(2, 3), rng.randint(3, 4)
        a = random_action(rng, n, d, homogeneous=len(cases) % 3 == 0)
        if not a.has_mix():
            continue
        if len(cases) % 2:
            a = _complexified(rng, a)
        cases.append(a)
    factored = complex_factored = 0
    for a in cases:
        session = ReduceSession(a)
        try:
            for _ in range(2):
                session.reduce(_random_degree0(rng, a.n, cap=6))
            session.reduce(random_degree1(rng, a.n, a.d, 6))
        except NotGenericAtWeight:
            continue
        got = _factored_slices_invert_their_blocks(session, _eta(a))
        factored += got
        complex_factored += got if any(c.b for c in a.s.terms.values()) else 0
    assert factored and complex_factored


def test_slice_columns_match_the_definition(monkeypatch):
    """Every slice a session hands to invert has the columns e_key - keep(eta_diag(e_key)), content-reduced.

    The reference columns are computed on SuperPoly values by eta_diag and
    _contract with the mixed top gradients, for random mixed actions, real
    and complex, with n <= 3 and d <= 4.
    """
    rng = random.Random(56)
    seen = []
    hpl_invert = hpl.invert

    def recording_invert(cols, dens, keys):
        seen.append((cols, dens, keys))
        return hpl_invert(cols, dens, keys)

    monkeypatch.setattr(hpl, "invert", recording_invert)
    checked = complex_checked = 0
    for t in range(10):
        while True:
            n, d = rng.randint(2, 3), rng.randint(3, 4)
            a = random_action(rng, n, d, homogeneous=t % 3 == 0)
            if a.has_mix():
                break
        if t % 2:
            a = _complexified(rng, a)
        seen.clear()
        session = ReduceSession(a)
        try:
            session.reduce(_random_degree0(rng, n, cap=6))
            session.reduce(random_degree1(rng, n, d, 6))
        except NotGenericAtWeight:
            pass
        assert seen
        for cols, dens, keys in seen:
            assert len(dens) == len(cols) == len(keys)
            assert keys == slice_basis(n, d, keys[0][1].bit_count(), term_weight(keys[0], d))
            for key, col, den in zip(keys, cols, dens):
                e = SuperPoly(n, {key: Scalar(1)})
                assert placed_poly(n, keys, col, den) == e - contract(a.cgrad_mix, eta_diag(e, a))
                # each column comes reduced by its own content
                assert gcd(den, *[x for ab in col[1] for x in ab]) == 1
                checked += 1
                complex_checked += t % 2
    assert checked and complex_checked


def test_a_slice_build_is_one_invert_call_from_slice_and_the_step_calls_contract(monkeypatch):
    """The names the traced benchmark hooks: a slice build calls `hpl.invert` once, from inside `_slice`, with the
    slice's k columns as its first argument, and the session's step calls `bvdiff._contract` by that name."""
    import sys

    import bvreduce.bvdiff as bvdiff
    import bvreduce.reduce as reduce_mod

    calls = []
    hpl_invert = hpl.invert

    def recording_invert(*args):
        calls.append((sys._getframe(1).f_code.co_name, len(args[0])))
        return hpl_invert(*args)

    monkeypatch.setattr(hpl, "invert", recording_invert)
    contracted = []
    kernel = bvdiff._contract

    def counting_contract(*args, **kwargs):
        contracted.append(1)
        return kernel(*args, **kwargs)

    # as the tracer does: the kernel is wrapped at its home and at every name bound to it
    for mod in (bvdiff, reduce_mod):
        assert mod._contract is kernel
        monkeypatch.setattr(mod, "_contract", counting_contract)
    x, y = SuperPoly.x(2, 0), SuperPoly.x(2, 1)
    session = ReduceSession(action_build(x**3 + y**3 + x * y**2 - x))
    assert session.solver._slice(0, 4) is not None
    assert calls == [("_slice", hpl.slice_rows(2, 3, 0, 4))]
    session.solver._slice(0, 4)
    assert len(calls) == 1
    assert not contracted
    session.reduce(x**5)
    assert contracted
