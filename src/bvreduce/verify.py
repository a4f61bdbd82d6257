"""Seeded randomized invariant suites: the gate behind the verify subcommand.

Four suites: exactness (classes of boundaries vanish), section (basis
monomials reduce to unit vectors), Wick agreement (three routes to quadratic
moments), and rank counts (the homotopy-free dimension check).  Failures are
reported as JSON-able dicts with the seed, so every run is reproducible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import reduce as reduce_mod
from .bvdiff import Action, action_build, d_bv
from .errors import EngineError, NotGenericAtWeight, SingularMatrix
from .hbar import isserlis_moment
from .linalg import invert
from .reduce import jac_basis, jac_rank_check, reduce_full, wick
from .scalars import Scalar, q
from .superpoly import SuperPoly, monomials_of_degree

@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    skipped: int = 0  # instances the engine rejected as non-generic; not counted as checks
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def random_rational(rng: random.Random, height: int = 5, nonzero: bool = False) -> Scalar:
    num = rng.randint(-height, height)
    while nonzero and num == 0:
        num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Scalar(q(num, den))


def random_action(
    rng: random.Random,
    n: int,
    d: int,
    height: int = 5,
    homogeneous: bool = False,
) -> Action:
    """Random action of degree exactly d with every diagonal coefficient nonzero."""
    s = SuperPoly.zero(n)
    for i in range(n):
        s = s + SuperPoly.x(n, i, d).scale(random_rational(rng, height, nonzero=True))
    top_monos = [e for e in monomials_of_degree(n, d) if sum(1 for p in e if p) >= 2]
    for e in top_monos:
        if rng.random() < 0.5:
            c = random_rational(rng, height)
            if c:
                s = s + SuperPoly.monomial(n, e, coeff=c)
    if not homogeneous:
        for deg in range(1, d):
            for e in monomials_of_degree(n, deg):
                if rng.random() < 0.3:
                    c = random_rational(rng, height)
                    if c:
                        s = s + SuperPoly.monomial(n, e, coeff=c)
    return action_build(s)


def random_degree1(rng: random.Random, n: int, d: int, max_weight: int = 8) -> SuperPoly:
    """Random nonzero degree-1 element of weight at most max_weight."""
    xcap = max_weight - (d - 1)
    v = SuperPoly.zero(n)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(n)
        deg = rng.randint(0, max(0, xcap))
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += 1
        c = random_rational(rng)
        if c:
            v = v + SuperPoly.monomial(n, e, (i,), c)
    if v.is_zero:
        v = SuperPoly.xi(n, rng.randrange(n))
    return v


def _shrink_boundary(a: Action, v: SuperPoly) -> SuperPoly:
    """Greedy minimization: drop terms of v while the failure persists."""

    def fails(u: SuperPoly) -> bool:
        if u.is_zero:
            return False
        try:
            return not reduce_full(a, d_bv(a, u)).is_zero
        except EngineError:
            return True

    changed = True
    while changed:
        changed = False
        for key in list(v.terms):
            u = SuperPoly(v.n, {k: c for k, c in v.terms.items() if k != key})
            if fails(u):
                v = u
                changed = True
                break
    return v


def check_exactness(
    trials: int,
    seed: int,
    n_max: int = 3,
    d_max: int = 4,
    max_weight: int = 8,
) -> SuiteReport:
    """Classes of full-differential boundaries must vanish exactly."""
    rng = random.Random(seed)
    report = SuiteReport("exactness")
    for _ in range(trials):
        n = rng.randint(1, n_max)
        d = rng.randint(2, d_max)
        a = random_action(rng, n, d)
        v = random_degree1(rng, n, d, max_weight)
        f = d_bv(a, v)
        try:
            got = reduce_full(a, f)
        except NotGenericAtWeight:
            # the random action landed on the non-generic locus; skip it
            report.skipped += 1
            continue
        report.checks += 1
        if not got.is_zero:
            small = _shrink_boundary(a, v)
            report.failures.append(
                {
                    "invariant": "tau(d_bv(v)) == 0",
                    "seed": seed,
                    "action": a.s.text(),
                    "v": small.text(),
                    "got": reduce_full(a, d_bv(a, small)).text(),
                }
            )
            if len(report.failures) >= 3:
                break
    return report


def check_section(trials: int, seed: int, n_max: int = 3, d_max: int = 4) -> SuiteReport:
    """reduce(basis monomial) must be the corresponding unit vector."""
    rng = random.Random(seed + 1)
    report = SuiteReport("section")
    for _ in range(trials):
        n = rng.randint(1, n_max)
        d = rng.randint(2, d_max)
        a = random_action(rng, n, d)
        basis = jac_basis(n, d)
        for m in basis.monomials:
            try:
                got = reduce_full(a, SuperPoly.monomial(n, m))
            except NotGenericAtWeight:
                report.skipped += 1
                continue
            report.checks += 1
            want = reduce_mod.JacClass(basis, {m: 1})
            if got != want:
                report.failures.append(
                    {
                        "invariant": "tau(phi(m)) == unit(m)",
                        "seed": seed,
                        "action": a.s.text(),
                        "monomial": list(m),
                        "got": got.text(),
                    }
                )
        if report.failures:
            break
    return report


def isserlis_wick(a: Action, f: SuperPoly) -> Scalar:
    """Independent quadratic oracle: shift to the critical point, pair with covariance -(s2)^{-1}."""
    s2, s1, _ = a.quad
    s2inv = invert(s2).inverse()
    n = a.n
    crit = [-sum((s2inv[i][j] * s1[j] for j in range(n)), Scalar(0)) for i in range(n)]
    cov = tuple(tuple(-s2inv[i][j] for j in range(n)) for i in range(n))
    g = f.shift(crit)
    total = Scalar(0)
    for (e, mask), c in g.terms.items():
        if mask:
            raise ValueError("degree-0 observables only")
        total = total + c * isserlis_moment(cov, e)
    return total


def random_quadratic(rng: random.Random, n: int, height: int = 3) -> Action:
    """Random quadratic action with invertible s2 and nonzero diagonal."""
    while True:
        s = SuperPoly.zero(n)
        for i in range(n):
            s = s + SuperPoly.x(n, i, 2).scale(random_rational(rng, height, nonzero=True))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    s = s + SuperPoly.monomial(n, e, coeff=random_rational(rng, height))
        for i in range(n):
            if rng.random() < 0.5:
                s = s + SuperPoly.x(n, i).scale(random_rational(rng, height))
        a = action_build(s)
        try:
            invert(a.quad[0])
        except SingularMatrix:
            continue
        return a


def check_wick(trials: int, seed: int, n_max: int = 4) -> SuiteReport:
    """wick == reduce_full == Isserlis oracle for quadratic actions, exactly."""
    rng = random.Random(seed + 2)
    report = SuiteReport("wick-agreement")
    for _ in range(trials):
        n = rng.randint(1, n_max)
        a = random_quadratic(rng, n)
        deg = rng.randint(0, 6)  # the largest degree of the monomial observable
        e = [0] * n
        for _ in range(deg):
            e[rng.randrange(n)] += 1
        f = SuperPoly.monomial(n, e)
        w = wick(a, f)
        o = isserlis_wick(a, f)
        try:
            r = reduce_full(a, f).vector()[0]
        except NotGenericAtWeight:
            report.skipped += 1
            continue
        report.checks += 1
        if not (w == o == r):
            report.failures.append(
                {
                    "invariant": "wick == reduce_full == isserlis",
                    "seed": seed,
                    "action": a.s.text(),
                    "f": f.text(),
                    "wick": w.text(),
                    "reduce": r.text(),
                    "isserlis": o.text(),
                }
            )
            break
    return report


def check_ranks(trials: int, seed: int) -> SuiteReport:
    """Per-weight rank counts match the basis monomial counts for generic homogeneous actions."""
    rng = random.Random(seed + 3)
    pairs = ((2, 3), (2, 4), (2, 5), (3, 3))  # the (n, d) pairs drawn
    report = SuiteReport("rank-counts")
    for _ in range(trials):
        n, d = pairs[rng.randrange(len(pairs))]
        a = random_action(rng, n, d, homogeneous=True)
        w_max = n * (d - 2) + 1
        dims = jac_rank_check(a, w_max)
        basis = jac_basis(n, d)
        expected = [0] * (w_max + 1)
        for m in basis.monomials:
            expected[sum(m)] += 1
        report.checks += 1
        if dims == expected:
            continue
        # a genuine non-generic sample must also trip the engine; anything
        # else is an inconsistency between the two routes, so a probe that
        # raises is the consistent outcome here, not a skip
        bad_w = next(w for w in range(w_max + 1) if dims[w] != expected[w])
        probe = next(m for m in basis.monomials if sum(m) == bad_w)
        try:
            reduce_full(a, SuperPoly.monomial(n, probe))
            consistent = False
        except NotGenericAtWeight:
            consistent = True
        if not consistent:
            report.failures.append(
                {
                    "invariant": "rank deficit implies NotGenericAtWeight",
                    "seed": seed,
                    "action": a.s.text(),
                    "dims": dims,
                    "expected": expected,
                }
            )
            break
    return report


def run_all(trials: int, seed: int, n_max: int = 3, d_max: int = 4, max_weight: int = 8) -> list[SuiteReport]:
    return [
        check_exactness(trials, seed, n_max, d_max, max_weight),
        check_section(max(1, trials // 4) if trials else 0, seed, n_max, d_max),
        check_wick(trials, seed, n_max=min(4, n_max + 1)),
        check_ranks(max(1, trials // 10) if trials else 0, seed),
    ]
