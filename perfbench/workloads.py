"""Seeded inputs, operations and expected answers of the four workloads.

Inputs are drawn here in plain Python (``random`` and ``fractions``) from the
workload seed, so the traffic depends on nothing in ``bvreduce``: an edit to
``bvreduce.verify`` or to the differentials cannot change what is sent.  The
boundaries ``d_bv(v)`` are computed here too, from the definition
``d_bv(v) = sum_i (ds/dx_i) dv/dxi_i + d^2 v/(dx_i dxi_i)``, so the expected
classes (0 and ``unit(m)``) hold independently of the engine.

A workload object has ``draw()`` (the plain input pool), ``setup()`` (engine
values, cache warm-up, expected answers), ``run_op(i)`` and
``check(i, answer)``.  ``run_op`` cycles through the pool, so a run of any
length sends the same traffic for the same seed.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from bvreduce import bvdiff, hbar
from bvreduce import reduce as reduce_mod
from bvreduce.scalars import Scalar
from bvreduce.superpoly import SuperPoly

# Acceptance criterion 1 draws boundaries of weight <= 8.  At 8 an n = 3
# operation on an empty cache takes 2-5 s and a 20 s run completes about 30
# operations, too few for a steady p50 and p90; at 6 it completes about 150
# (2-vCPU VM, Python 3.11, fractions.Fraction scalars).
MAX_WEIGHT = 6
HBAR_K = 3  # truncation order of every hbar operation

# -- plain-Python draws ----------------------------------------------------------


def monomials(n: int, deg: int) -> list[tuple[int, ...]]:
    """Exponent words of total degree deg in n variables, lexicographic."""
    return sorted(e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) == deg)


def basis_monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """The (d-1)^n exponent words with every entry <= d-2, lexicographic."""
    return sorted(itertools.product(range(d - 1), repeat=n))


def unit_exps(n: int, i: int, p: int = 1) -> tuple[int, ...]:
    return tuple(p if j == i else 0 for j in range(n))


class Draw:
    """The random streams of one pool entry.

    ``shape`` decides which terms exist, their degrees and their variables,
    and comes from a fixed label; ``value`` draws the coefficients and comes
    from the seed.  The time of an operation follows its shape, which a run
    samples only a few dozen times, so runs of different seeds send the same
    shapes with different coefficients and their figures stay comparable.
    String seeds are hashed with SHA-512, so neither stream depends on
    PYTHONHASHSEED.
    """

    def __init__(self, label: str, seed: int, i: int):
        self.shape = random.Random(f"{label}:shape:{i}")
        self.value = random.Random(f"{label}:value:{seed}:{i}")

    def chance(self, p: float) -> bool:
        return self.shape.random() < p

    def coeff(self, height: int = 5) -> Fraction:
        """Nonzero rational with |numerator| and denominator at most height."""
        num = 0
        while num == 0:
            num = self.value.randint(-height, height)
        return Fraction(num, self.value.randint(1, height))

    def exponents(self, n: int, deg: int) -> tuple[int, ...]:
        e = [0] * n
        for _ in range(deg):
            e[self.shape.randrange(n)] += 1
        return tuple(e)


def _accumulate(poly: dict, key, c: Fraction) -> None:
    s = poly.get(key, 0) + c
    if s:
        poly[key] = s
    else:
        poly.pop(key, None)


def draw_action(dr: Draw, n: int, d: int) -> dict:
    """Criterion 1's action draw: nonzero diagonal, mixed top terms (p=0.5), lower terms (p=0.3)."""
    s = {unit_exps(n, i, d): dr.coeff() for i in range(n)}
    for e in monomials(n, d):
        if sum(1 for p in e if p) >= 2 and dr.chance(0.5):
            s[e] = dr.coeff()
    for deg in range(1, d):
        for e in monomials(n, deg):
            if dr.chance(0.3):
                s[e] = dr.coeff()
    return s


def draw_degree1(dr: Draw, n: int, d: int) -> dict:
    """Criterion 1's boundary draw: 1..4 terms c x^e xi_i of weight <= MAX_WEIGHT, keyed (e, i)."""
    xcap = max(0, MAX_WEIGHT - (d - 1))
    v: dict = {}
    for _ in range(dr.shape.randint(1, 4)):
        i = dr.shape.randrange(n)
        e = dr.exponents(n, dr.shape.randint(0, xcap))
        _accumulate(v, (e, i), dr.coeff())
    if not v:
        v[((0,) * n, 0)] = Fraction(1)
    return v


def boundary(n: int, s: dict, v: dict) -> dict:
    """d_bv(v) for a degree-1 v: the sum over its terms of c x^e ds/dx_i + c e_i x^(e - 1_i)."""
    grads = []
    for i in range(n):
        grads.append({es[:i] + (es[i] - 1,) + es[i + 1:]: cs * es[i] for es, cs in s.items() if es[i]})
    out: dict = {}
    for (e, i), c in v.items():
        for eg, cg in grads[i].items():
            _accumulate(out, tuple(a + b for a, b in zip(e, eg)), c * cg)
        if e[i]:
            _accumulate(out, e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
    return out


def det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    k = len(m)
    out = Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            for j in range(c, k):
                m[r][j] -= f * m[c][j]
    return out


def draw_hbar_model(dr: Draw, n: int) -> dict:
    """Criterion 6's model draw: nondegenerate symmetric pairing, a cubic and a quartic vertex."""
    offdiag = [(i, j) for i in range(n) for j in range(i + 1, n) if dr.chance(0.8)]
    while True:
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = dr.coeff(3)
        for i, j in offdiag:
            a[i][j] = a[j][i] = dr.coeff(2)
        if det(a):
            break
    vertices = {}
    for deg in (3, 4):
        p = {e: dr.coeff(2) for e in monomials(n, deg) if dr.chance(0.5)}
        vertices[deg] = p or {unit_exps(n, 0, deg): Fraction(1)}
    return {"a": a, "vertices": vertices}


def draw_observable(dr: Draw, n: int, max_deg: int = 4) -> dict:
    """One monomial c x^e of degree <= max_deg, as in criterion 6."""
    return {dr.exponents(n, dr.shape.randint(0, max_deg)): dr.coeff(3)}


def canon(x):
    """JSON-ready canonical form of a draw: Fractions as [num, den], dicts as sorted pairs."""
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in sorted(x.items())]
    if isinstance(x, (list, tuple)):
        return [canon(e) for e in x]
    return x


# -- engine values -----------------------------------------------------------------


def to_poly(n: int, p: dict) -> SuperPoly:
    """An xi-free SuperPoly from {exponents: Fraction}."""
    return SuperPoly(n, {(e, 0): Scalar(c) for e, c in p.items()})


def _with_monomial(p: dict, m: tuple[int, ...]) -> dict:
    out = dict(p)
    _accumulate(out, m, Fraction(1))
    return out


class Workload:
    name = ""
    runs_children = False  # whether an operation runs in a child process
    tracer = None  # set by the traced run; only the CLI workload forwards it to its children

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pool = self.draw()

    def draw(self) -> list:
        raise NotImplementedError

    def input_bytes(self) -> bytes:
        return json.dumps(canon(self.pool), sort_keys=True).encode()

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, answer) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdGate(Workload):
    """action_build + reduce_full of one boundary d_bv(v); expected class 0.

    Every operation builds its Action anew, so it starts from an empty slice
    cache.  The (n, d) cells of criterion 1 are visited in a fixed cycle, and
    the actions are one fixed sample of criterion 1's draw: their coefficients
    set the size of every slice solve, which would otherwise swamp the
    comparison between seeds.
    """

    name = "cold-gate"
    CELLS = [(n, d) for d in (2, 3, 4) for n in (1, 2, 3)]
    POOL = 9 * 3  # about five rounds in a 20 s run, so each entry has a median

    def draw(self):
        pool = []
        for i in range(self.POOL):
            n, d = self.CELLS[i % len(self.CELLS)]
            s = draw_action(Draw(f"{self.name}:action", 0, i), n, d)
            v = draw_degree1(Draw(self.name, self.seed, i), n, d)
            pool.append({"n": n, "d": d, "s": s, "v": v, "f": boundary(n, s, v)})
        return pool

    def setup(self):
        self.inputs = [(to_poly(p["n"], p["s"]), to_poly(p["n"], p["f"])) for p in self.pool]

    def run_op(self, i):
        s, f = self.inputs[i % len(self.inputs)]
        return reduce_mod.reduce_full(bvdiff.action_build(s), f)

    def check(self, i, answer):
        return answer.is_zero


class WarmSession(Workload):
    """reduce(x^m + d_bv(v)) on sessions whose slices were all solved in set-up; expected unit(m)."""

    name = "warm-session"
    # fixed generic actions, each with a mixed top part and lower-order terms
    ACTIONS = ((3, 3), (3, 4), (2, 4))
    POOL = 3 * 32

    def draw(self):
        actions = [draw_action(Draw(f"{self.name}:action", 0, k), n, d) for k, (n, d) in enumerate(self.ACTIONS)]
        pool = []
        for i in range(self.POOL):
            k = i % len(self.ACTIONS)
            n, d = self.ACTIONS[k]
            dr = Draw(self.name, self.seed, i)
            m = dr.shape.choice(basis_monomials(n, d))
            v = draw_degree1(dr, n, d)
            pool.append({"action": k, "m": m, "v": v, "f": _with_monomial(boundary(n, actions[k], v), m)})
        return [actions, pool]

    def setup(self):
        actions, pool = self.pool
        built = []
        for (n, d), s in zip(self.ACTIONS, actions):
            a = bvdiff.action_build(to_poly(n, s))
            if not (a.has_mix() and a.has_lower()):
                raise RuntimeError(f"warm-session action n={n} d={d} lacks a mixed or lower part")
            # one monomial of every weight up to the cap solves every slice an operation can reach
            reduce_mod.reduce_full(a, to_poly(n, {unit_exps(n, 0, w): Fraction(1) for w in range(MAX_WEIGHT + 1)}))
            built.append(a)
        self.inputs = []
        for p in pool:
            n, d = self.ACTIONS[p["action"]]
            unit = reduce_mod.JacClass(reduce_mod.jac_basis(n, d), {p["m"]: 1})
            self.inputs.append((built[p["action"]], to_poly(n, p["f"]), unit))

    def run_op(self, i):
        a, f, _ = self.inputs[i % len(self.inputs)]
        return reduce_mod.reduce_full(a, f)

    def check(self, i, answer):
        return answer == self.inputs[i % len(self.inputs)][2]


def hbar_model(n: int, model: dict):
    return hbar.HbarModel(
        n,
        [[Scalar(c) for c in row] for row in model["a"]],
        {deg: to_poly(n, p) for deg, p in model["vertices"].items()},
    )


class HbarSeriesWorkload(Workload):
    """hbar_reduce at order HBAR_K on fixed models; expected series from hbar_oracle (Isserlis route).

    Each pool entry is one model with one observable.  The time of an
    operation grows steeply with n and the observable's degree, so the median
    falls among the eight n = 2 entries, whose times spread from about 10 to
    50 ms; with fewer entries it sits on one entry's time and jumps with the
    speed of the machine.  The two n = 3 entries take about 60 % of the run;
    each costs about 0.7 s of hbar_oracle in set-up (same machine as above).
    """

    name = "hbar-series"
    SIZES = (1,) * 6 + (2,) * 8 + (3,) * 2  # n of each entry

    def draw(self):
        return [
            {
                "n": n,
                "model": draw_hbar_model(Draw(f"{self.name}:model", 0, i), n),
                "f": draw_observable(Draw(self.name, self.seed, i), n),
            }
            for i, n in enumerate(self.SIZES)
        ]

    def setup(self):
        self.inputs = []
        for p in self.pool:
            model = hbar_model(p["n"], p["model"])
            f = to_poly(p["n"], p["f"])
            self.inputs.append((f, model, hbar.hbar_oracle(f, model, HBAR_K)))

    def run_op(self, i):
        f, model, _ = self.inputs[i % len(self.inputs)]
        return hbar.hbar_reduce(f, model, HBAR_K)

    def check(self, i, answer):
        return answer == self.inputs[i % len(self.inputs)][2]


# -- the CLI workload --------------------------------------------------------------


def _terms_json(p: dict) -> list:
    return [{"exp": list(e), "re": [c.numerator, c.denominator], "im": [0, 1]} for e, c in sorted(p.items())]


def _scalar_json(c: Fraction) -> dict:
    c = Fraction(c)
    return {"re": [c.numerator, c.denominator], "im": [0, 1]}


def _scalar_value(obj: dict) -> tuple[Fraction, Fraction]:
    return Fraction(*obj["re"]), Fraction(*obj["im"])


class CliOneshot(Workload):
    """One ``python -m bvreduce.cli`` child per operation, run one after another.

    The pool cycles through an oracle problem with n = 1 (expected
    ``"passed": true``), an hbar problem (expected hbar_oracle series) and
    reduce problems with n <= 3, d <= 4 (expected unit vector).  The reduce
    problems are small, so that a child's time is start-up, import and CLI
    work: with n = 3, d = 3 the reduction alone doubled one entry's time and
    set op_p90_ms by itself, at a spread of 0.14 over five seeds.  Large
    reductions are timed by cold-gate and warm-session.
    """

    name = "cli-oneshot"
    runs_children = True
    REDUCE_CELLS = ((1, 4), (2, 3), (3, 2))
    # actions and observables of acceptance criterion 7, whose contours are known to certify
    ORACLE_ACTIONS = ({(3,): Fraction(1)}, {(3,): Fraction(1, 3), (1,): Fraction(-1)})
    ORACLE_POWERS = (2, 3, 4, 6)

    def draw(self):
        # five entries, so a 20 s run repeats each of them three or four times
        dr = Draw(self.name, self.seed, 0)
        s = dr.shape.choice(self.ORACLE_ACTIONS)
        f = {(dr.shape.choice(self.ORACLE_POWERS),): dr.coeff()}
        pool = [{"kind": "oracle", "n": 1, "s": s, "f": f}]
        model = draw_hbar_model(Draw(f"{self.name}:model", 0, 1), 2)
        pool.append({"kind": "hbar", "n": 2, "model": model, "f": draw_observable(Draw(self.name, self.seed, 1), 2)})
        for n, d in self.REDUCE_CELLS:
            j = len(pool)
            s = draw_action(Draw(f"{self.name}:action", 0, j), n, d)
            dr = Draw(self.name, self.seed, j)
            m = dr.shape.choice(basis_monomials(n, d))
            f = _with_monomial(boundary(n, s, draw_degree1(dr, n, d)), m)
            pool.append({"kind": "reduce", "n": n, "d": d, "s": s, "m": m, "f": f})
        return pool

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.child_env = dict(os.environ, PYTHONPATH=str(Path(reduce_mod.__file__).parent.parent))
        self.child_script = Path(__file__).with_name("cli_child.py")
        self.inputs = []
        for j, p in enumerate(self.pool):
            n = p["n"]
            problem = {"n": n, "observable": _terms_json(p["f"])}
            if p["kind"] == "hbar":
                model = p["model"]
                problem["hbar"] = {
                    "a": [[_scalar_json(c) for c in row] for row in model["a"]],
                    "vertices": {str(deg): _terms_json(vp) for deg, vp in model["vertices"].items()},
                    "K": HBAR_K,
                }
                series = hbar.hbar_oracle(to_poly(n, p["f"]), hbar_model(n, model), HBAR_K).scalars()
                expected = [(Fraction(c.re), Fraction(c.im)) for c in series]
            else:
                problem["action"] = _terms_json(p["s"])
                if p["kind"] == "reduce":
                    basis = basis_monomials(n, p["d"])
                    expected = [(Fraction(int(m == p["m"])), Fraction(0)) for m in basis]
                else:
                    expected = True
            path = self.workdir / f"problem-{j}.json"
            path.write_text(json.dumps(problem, sort_keys=True))
            self.inputs.append((p["kind"], str(path), expected))

    def run_op(self, i):
        kind, path, _ = self.inputs[i % len(self.inputs)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bvreduce.cli", kind, path]
        else:
            trace_out = self.workdir / "child-trace.json"
            cmd = [sys.executable, str(self.child_script), str(trace_out), kind, path]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.child_env, capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.add_time("cli.child_wall", wall)
            if proc.returncode == 0:
                self.tracer.merge(json.loads(trace_out.read_text()))
        if proc.returncode != 0:
            raise RuntimeError(f"bvreduce {kind} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(proc.stdout)

    def check(self, i, answer):
        kind, _, expected = self.inputs[i % len(self.inputs)]
        if kind == "oracle":
            return answer.get("passed") is True
        got = answer["coefficients"] if kind == "reduce" else answer["series"]
        return [_scalar_value(c) for c in got] == expected

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ColdGate, WarmSession, HbarSeriesWorkload, CliOneshot)}
