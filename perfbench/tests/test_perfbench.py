"""Tests of the benchmark itself: determinism, its correctness gate, its hooks and a smoke run."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bvreduce import reduce as reduce_mod  # noqa: E402

SMOKE_SECONDS = "0.3"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path).input_bytes()
    assert first == cls(7, tmp_path).input_bytes()
    assert first != cls(8, tmp_path).input_bytes()


def test_boundaries_are_exact_for_the_engine():
    # the benchmark's own d_bv agrees with the engine's on a drawn pair
    from bvreduce import bvdiff
    from bvreduce.superpoly import SuperPoly
    from bvreduce.scalars import Scalar

    dr = workloads.Draw("test", 1, 0)
    s = workloads.draw_action(dr, 2, 3)
    v = workloads.draw_degree1(dr, 2, 3)
    a = bvdiff.action_build(workloads.to_poly(2, s))
    v_poly = SuperPoly(2, {(e, 1 << i): Scalar(c) for (e, i), c in v.items()})
    assert bvdiff.d_bv(a, v_poly) == workloads.to_poly(2, workloads.boundary(2, s, v))


@pytest.fixture
def broken_reduce(monkeypatch):
    """A reduction that adds the first basis class to every answer."""
    original = reduce_mod.ReduceSession.reduce

    def wrong(self, f):
        got = original(self, f)
        return got + reduce_mod.JacClass(got.basis, {got.basis.monomials[0]: 1})

    monkeypatch.setattr(reduce_mod.ReduceSession, "reduce", wrong)


@pytest.mark.parametrize("name", ["cold-gate", "warm-session"])
def test_broken_reduction_drives_error_rate_up(name, tmp_path, broken_reduce):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    wl.setup()
    phase = bench.timed_phase(wl, 60, count=4)
    assert phase.failed / len(phase.latencies) > 0


def test_percentiles_are_over_entry_medians():
    phase = bench.Phase()
    phase.entries = [0, 1, 0, 1, 0, 2]
    phase.scaled = [1.0, 5.0, 3.0, 7.0, 2.0, 4.0]
    assert bench.entry_latencies(phase) == [(2.0, 3), (4.0, 1), (6.0, 2)]


def test_times_scale_with_the_adjacent_reference_times():
    # measured while the reference took twice its nominal time: half as long at the reference speed
    ref = bench.Reference(lambda: 0.0, 1e-3)
    assert ref.scale(0.5, 1e-3, 3e-3) == 0.25


def _traced_ops(name, seed, count, tmp_path, first_input=None):
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        wl = workloads.WORKLOADS[name](seed, tmp_path)
        wl.setup()
        if first_input is not None:
            wl.inputs[0] = first_input
        tracer.reset()
        phase = bench.timed_phase(wl, 60, count=count, tracer=tracer)
    finally:
        inst.restore()
    assert phase.failed == 0
    return tracer


def test_warm_session_builds_no_slice_when_timed(tmp_path):
    tracer = _traced_ops("warm-session", 5, 6, tmp_path)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["hpl.apply_calls"] > 0
    assert metrics["hpl.slices_built"] == 0
    assert metrics["hpl.slice_hit_ratio"] == 1.0


def test_nongeneric_skips_repeat_for_one_seed(tmp_path):
    # x^4 + 2x^3y + 2xy^3 + y^4 is not generic at weight 4 (the CLI tests' exit-2 case);
    # it stands in for the pool's first action so that at least one skip is counted
    quartic = {(4, 0): 1, (3, 1): 2, (1, 3): 2, (0, 4): 1}
    first = (workloads.to_poly(2, quartic), workloads.to_poly(2, {(2, 2): 1}))
    counts = [
        tracing.layer_metrics(_traced_ops("cold-gate", 11, 9, tmp_path, first))["reduce.nongeneric_skips"]
        for _ in range(2)
    ]
    assert counts[0] == counts[1] >= 1


def test_hooks_reach_every_binding_and_restore():
    from bvreduce import hbar, hpl, linalg
    from bvreduce.scalars import Scalar

    original = linalg.invert
    inst = tracing.install(tracing.Tracer())
    try:
        for mod in (linalg, hpl, reduce_mod, hbar):
            assert mod.invert.__wrapped__ is original
        assert Scalar.__radd__ is Scalar.__add__
        assert Scalar.__add__.__wrapped__ is not None
    finally:
        inst.restore()
    assert all(mod.invert is original for mod in (linalg, hpl, reduce_mod, hbar))
    assert not hasattr(Scalar.__add__, "__wrapped__")


def test_missing_hook_target_is_reported_not_fatal():
    tracer = tracing.Tracer()
    gone = tracing.Hook("bvreduce.linalg", "no_such_function", ("linalg.forward_s",), lambda t, fn: fn)
    tracing.install(tracer, hooks=(gone,)).restore()
    assert "linalg.forward_s" not in tracing.layer_metrics(tracer)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    proc = _run(["--workload", name, "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)


def test_smoke_traced_run():
    proc = _run(["--workload", "cold-gate", "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(tracing.UNITS)
    assert metrics["linalg.invert_calls"]["value"] > 0


def test_fails_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "cold-gate", "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
