"""The bvreduce benchmark: one seeded workload per run, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cold-gate --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no hooks in
place.  With ``--trace 1`` it runs the workload untraced for half the time,
then installs the per-layer hooks (``tracing.py``), repeats the set-up and
runs the same operations traced; it reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.perfbench/``.

The end-to-end times are reported at a fixed reference speed.  The host is
shared and its speed swings by up to 1.8x within seconds (the same
pure-Python loop took 0.14 s and 0.24 s minutes apart), far past the 25 %
by which a metric may worsen.  So the run pins itself to one CPU, times a
fixed computation that uses nothing from ``bvreduce`` (a ``Reference``)
between operations and around each set-up, and scales every time by the
reference time measured next to it; the wall-clock figures are printed beside
them.  Over ten runs of one commit this took the spread (interquartile range /
median) of ops_per_s, op_p50_ms and op_p90_ms from 0.19-0.38 to 0.02-0.06 on
cold-gate and hbar-series.

The engine is imported from ``src/`` of the checkout and nowhere else; a
checkout without it is an error (exit code 1, no result).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # span dumps and the CLI workload's problem files
SETUP_REPEATS = 3
# imported by interpreter_s(), the reference for work in a fresh interpreter
STDLIB_MODULES = ("decimal", "fractions", "json", "email.parser", "http.client", "xml.dom.minidom",
                  "argparse", "logging", "unittest", "asyncio")
TRACED_TIME_CAP = 3.0  # the traced phase may take at most this many times --seconds

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# operations whose hook must fire in the traced run, per workload
REQUIRED_HOOKS = {"cold-gate": "linalg.invert_calls", "warm-session": "hpl.apply_calls"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine() -> float:
    """Import bvreduce from the checkout's src/ and return the import time."""
    if not (SRC / "bvreduce" / "__init__.py").is_file():
        raise SystemExit(f"error: no bvreduce sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import bvreduce

    elapsed = perf_counter() - t0
    if Path(bvreduce.__file__).resolve().parent != (SRC / "bvreduce").resolve():
        raise SystemExit(f"error: bvreduce was imported from {bvreduce.__file__}, not {SRC}")
    return elapsed


def environment(seed: int) -> dict:
    from bvreduce import scalars

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not read a repository above it
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvreduce").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "gmpy2": has_gmpy2,
        "scalar_backend": f"{scalars.Q.__module__}.{scalars.Q.__qualname__}",
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def fractions_s() -> float:
    """Wall time of a fixed computation in the standard library's ``fractions``.

    The collector is off while it runs, so the size of the engine's heap
    cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        blocks = []
        for _ in range(4):
            t0 = perf_counter()
            x = Fraction(1, 3)
            for j in range(1, 60):
                x = x * Fraction(j, j + 7) + Fraction(1, j + 2)
            blocks.append(perf_counter() - t0)
        # the fastest block: one interrupted by the host says nothing of its speed
        return min(blocks) * len(blocks)
    finally:
        if enabled:
            gc.enable()


def interpreter_s() -> float:
    """Wall time of a fresh interpreter that imports a fixed set of standard-library modules."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(STDLIB_MODULES)], check=True, timeout=120)
    return perf_counter() - t0


class Reference:
    """A fixed computation that stands for the speed of the host at the moment it runs.

    It uses nothing from ``bvreduce``, so a change to the engine does not
    change it.  A time measured between two runs of it, `before` and
    `after`, is reported at the reference speed: scaled by ``nominal`` over
    their mean.
    """

    def __init__(self, measure, nominal: float):
        self.measure = measure
        self.nominal = nominal

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.nominal * 2 / (before + after)

    def time(self, fn):
        """(fn(), its wall time at the reference speed)."""
        before = self.measure()
        t0 = perf_counter()
        result = fn()
        took = perf_counter() - t0
        return result, self.scale(took, before, self.measure())

    def report(self, measure) -> float:
        """The time that measure() returns, at the reference speed."""
        before = self.measure()
        took = measure()
        return self.scale(took, before, self.measure())


# Work in this process is timed against the fractions loop, which is
# arithmetic like the engine's.  Work in a fresh interpreter (imports, CLI
# children) is timed against a fresh interpreter: on a 2-vCPU VM the fractions
# loop slowed by up to 1.9x while CLI children slowed by 1.4x, and scaled by it
# their latencies varied twice as much as unscaled (coefficient of variation
# 0.20 against 0.10), while scaled by the interpreter reference 0.06-0.08.
IN_PROCESS = Reference(fractions_s, 1e-3)
FRESH_INTERPRETER = Reference(interpreter_s, 0.1)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The CPUs of a shared host change speed independently of each other, so the
    reference time says how fast the workload ran only when both ran on the
    same CPU; a CLI child inherits the pin and runs where its references ran.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Phase:
    """Latencies and outcomes of one closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []  # wall time of each operation
        self.scaled: list[float] = []  # the same, at the reference speed
        self.refs: list[float] = []  # reference times taken between the operations
        self.reference = IN_PROCESS
        self.entries: list[int] = []  # pool entry of each operation
        self.failed = 0
        self.skipped = 0
        self.elapsed = 0.0


def timed_phase(wl, seconds: float, count: int | None = None, tracer=None) -> Phase:
    """Run operations 0, 1, ... until `seconds` pass or `count` operations are done."""
    from bvreduce.errors import NotGenericAtWeight

    # Set-up objects (inputs, expected answers, warm caches) are frozen out of
    # the collector: a full collection that falls in the timed phase would
    # otherwise scan all of them, which swung one hbar operation's time by
    # +-30% on a 2-vCPU VM.
    gc.collect()
    gc.freeze()
    ref = FRESH_INTERPRETER if wl.runs_children else IN_PROCESS
    phase = Phase()
    phase.reference = ref
    before = ref.measure()
    phase.refs.append(before)
    try:
        start = perf_counter()
        i = 0
        while (count is None or i < count) and (i == 0 or perf_counter() - start < seconds):
            if tracer is not None:
                tracer.op_id = i
            t0 = perf_counter()
            ok = True
            try:
                answer = wl.run_op(i)
            except NotGenericAtWeight:
                # the documented rejection of a non-generic action: not a failure
                phase.skipped += 1
                answer = None
            except Exception:
                ok = False
                if phase.failed == 0:
                    traceback.print_exc(file=sys.stderr)
            latency = perf_counter() - t0
            phase.latencies.append(latency)
            phase.entries.append(i % len(wl.inputs))
            if ok and answer is not None and not wl.check(i, answer):
                ok = False
            if not ok:
                phase.failed += 1
            after = ref.measure()
            phase.refs.append(after)
            phase.scaled.append(ref.scale(latency, before, after))
            before = after
            i += 1
    finally:
        gc.unfreeze()
    phase.elapsed = perf_counter() - start
    return phase


def p90(sorted_values: list[float]) -> float:
    """The 90th percentile, interpolated linearly between the two nearest values.

    With few pool entries the nearest-rank value is the slowest entry alone,
    and the noise of its few repeats; interpolation weighs in its neighbour.
    """
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[8]


def entry_latencies(phase: Phase) -> list[tuple[float, int]]:
    """(median latency, sample count) of every pool entry the phase ran, fastest first.

    A run cycles through a fixed pool, so every entry is an equal share of the
    operation mix; its median over the run's repeats stands for its latency.
    The latencies of different entries lie in clusters with gaps between them,
    and the speed of a shared host drifts by tens of percent within seconds,
    so a percentile taken over single operations jumps between neighbouring
    entries from run to run.  Taken over the entries' medians it stays on the
    same entry, and the median of that entry's repeats averages the drift.
    """
    by_entry: dict[int, list[float]] = {}
    for entry, latency in zip(phase.entries, phase.scaled):
        by_entry.setdefault(entry, []).append(latency)
    return sorted((statistics.median(v), len(v)) for v in by_entry.values())


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def child_import_s() -> float:
    """Wall time of ``import bvreduce`` in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import bvreduce; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_untraced(workloads, args, workdir: Path, import_s: float):
    """`import_s` is this process's own import time, already at the reference speed."""
    def set_up():
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        return wl

    # each set-up pays for an import: this process's own, then fresh interpreters'
    setups = []
    for r in range(SETUP_REPEATS):
        wl, took = IN_PROCESS.time(set_up)
        setups.append(took + (import_s if r == 0 else FRESH_INTERPRETER.report(child_import_s)))
        if len(setups) < SETUP_REPEATS:
            wl.close()
    try:
        phase = timed_phase(wl, args.seconds)
    finally:
        wl.close()
    n = len(phase.latencies)
    entries = entry_latencies(phase)
    medians = [m for m, _ in entries]
    metrics = {
        "ops_per_s": n / sum(phase.scaled),
        "op_p50_ms": statistics.median(medians) * 1000,
        "op_p90_ms": p90(medians) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    beyond = sum(c for m, c in entries if m > metrics["op_p90_ms"] / 1000)
    print(f"workload {args.workload}: {n} operations on {len(entries)} pool entries in {phase.elapsed:.3f} s, "
          f"{phase.skipped} non-generic rejections, {phase.failed} failed")
    print(f"  wall clock: {n / sum(phase.latencies):.6g} ops/s of operation time, "
          f"operation p50 {statistics.median(phase.latencies) * 1000:.6g} ms; reference computation "
          f"{statistics.median(phase.refs) * 1000:.4g} ms (median), "
          f"{phase.reference.nominal * 1000:g} ms at the reference speed")
    print("  times below are at the reference speed; op_p50_ms and op_p90_ms are percentiles "
          "over the pool entries' median latencies")
    print(f"  error_rate = {phase.failed / n:.6g} ratio (failed / attempted)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  op_p90_ms has {beyond} samples beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: read it as the tail, not a p90)"))
    print(f"  setup_s = median of {SETUP_REPEATS} set-ups with import {[round(s, 4) for s in setups]}")
    return phase, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(workloads, tracing, args, workdir: Path):
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, workdir)
    wl.setup()
    try:
        plain = timed_phase(wl, args.seconds / 2)
    finally:
        wl.close()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        wl = cls(args.seed, workdir)
        wl.setup()
        wl.tracer = tracer
        tracer.reset()
        traced = timed_phase(wl, TRACED_TIME_CAP * args.seconds, count=len(plain.latencies), tracer=tracer)
    finally:
        inst.restore()
        wl.close()
    done = len(traced.latencies)
    overhead = sum(traced.scaled) / sum(plain.scaled[:done])
    values = tracing.layer_metrics(tracer)
    values["trace.overhead"] = overhead
    required = REQUIRED_HOOKS.get(args.workload)
    if required and required not in tracer.missing and not values.get(required):
        raise SystemExit(f"error: hook {required} never fired on {args.workload}")

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    table = tracing.span_table(tracer.spans)
    trace_path.write_text(json.dumps({"spans": tracer.spans, "span_table": table}))

    print(f"workload {args.workload} traced: {done} of {len(plain.latencies)} operations, "
          f"overhead {overhead:.3f}x (untraced ops_per_s / traced ops_per_s)")
    for name, row in sorted(table.items()):
        print(f"  span {name}: {row['calls']} calls, {row['total_s']:.4f} s, self {row['self_s']:.4f} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {tracing.UNITS[name]}")
    if tracer.missing:
        print(f"  missing (hook target not found): {sorted(tracer.missing)}")
    print(f"  spans written to {trace_path.relative_to(ROOT)}")
    phase = Phase()
    phase.latencies = plain.latencies + traced.latencies
    phase.scaled = plain.scaled + traced.scaled
    phase.entries = plain.entries + traced.entries
    phase.failed = plain.failed + traced.failed
    return phase, {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    IN_PROCESS.measure()  # warm-up
    import_s = FRESH_INTERPRETER.report(import_engine)
    # both import bvreduce, so they load only once src/ is on the path
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.trace:
        phase, metrics = run_traced(workloads, tracing, args, workdir)
    else:
        phase, metrics = run_untraced(workloads, args, workdir, import_s)
    attempted = len(phase.latencies)
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
