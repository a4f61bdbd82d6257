"""Per-layer tracing by wrapping ``bvreduce`` functions at run time.

Nothing in ``bvreduce`` knows about this module.  ``install`` replaces each
hooked function or method with a wrapper, at its home and at every other name
that holds the same object: ``invert`` is imported separately into ``hpl``,
``reduce``, ``hbar`` and ``verify``, and ``Scalar.__radd__`` is an alias of
``__add__``.  Values that callers capture when they are built (``reduce``
stores ``d_div`` in each session, ``perturb_retraction`` binds
``SliceSolver.apply``) only see the wrappers if they are built after
``install``, so the benchmark repeats its set-up once the hooks are in.

Coarse boundaries are recorded as spans ``[name, start, end, parent, op id]``
kept in memory.  Hot leaf functions (Scalar and SuperPoly arithmetic,
``_contract``, ``d_div``, ``eta_diag``, ``hbar_eta``) only add to counters and
timers; a leaf called from another leaf of its own group (``__rsub__`` calling
``__sub__``) is counted once.  A hook whose target no longer exists is
skipped and the metrics it feeds are reported as missing.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.slice_sizes: list[int] = []
        self.missing: set[str] = set()
        self.op_id = None
        self._active: dict[str, bool] = defaultdict(bool)

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these containers
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.times.clear()
        self.slice_sizes.clear()
        self.op_id = None

    def add_time(self, name: str, seconds: float) -> None:
        self.times[name] += seconds

    def summary(self) -> dict:
        return {
            "counts": dict(self.counts),
            "times": dict(self.times),
            "slice_sizes": self.slice_sizes,
            "spans": self.spans,
        }

    def merge(self, summary: dict) -> None:
        """Fold a child process's ``summary()`` into this trace, under the current operation."""
        for k, v in summary["counts"].items():
            self.counts[k] += v
        for k, v in summary["times"].items():
            self.times[k] += v
        self.slice_sizes.extend(summary["slice_sizes"])
        base = len(self.spans)
        for name, t0, t1, parent, _ in summary["spans"]:
            self.spans.append([name, t0, t1, None if parent is None else parent + base, self.op_id])

    # -- wrappers --------------------------------------------------------------------

    def span(self, name: str, fn: Callable, before=None, on_error=None) -> Callable:
        """Record a span around fn; before(tracer, args) runs first, on_error maps exception types to counters."""
        spans, stack, counts = self.spans, self.stack, self.counts
        errors = tuple((on_error or {}).items())

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            rec = [name, 0.0, None, stack[-1] if stack else None, self.op_id]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                for etype, counter in errors:
                    if isinstance(exc, etype):
                        counts[counter] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, group: str, counter: str, fn: Callable, extra=None) -> Callable:
        """Count and time fn under group; extra(args) yields further (counter, amount) pairs."""
        active, counts, times = self._active, self.counts, self.times

        def wrapper(*args, **kwargs):
            if active[group]:
                return fn(*args, **kwargs)
            active[group] = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[group] += perf_counter() - t0
                active[group] = False
                counts[counter] += 1
                if extra is not None:
                    for k, v in extra(args):
                        counts[k] += v

        wrapper.__wrapped__ = fn
        return wrapper

    def open_span_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


# -- the hooks ---------------------------------------------------------------------------


def _record_slice_size(tracer: Tracer, args) -> None:
    if tracer.open_span_name() == "hpl.slice_build":
        tracer.slice_sizes.append(len(args[0]))


def _slice_hook(tracer: Tracer, fn: Callable) -> Callable:
    """SliceSolver._slice: a lookup is a hit when its (h, w) key is already cached."""
    build = tracer.span("hpl.slice_build", fn)
    counts = tracer.counts

    def wrapper(self, h, w):
        cache = getattr(self, "_cache", None)
        if not isinstance(cache, dict):
            tracer.missing.update(("hpl.slices_built", "hpl.slice_hit_ratio", "hpl.slice_assembly_s"))
            return fn(self, h, w)
        counts["hpl.slice_lookups"] += 1
        if (h, w) in cache:
            counts["hpl.slice_hits"] += 1
            return fn(self, h, w)
        counts["hpl.slices_built"] += 1
        return build(self, h, w)

    wrapper.__wrapped__ = fn
    return wrapper


def _mul_pairs(args):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        yield "superpoly.mul_term_pairs", len(a.terms) * len(b.terms)


def _nongeneric():
    from bvreduce.errors import NotGenericAtWeight

    return {NotGenericAtWeight: "reduce.nongeneric_skips"}


@dataclass(frozen=True)
class Hook:
    module: str
    target: str  # "name" or "Class.method"
    metrics: tuple[str, ...]  # reported missing when the target is gone
    make: Callable[[Tracer, Callable], Callable]


def _span(name, **kw):
    return lambda t, fn: t.span(name, fn, **kw)


def _leaf(group, counter, **kw):
    return lambda t, fn: t.leaf(group, counter, fn, **kw)


_SCALAR_ADD = ("scalars.add_calls", "scalars.arith_s")
_SCALAR_MUL = ("scalars.mul_calls", "scalars.arith_s")
_SCALAR_DIV = ("scalars.div_calls", "scalars.arith_s")
_SP_ADD = ("superpoly.add_s",)
_SP_DERIV = ("superpoly.dxi_dx_s",)

HOOKS = (
    Hook("bvreduce.linalg", "invert",
         ("linalg.invert_calls", "linalg.invert_s", "linalg.slice_k_max", "linalg.slice_k3_sum"),
         _span("linalg.invert", before=_record_slice_size)),
    Hook("bvreduce.linalg", "solve_square", ("linalg.backsub_s",), _span("linalg.solve_square")),
    Hook("bvreduce.linalg", "_forward_eliminate", ("linalg.forward_s", "linalg.backsub_s"), _span("linalg.forward")),
    Hook("bvreduce.hpl", "SliceSolver._slice",
         ("hpl.slices_built", "hpl.slice_assembly_s", "hpl.slice_hit_ratio"), _slice_hook),
    Hook("bvreduce.hpl", "SliceSolver.apply", ("hpl.apply_calls", "hpl.apply_s"), _span("hpl.apply")),
    Hook("bvreduce.hpl", "neumann_apply", ("hpl.neumann_calls", "hpl.neumann_s"), _span("hpl.neumann")),
    Hook("bvreduce.reduce", "ReduceSession.reduce",
         ("reduce.reduce_calls", "reduce.reduce_s", "reduce.nongeneric_skips"),
         lambda t, fn: t.span("reduce.reduce", fn, on_error=_nongeneric())),
    Hook("bvreduce.reduce", "eta_diag", ("reduce.eta_diag_calls", "reduce.eta_diag_s"),
         _leaf("reduce.eta_diag", "reduce.eta_diag_calls")),
    Hook("bvreduce.bvdiff", "_contract", ("bvdiff.contract_calls", "bvdiff.contract_s"),
         _leaf("bvdiff.contract", "bvdiff.contract_calls")),
    Hook("bvreduce.bvdiff", "d_div", ("bvdiff.d_div_s",), _leaf("bvdiff.d_div", "bvdiff.d_div_calls")),
    Hook("bvreduce.superpoly", "SuperPoly.__mul__",
         ("superpoly.mul_calls", "superpoly.mul_term_pairs", "superpoly.mul_s"),
         _leaf("superpoly.mul", "superpoly.mul_calls", extra=_mul_pairs)),
    Hook("bvreduce.superpoly", "SuperPoly.__add__", _SP_ADD, _leaf("superpoly.add", "superpoly.add_calls")),
    Hook("bvreduce.superpoly", "SuperPoly.__sub__", _SP_ADD, _leaf("superpoly.add", "superpoly.add_calls")),
    Hook("bvreduce.superpoly", "SuperPoly.__rsub__", _SP_ADD, _leaf("superpoly.add", "superpoly.add_calls")),
    Hook("bvreduce.superpoly", "SuperPoly.dx", _SP_DERIV, _leaf("superpoly.dxi_dx", "superpoly.dxi_dx_calls")),
    Hook("bvreduce.superpoly", "SuperPoly.dxi", _SP_DERIV, _leaf("superpoly.dxi_dx", "superpoly.dxi_dx_calls")),
    Hook("bvreduce.scalars", "Scalar.__add__", _SCALAR_ADD, _leaf("scalars", "scalars.add_calls")),
    Hook("bvreduce.scalars", "Scalar.__sub__", _SCALAR_ADD, _leaf("scalars", "scalars.add_calls")),
    Hook("bvreduce.scalars", "Scalar.__rsub__", _SCALAR_ADD, _leaf("scalars", "scalars.add_calls")),
    Hook("bvreduce.scalars", "Scalar.__mul__", _SCALAR_MUL, _leaf("scalars", "scalars.mul_calls")),
    Hook("bvreduce.scalars", "Scalar.__truediv__", _SCALAR_DIV, _leaf("scalars", "scalars.div_calls")),
    Hook("bvreduce.scalars", "Scalar.__rtruediv__", _SCALAR_DIV, _leaf("scalars", "scalars.div_calls")),
    Hook("bvreduce.hbar", "hbar_reduce", ("hbar.reduce_s",), _span("hbar.reduce")),
    Hook("bvreduce.hbar", "hbar_eta", ("hbar.eta_calls", "hbar.eta_s"), _leaf("hbar.eta", "hbar.eta_calls")),
    Hook("bvreduce.oracle", "contour_integrate",
         ("oracle.contour_integrate_calls", "oracle.contour_integrate_s"), _span("oracle.contour_integrate")),
    Hook("bvreduce.oracle", "quad", ("oracle.quad_calls",), _leaf("oracle.quad", "oracle.quad_calls")),
    Hook("bvreduce.cli", "_load_problem", ("cli.load_problem_s",), _span("cli.load_problem")),
    Hook("bvreduce.cli", "_write_json", ("cli.write_json_s",), _span("cli.write_json")),
)


@dataclass
class Installation:
    patches: list  # (owner, name, original)

    def restore(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _engine_modules():
    return [m for k, m in list(sys.modules.items()) if m and (k == "bvreduce" or k.startswith("bvreduce."))]


def install(tracer: Tracer, hooks=HOOKS) -> Installation:
    """Wrap every hook target wherever it is bound; raise if a binding cannot be replaced."""
    inst = Installation([])
    for hook in hooks:
        try:
            owner = importlib.import_module(hook.module)
            *path, attr = hook.target.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.update(hook.metrics)
            continue
        wrapper = hook.make(tracer, original)
        if isinstance(owner, type):
            places = [(owner, k) for k, v in list(vars(owner).items()) if v is original]
        else:
            places = [(m, k) for m in _engine_modules() for k, v in list(vars(m).items()) if v is original]
        for obj, name in places:
            setattr(obj, name, wrapper)
            inst.patches.append((obj, name, original))
            if vars(obj).get(name) is not wrapper:
                inst.restore()
                raise RuntimeError(f"could not hook {hook.module}.{hook.target} at {obj!r}.{name}")
    return inst


# -- per-layer metrics ---------------------------------------------------------------------

UNITS = {
    "linalg.invert_calls": "count",
    "linalg.invert_s": "s",
    "linalg.forward_s": "s",
    "linalg.backsub_s": "s",
    "linalg.slice_k_max": "rows",
    "linalg.slice_k3_sum": "count",
    "hpl.slices_built": "count",
    "hpl.slice_assembly_s": "s",
    "hpl.slice_hit_ratio": "ratio",
    "hpl.apply_calls": "count",
    "hpl.apply_s": "s",
    "hpl.neumann_calls": "count",
    "hpl.neumann_s": "s",
    "reduce.reduce_calls": "count",
    "reduce.reduce_s": "s",
    "reduce.eta_diag_calls": "count",
    "reduce.eta_diag_s": "s",
    "reduce.nongeneric_skips": "count",
    "bvdiff.contract_calls": "count",
    "bvdiff.contract_s": "s",
    "bvdiff.d_div_s": "s",
    "superpoly.mul_calls": "count",
    "superpoly.mul_term_pairs": "count",
    "superpoly.mul_s": "s",
    "superpoly.add_s": "s",
    "superpoly.dxi_dx_s": "s",
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.div_calls": "count",
    "scalars.arith_s": "s",
    "hbar.reduce_s": "s",
    "hbar.eta_calls": "count",
    "hbar.eta_s": "s",
    "oracle.contour_integrate_calls": "count",
    "oracle.contour_integrate_s": "s",
    "oracle.quad_calls": "count",
    "cli.import_s": "s",
    "cli.load_problem_s": "s",
    "cli.write_json_s": "s",
    "cli.child_wall_s": "s",
    "trace.overhead": "ratio",
}


def span_table(spans: list) -> dict[str, dict]:
    """Per span name: calls, outermost time (nested same-name spans not counted twice) and self time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    table: dict[str, dict] = {}
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child[idx]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row["total_s"] += t1 - t0
    return table


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead, minus those whose hooks are missing."""
    table = span_table(tracer.spans)
    c, t = tracer.counts, tracer.times

    def span(name, key):
        return table.get(name, {}).get(key, 0)

    ks = tracer.slice_sizes
    lookups = c.get("hpl.slice_lookups", 0)
    values = {
        "linalg.invert_calls": span("linalg.invert", "calls"),
        "linalg.invert_s": span("linalg.invert", "total_s"),
        "linalg.forward_s": span("linalg.forward", "total_s"),
        "linalg.backsub_s": span("linalg.solve_square", "self_s"),
        "linalg.slice_k_max": max(ks, default=0),
        "linalg.slice_k3_sum": sum(k**3 for k in ks),
        "hpl.slices_built": c.get("hpl.slices_built", 0),
        "hpl.slice_assembly_s": span("hpl.slice_build", "self_s"),
        # no lookups at all reads 0
        "hpl.slice_hit_ratio": c.get("hpl.slice_hits", 0) / lookups if lookups else 0.0,
        "hpl.apply_calls": span("hpl.apply", "calls"),
        "hpl.apply_s": span("hpl.apply", "total_s"),
        "hpl.neumann_calls": span("hpl.neumann", "calls"),
        "hpl.neumann_s": span("hpl.neumann", "total_s"),
        "reduce.reduce_calls": span("reduce.reduce", "calls"),
        "reduce.reduce_s": span("reduce.reduce", "total_s"),
        "reduce.eta_diag_calls": c.get("reduce.eta_diag_calls", 0),
        "reduce.eta_diag_s": t.get("reduce.eta_diag", 0.0),
        "reduce.nongeneric_skips": c.get("reduce.nongeneric_skips", 0),
        "bvdiff.contract_calls": c.get("bvdiff.contract_calls", 0),
        "bvdiff.contract_s": t.get("bvdiff.contract", 0.0),
        "bvdiff.d_div_s": t.get("bvdiff.d_div", 0.0),
        "superpoly.mul_calls": c.get("superpoly.mul_calls", 0),
        "superpoly.mul_term_pairs": c.get("superpoly.mul_term_pairs", 0),
        "superpoly.mul_s": t.get("superpoly.mul", 0.0),
        "superpoly.add_s": t.get("superpoly.add", 0.0),
        "superpoly.dxi_dx_s": t.get("superpoly.dxi_dx", 0.0),
        "scalars.mul_calls": c.get("scalars.mul_calls", 0),
        "scalars.add_calls": c.get("scalars.add_calls", 0),
        "scalars.div_calls": c.get("scalars.div_calls", 0),
        "scalars.arith_s": t.get("scalars", 0.0),
        "hbar.reduce_s": span("hbar.reduce", "total_s"),
        "hbar.eta_calls": c.get("hbar.eta_calls", 0),
        "hbar.eta_s": t.get("hbar.eta", 0.0),
        "oracle.contour_integrate_calls": span("oracle.contour_integrate", "calls"),
        "oracle.contour_integrate_s": span("oracle.contour_integrate", "total_s"),
        "oracle.quad_calls": c.get("oracle.quad_calls", 0),
        "cli.import_s": span("cli.import", "total_s"),
        "cli.load_problem_s": span("cli.load_problem", "total_s"),
        "cli.write_json_s": span("cli.write_json", "total_s"),
        "cli.child_wall_s": t.get("cli.child_wall", 0.0),
    }
    return {k: v for k, v in values.items() if k not in tracer.missing}
