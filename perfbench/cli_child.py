"""Traced stand-in for ``python -m bvreduce.cli``, used by the traced cli-oneshot run.

    python3 perfbench/cli_child.py TRACE_OUT.json <bvreduce cli arguments>

Records ``import bvreduce.cli`` as a span, installs the per-layer hooks, runs
the CLI's ``main`` with the given arguments in a span, writes the trace
summary to TRACE_OUT.json and exits with the CLI's exit code.  ``bvreduce``
must be importable: the parent sets PYTHONPATH to the checkout's ``src``.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import bvreduce.cli as cli

    t1 = perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", t0, t1, None, None])
    inst = tracing.install(tracer)
    try:
        code = tracer.span("cli.main", cli.main)(argv)
    finally:
        inst.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
