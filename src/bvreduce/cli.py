"""Batch front-end: JSON problems in, JSON results out, meaningful exit codes.

Exit codes: 0 success, 2 not generic / not allowable / degenerate quadratic
form, 3 invalid input, 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .bvdiff import Action, action_build
from .errors import (
    EngineError,
    InputError,
    NonDiagonalizableAction,
    NotAllowable,
    NotGenericAtWeight,
    SingularMatrix,
    ToleranceNotReached,
    read_json,
)
from .hpl import MAX_OBSERVABLE_WEIGHT, MAX_SLICE_ROWS, slice_rows
from .reduce import JacClass, jac_basis, session_for, wick
from .scalars import Scalar, q
from .superpoly import SuperPoly, add_term

# hbar, oracle and verify are imported by the subcommands that run them: a
# one-shot `reduce` process neither loads nor compiles them

EXIT_OK = 0
EXIT_NOT_GENERIC = 2
EXIT_INVALID = 3
EXIT_VERIFY_FAILED = 4


# -- JSON (de)serialization ---------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer: `true` and `false` load as Python bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar_from_json(obj) -> Scalar:
    if not isinstance(obj, dict):
        raise InputError(f"expected a scalar object, got {obj!r}")
    def pair(name):
        p = obj.get(name, [0, 1])
        if (
            not isinstance(p, (list, tuple))
            or len(p) != 2
            or not all(map(_is_int, p))
        ):
            raise InputError(f"{name} must be an integer [numerator, denominator] pair")
        if p[1] == 0:
            raise InputError(f"zero denominator in {name}")
        return q(p[0], p[1])

    return Scalar(pair("re"), pair("im"))


def _scalar_to_json(s: Scalar) -> dict:
    re, im = s.re, s.im
    return {"re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator]}


def _poly_from_json(n: int, terms) -> SuperPoly:
    if not isinstance(terms, list):
        raise InputError("polynomial must be a list of terms")
    out = {}
    for t in terms:
        if not isinstance(t, dict) or "exp" not in t:
            raise InputError(f"bad term {t!r}")
        e = t["exp"]
        if (
            not isinstance(e, list)
            or len(e) != n
            or not all(_is_int(x) and x >= 0 for x in e)
        ):
            raise InputError(f"exponent list {e!r} must hold {n} non-negative integers")
        c = _scalar_from_json(t)
        if c:
            add_term(out, (tuple(e), 0), c)
    return SuperPoly._wrap(n, out)


def _load_problem(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict) or "n" not in data:
        raise InputError("problem file must be an object with an 'n' field")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise InputError("'n' must be a positive integer")
    problem = {"n": n}
    if "action" in data:
        problem["action"] = _poly_from_json(n, data["action"])
    if "observable" in data:
        problem["observable"] = _poly_from_json(n, data["observable"])
    if "hbar" in data:
        h = data["hbar"]
        if not isinstance(h, dict) or "a" not in h:
            raise InputError("'hbar' must be an object with an 'a' matrix")
        a = h["a"]
        if not isinstance(a, list) or len(a) != n:
            raise InputError("'a' must be an n x n matrix")
        rows = []
        for row in a:
            if not isinstance(row, list) or len(row) != n:
                raise InputError("'a' must be an n x n matrix")
            rows.append([_scalar_from_json(v) for v in row])
        raw_vertices = {} if h.get("vertices") is None else h["vertices"]
        if not isinstance(raw_vertices, dict):
            raise InputError("'vertices' must be an object mapping degrees to polynomials")
        K = h.get("K")
        if K is not None and (not _is_int(K) or K < 0):
            raise InputError("'K' must be a non-negative integer")
        from . import hbar

        vertices = {deg: _poly_from_json(n, terms) for deg, terms in hbar.vertex_degrees(raw_vertices).items()}
        problem["hbar"] = {"a": rows, "vertices": vertices, "K": K}
    if "contour" in data:
        if not isinstance(data["contour"], str):
            raise InputError("'contour' must be a file path")
        problem["contour"] = data["contour"]
    return problem


def _require_action(problem: dict) -> Action:
    if "action" not in problem:
        raise InputError("problem file is missing 'action'")
    return action_build(problem["action"])


def _require_observable(problem: dict) -> SuperPoly:
    if "observable" not in problem:
        raise InputError("problem file is missing 'observable'")
    return problem["observable"]


def _write_json(path: str | None, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def result_to_json(action: Action, jc: JacClass, diagnostics: dict) -> dict:
    return {
        "n": action.n,
        "d": action.d,
        "basis": [list(m) for m in jc.basis.monomials],
        "coefficients": [_scalar_to_json(c) for c in jc.vector()],
        "diagnostics": diagnostics,
    }


# -- subcommands -----------------------------------------------------------------


def cmd_reduce(args) -> int:
    problem = _load_problem(args.input)
    action = _require_action(problem)
    f = _require_observable(problem)
    t0 = time.perf_counter()
    session = session_for(action)
    jc = session.reduce(f)
    elapsed = time.perf_counter() - t0
    diagnostics = {
        "genericity": "ok",
        "weights_solved": session.solved_weights(),
        "seconds": round(elapsed, 6),
    }
    _write_json(args.output, result_to_json(action, jc, diagnostics))
    return EXIT_OK


def cmd_wick(args) -> int:
    problem = _load_problem(args.input)
    action = _require_action(problem)
    f = _require_observable(problem)
    value = wick(action, f)
    _write_json(args.output, {"n": action.n, "value": _scalar_to_json(value)})
    return EXIT_OK


def cmd_basis(args) -> int:
    basis = jac_basis(args.n, args.d)
    _write_json(args.output, {
        "n": args.n,
        "d": args.d,
        "size": len(basis),
        "basis": [list(m) for m in basis.monomials],
    })
    return EXIT_OK


def cmd_hbar(args) -> int:
    from . import hbar

    problem = _load_problem(args.input)
    if "hbar" not in problem:
        raise InputError("problem file is missing the 'hbar' section")
    f = _require_observable(problem)
    spec = problem["hbar"]
    order = args.order if args.order is not None else spec.get("K")
    if order is None:
        raise InputError("truncation order missing: pass -K or set hbar.K")
    model = hbar.HbarModel(problem["n"], spec["a"], spec["vertices"])
    series = hbar.hbar_reduce(f, model, order)
    _write_json(args.output, {
        "n": problem["n"],
        "K": order,
        "series": [_scalar_to_json(c) for c in series.scalars()],
    })
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be a finite positive number, got {args.tol}")
    problem = _load_problem(args.input)
    action = _require_action(problem)
    f = _require_observable(problem)
    contour_path = args.contour or problem.get("contour")
    contours = oracle.load_contours(contour_path) if contour_path else None
    report = oracle.verify_reduction(action, f, contours=contours, tol=args.tol)
    payload = {
        "tol": args.tol,
        "coefficients": [_scalar_to_json(c) for c in report.coefficients],
        "contours": [
            {
                "residual": c.residual,
                "bound": c.bound,
                "passed": c.passed,
                "value_f": [c.value_f.real, c.value_f.imag],
                "values_basis": [[v.real, v.imag] for v in c.values_basis],
            }
            for c in report.checks
        ],
        "passed": report.passed,
    }
    _write_json(args.output, payload)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    from . import verify

    if args.n < 1 or args.d < 2:
        raise InputError(f"verify needs --n >= 1 and --d >= 2, got n={args.n}, d={args.d}")
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    if args.maxdeg < args.d - 1:
        # the lightest degree-1 element, xi_i, already has weight d - 1
        raise InputError(f"--maxdeg must be at least d - 1 = {args.d - 1}, got {args.maxdeg}")
    # the heaviest input the suites sweep: a boundary source, or a section suite basis monomial
    w = max(args.maxdeg, args.n * (args.d - 2))
    if w > MAX_OBSERVABLE_WEIGHT:
        raise InputError(f"verify would sweep weight {w}, over the budget of {MAX_OBSERVABLE_WEIGHT}")
    k = slice_rows(args.n, args.d, 0, w)
    if k > MAX_SLICE_ROWS:
        raise InputError(f"verify would reach a slice of {k} rows at weight {w}, over the budget of {MAX_SLICE_ROWS}")
    print(f"verify: trials={args.trials} seed={args.seed} n<={args.n} d<={args.d} maxdeg={args.maxdeg}")
    if args.trials == 0:
        print("verify: 0 checks run (trials=0)")
        return EXIT_OK
    reports = verify.run_all(args.trials, args.seed, args.n, args.d, args.maxdeg)
    failed = False
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        skipped = f"{r.skipped} skipped, " if r.skipped else ""
        print(f"verify[{r.name}]: {r.checks} checks, {skipped}{len(r.failures)} failures ... {status}")
        for f in r.failures:
            failed = True
            print("counterexample: " + json.dumps(f, sort_keys=True))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bvreduce",
        description="Exact homology classes of polynomial observables, hbar expansions, and numeric contour checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="reduce an observable to its class over the monomial basis")
    pr.add_argument("input")
    pr.add_argument("-o", "--output", default=None)
    pr.set_defaults(fn=cmd_reduce)

    pw = sub.add_parser("wick", help="closed-form class for a quadratic action")
    pw.add_argument("input")
    pw.add_argument("-o", "--output", default=None)
    pw.set_defaults(fn=cmd_wick)

    pb = sub.add_parser("basis", help="print the monomial basis for given n, d")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--d", type=int, required=True)
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(fn=cmd_basis)

    ph = sub.add_parser("hbar", help="truncated hbar expansion of an observable")
    ph.add_argument("input")
    ph.add_argument("-K", "--order", type=int, default=None)
    ph.add_argument("-o", "--output", default=None)
    ph.set_defaults(fn=cmd_hbar)

    po = sub.add_parser("oracle", help="numeric contour check of a reduction (n = 1)")
    po.add_argument("input")
    po.add_argument("--contour", default=None, help="JSON contour file; default contours otherwise")
    po.add_argument("--tol", type=float, default=1e-6)
    po.add_argument("-o", "--output", default=None)
    po.set_defaults(fn=cmd_oracle)

    pv = sub.add_parser("verify", help="run the randomized invariant suites")
    pv.add_argument("--n", type=int, default=3, help="largest variable count drawn")
    pv.add_argument("--d", type=int, default=4, help="largest degree drawn")
    pv.add_argument("--maxdeg", type=int, default=8, help="largest weight of random boundaries")
    pv.add_argument("--trials", type=int, default=50)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotGenericAtWeight as exc:
        print(f"error: {exc} (weight {exc.weight})", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except (NonDiagonalizableAction, NotAllowable, SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except ToleranceNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
