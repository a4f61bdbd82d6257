import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bvreduce
import bvreduce.verify as verify_mod
from bvreduce.cli import EXIT_INVALID, EXIT_NOT_GENERIC, EXIT_OK, EXIT_VERIFY_FAILED, main, result_from_json


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def term(exp, re, im=(0, 1)):
    return {"exp": list(exp), "re": list(re), "im": list(im)}


CUBIC_PROBLEM = {
    "n": 1,
    "action": [term((3,), (1, 1))],
    "observable": [term((3,), (1, 1))],
}


def test_reduce_cubic(tmp_path, capsys):
    inp = write(tmp_path / "p.json", CUBIC_PROBLEM)
    out = tmp_path / "r.json"
    assert main(["reduce", inp, "-o", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["basis"] == [[0], [1]]
    assert data["coefficients"] == [
        {"im": [0, 1], "re": [-1, 3]},
        {"im": [0, 1], "re": [0, 1]},
    ]
    assert data["diagnostics"]["genericity"] == "ok"


@pytest.mark.parametrize(
    "action", [[term((3,), (1, 1))], [term((3,), (1, 3)), term((2,), (1, 2)), term((1,), (-1, 1))]]
)
def test_reduce_without_mix_solves_no_slice(tmp_path, monkeypatch, action):
    # with no mixed top part the one perturbation strictly drops weight: the sweep factors nothing
    import bvreduce.hpl as hpl

    calls = []
    monkeypatch.setattr(hpl, "invert", lambda mat: calls.append(mat))
    out = tmp_path / "r.json"
    problem = {"n": 1, "action": action, "observable": [term((7,), (1, 1)), term((4,), (2, 3))]}
    assert main(["reduce", write(tmp_path / "p.json", problem), "-o", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["diagnostics"]["weights_solved"] == []
    assert calls == []


def test_reduce_round_trip_byte_stable(tmp_path):
    inp = write(tmp_path / "p.json", CUBIC_PROBLEM)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["reduce", inp, "-o", str(out1)]) == EXIT_OK
    data = json.loads(out1.read_text())
    jc = result_from_json(data)
    from bvreduce import JacClass, Scalar, jac_basis, q

    assert jc == JacClass(jac_basis(1, 3), {(0,): Scalar(q(-1, 3))})
    # byte-stability: a second run serializes identically
    assert main(["reduce", inp, "-o", str(out2)]) == EXIT_OK
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    # timing differs; everything else must be byte-identical
    d1, d2 = json.loads(b1), json.loads(b2)
    d1["diagnostics"].pop("seconds")
    d2["diagnostics"].pop("seconds")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_reduce_failure_quartic_exit_2(tmp_path, capsys):
    problem = {
        "n": 2,
        "action": [
            term((4, 0), (1, 1)),
            term((3, 1), (2, 1)),
            term((1, 3), (2, 1)),
            term((0, 4), (1, 1)),
        ],
        "observable": [term((2, 2), (1, 1))],
    }
    inp = write(tmp_path / "p.json", problem)
    assert main(["reduce", inp, "-o", "-"]) == EXIT_NOT_GENERIC
    err = capsys.readouterr().err
    assert "weight 4" in err


def test_malformed_json_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["reduce", str(bad)]) == EXIT_INVALID


def test_schema_violations_exit_3(tmp_path):
    cases = [
        {"action": [term((3,), (1, 1))]},  # missing n
        {"n": 1, "observable": [term((3,), (1, 1))]},  # missing action
        {"n": 1, "action": [term((3,), (1, 0))], "observable": []},  # zero denominator
        {"n": 2, "action": [term((3,), (1, 1))], "observable": []},  # exp length mismatch
    ]
    for i, p in enumerate(cases):
        inp = write(tmp_path / f"c{i}.json", p)
        assert main(["reduce", inp]) == EXIT_INVALID, p


def test_wick_command(tmp_path):
    problem = {
        "n": 1,
        "action": [term((2,), (-1, 2))],
        "observable": [term((4,), (1, 1))],
    }
    inp = write(tmp_path / "p.json", problem)
    out = tmp_path / "w.json"
    assert main(["wick", inp, "-o", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["value"] == {"re": [3, 1], "im": [0, 1]}


def test_wick_singular_exit_2(tmp_path):
    problem = {
        "n": 2,
        "action": [term((2, 0), (1, 2)), term((1, 1), (1, 1)), term((0, 2), (1, 2))],
        "observable": [term((0, 0), (1, 1))],
    }
    inp = write(tmp_path / "p.json", problem)
    assert main(["wick", inp]) == EXIT_NOT_GENERIC


def test_basis_command(tmp_path):
    out = tmp_path / "b.json"
    assert main(["basis", "--n", "2", "--d", "3", "-o", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["size"] == 4
    assert data["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_hbar_command(tmp_path):
    problem = {
        "n": 1,
        "observable": [term((1,), (1, 1))],
        "hbar": {
            "K": 2,
            "a": [[{"re": [1, 1]}]],
            "vertices": {"3": [term((3,), (1, 6))]},
        },
    }
    inp = write(tmp_path / "p.json", problem)
    out = tmp_path / "h.json"
    assert main(["hbar", inp, "-K", "2", "-o", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["series"][0] == {"re": [0, 1], "im": [0, 1]}
    assert data["series"][1] == {"re": [1, 2], "im": [0, 1]}


def test_oracle_command_pass(tmp_path):
    problem = {
        "n": 1,
        "action": [term((3,), (1, 1))],
        "observable": [term((6,), (1, 1))],
    }
    inp = write(tmp_path / "p.json", problem)
    out = tmp_path / "o.json"
    assert main(["oracle", inp, "--tol", "1e-6", "-o", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert len(data["contours"]) == 2


def test_oracle_command_not_allowable(tmp_path):
    problem = {
        "n": 1,
        "action": [term((3,), (1, 1))],
        "observable": [term((2,), (1, 1))],
    }
    contour = {
        "waypoints": [[0.0, 0.0]],
        "end_directions": [[1.0, 0.0], [-0.5, 0.866025403784]],
        "ray_length": 40.0,
    }
    inp = write(tmp_path / "p.json", problem)
    cfile = write(tmp_path / "c.json", contour)
    assert main(["oracle", inp, "--contour", cfile]) == EXIT_NOT_GENERIC


def test_verify_ok(capsys):
    assert main(["verify", "--n", "2", "--d", "3", "--trials", "20", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "seed=42" in out
    assert "FAIL" not in out


def test_verify_counts_nongeneric_instances_as_skipped(capsys):
    # at seed 42 one n = 4 quadratic action with f = x0 x2 raises NotGenericAtWeight(2) in reduce_full
    rep = verify_mod.check_wick(200, 42)
    assert (rep.checks, rep.skipped, rep.failures) == (199, 1, [])
    assert main(["verify", "--trials", "200", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify[wick-agreement]: 199 checks, 1 skipped, 0 failures ... pass" in out
    assert "verify[exactness]: 200 checks, 0 failures ... pass" in out


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 checks" in out


def test_verify_sign_flip_trips_gate(monkeypatch, capsys):
    """A deliberately sign-flipped reduction must fail the exactness invariant."""
    from bvreduce import reduce_full
    from bvreduce.bvdiff import d_div
    from bvreduce.reduce import eta_diag, session_for, tau_diag

    def flipped(action, f):
        # wrong-sign divergence route: reduce f - 2*div(eta(f)) style corruption
        sess = session_for(action)
        good = sess.reduce(f)
        bad = tau_diag(d_div(eta_diag(sess.solver.apply(f), action)), action.d).scale(2)
        return good + bad

    monkeypatch.setattr(verify_mod, "reduce_full", flipped)
    code = main(["verify", "--n", "2", "--d", "3", "--trials", "15", "--seed", "7"])
    assert code == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "tau(d_bv(v)) == 0" in out


def test_entry_point_subprocess(tmp_path):
    inp = write(tmp_path / "p.json", CUBIC_PROBLEM)
    # the child imports the same bvreduce as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(bvreduce.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "bvreduce.cli", "reduce", inp, "-o", "-"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["coefficients"][0] == {"im": [0, 1], "re": [-1, 3]}


HBAR_PROBLEM = {
    "n": 1,
    "observable": [term((2,), (1, 1))],
    "hbar": {"a": [[{"re": [1, 1]}]], "K": 2},
}


def _with(base, section, **fields):
    p = copy.deepcopy(base)
    if section is None:
        p.update(fields)
    else:
        p[section].update(fields)
    return p


def _contour(**fields):
    """An allowable contour for e^{x^3}, with some fields replaced."""
    c = {"waypoints": [[0.0, 0.0]], "end_directions": [[-1.0, 0.0], [0.5, 0.866025403784]], "ray_length": 6.0}
    c.update(fields)
    return c


@pytest.mark.parametrize(
    "argv, problem, files",
    [
        (["basis", "--n", "-1", "--d", "3"], None, {}),
        (["hbar", "{p}"], _with(HBAR_PROBLEM, "hbar", K="2"), {}),
        (["hbar", "{p}"], _with(HBAR_PROBLEM, "hbar", K=2.5), {}),
        (["hbar", "{p}"], _with(HBAR_PROBLEM, "hbar", vertices=[[term((3,), (1, 1))]]), {}),
        # keys that name one degree: the later polynomial would silently replace the earlier
        (["hbar", "{p}"], _with(HBAR_PROBLEM, "hbar", vertices={"3": [term((3,), (1, 1))], "03": [term((3,), (5, 1))]}), {}),
        (["hbar", "{p}"], _with(HBAR_PROBLEM, "hbar", vertices={"3": [term((3,), (1, 1))], " 3": [term((3,), (5, 1))]}), {}),
        (["oracle", "{p}"], _with(CUBIC_PROBLEM, None, contour=0), {}),
        (["oracle", "{p}", "--contour", "{dir}/missing.json"], CUBIC_PROBLEM, {}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM, {"c.json": "{not json"}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM,
         {"c.json": json.dumps(_contour(ray_length=float("nan")))}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM,
         {"c.json": json.dumps(_contour(waypoints=[[float("nan"), 0.0]]))}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM,
         {"c.json": json.dumps(_contour(end_directions=[[float("inf"), 0.0], [0.5, 0.866025403784]]))}),
        (["oracle", "{p}", "--tol", "nan"], CUBIC_PROBLEM, {}),
        (["oracle", "{p}", "--tol", "inf"], CUBIC_PROBLEM, {}),
        (["oracle", "{p}", "--tol", "0"], CUBIC_PROBLEM, {}),
        (["oracle", "{p}", "--tol", "-1"], CUBIC_PROBLEM, {}),
        # JSON booleans load as Python bools, which are ints too
        (["reduce", "{p}"], _with(CUBIC_PROBLEM, None, n=True), {}),
        (["reduce", "{p}"], _with(CUBIC_PROBLEM, None, observable=[{"exp": [True], "re": [1, 1]}]), {}),
        (["reduce", "{p}"], _with(CUBIC_PROBLEM, None, observable=[{"exp": [3], "re": [True, 3]}]), {}),
        # bytes that are not UTF-8, an integer past Python's 4300-digit limit, nesting past the recursion limit
        (["reduce", "{dir}/r.json"], None, {"r.json": b'{"n": 1, "action": "\xff"}'}),
        (["reduce", "{dir}/r.json"], None, {"r.json": '{"n": 1' + "0" * 5000 + "}"}),
        (["reduce", "{dir}/r.json"], None, {"r.json": "[" * 100_000}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM,
         {"c.json": json.dumps(_contour(end_directions=[[-1.0, 0.0]]))}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM,
         {"c.json": json.dumps(_contour(end_directions=[[-1.0, 0.0], [0.5, 0.866025403784], [0.5, -0.866]]))}),
        (["oracle", "{p}", "--contour", "{dir}/c.json"], CUBIC_PROBLEM, {"c.json": "[]"}),
        (["verify", "--n", "0"], None, {}),
        (["verify", "--d", "1"], None, {}),
        (["verify", "--trials", "-1"], None, {}),
        (["verify", "--maxdeg", "-5"], None, {}),
        (["verify", "--d", "4", "--maxdeg", "2"], None, {}),
    ],
    ids=["basis-negative-n", "K-string", "K-float", "vertices-list", "vertex-degree-03", "vertex-degree-space",
         "contour-int", "contour-missing", "contour-malformed", "contour-nan-ray", "contour-nan-waypoint",
         "contour-inf-direction", "tol-nan", "tol-inf", "tol-zero", "tol-negative",
         "n-true", "exp-true", "re-true", "not-utf8", "int-over-digit-limit", "nested-100k",
         "contour-one-direction", "contour-three-directions", "contour-none", "verify-n-zero",
         "verify-d-one", "verify-trials-negative", "verify-maxdeg-negative", "verify-maxdeg-below-d"],
)
def test_hostile_input_exit_3(tmp_path, capsys, argv, problem, files):
    if problem is not None:
        write(tmp_path / "p.json", problem)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    argv = [a.format(p=tmp_path / "p.json", dir=tmp_path) for a in argv]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: invalid input:")


def test_unwritable_output_exit_3(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["basis", "--n", "1", "--d", "3", "-o", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: invalid input: cannot write {out}:")


@pytest.mark.parametrize(
    "problem, contour, message",
    [
        # Re(s) overflows to -inf at the ray samples, which certifies no decay
        (CUBIC_PROBLEM, _contour(ray_length=1e150), "error: Re(s) = -inf"),
        (CUBIC_PROBLEM, _contour(ray_length=1e300), "error: Re(s) = -inf"),
        # a waypoint deep in the growth sector: e^{x^3} at x = 10 is e^1000
        (CUBIC_PROBLEM, _contour(waypoints=[[0.0, 0.0], [10.0, 0.0], [0.0, 0.0]]), "error: e^s overflows"),
        # s = -x^2/2 + 40x peaks at e^800 on the default contour
        (_with(CUBIC_PROBLEM, None, action=[term((2,), (-1, 2)), term((1,), (40, 1))]), None,
         "error: e^s overflows"),
    ],
    ids=["ray-1e150", "ray-1e300", "waypoint-in-growth-sector", "action-peak-e800"],
)
def test_overflowing_contour_not_allowable_exit_2(tmp_path, capsys, problem, contour, message):
    argv = ["oracle", write(tmp_path / "p.json", problem)]
    if contour is not None:
        argv += ["--contour", write(tmp_path / "c.json", contour)]
    assert main(argv) == EXIT_NOT_GENERIC
    assert capsys.readouterr().err.startswith(message)


def test_oracle_runs_on_stdlib_only(tmp_path):
    """The package imports neither numpy nor scipy, and the oracle runs with both unimportable."""
    inp = write(tmp_path / "p.json", CUBIC_PROBLEM)
    script = (
        "import sys\n"
        "import bvreduce.cli\n"
        "leaked = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "assert not leaked, leaked\n"
        "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
        "raise SystemExit(bvreduce.cli.main(['oracle', sys.argv[1], '-o', '-']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bvreduce.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, inp], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_basis_over_budget_exit_3_without_allocating(tmp_path, monkeypatch, capsys):
    import itertools

    def refuse(*args, **kwargs):
        raise AssertionError("the basis was allocated")

    monkeypatch.setattr(itertools, "product", refuse)
    big = {"n": 60, "action": [term((4,) + (0,) * 59, (1, 1))], "observable": [term((0,) * 60, (1, 1))]}
    inp = write(tmp_path / "big.json", big)
    assert main(["basis", "--n", "60", "--d", "4"]) == EXIT_INVALID
    assert main(["basis", "--n", "100000000", "--d", "2"]) == EXIT_INVALID
    assert main(["reduce", inp]) == EXIT_INVALID
    assert "size budget" in capsys.readouterr().err


def _cubic3(p):
    """n = 3, x0^3 + x1^3 + x2^3 + x0 x1 x2 with observable x0^p: the weight-p slice has C(p+2, 2) rows."""
    action = [term((3, 0, 0), (1, 1)), term((0, 3, 0), (1, 1)), term((0, 0, 3), (1, 1)), term((1, 1, 1), (1, 1))]
    return {"n": 3, "action": action, "observable": [term((p, 0, 0), (1, 1))]}


def test_slice_over_budget_exit_3_before_assembly(tmp_path, capsys):
    # the weight-40 slice has 861 rows; building and factoring it took minutes
    inp = write(tmp_path / "p.json", _cubic3(40))
    t0 = time.perf_counter()
    assert main(["reduce", inp]) == EXIT_INVALID
    assert time.perf_counter() - t0 < 5
    assert "861 rows, over the budget" in capsys.readouterr().err
    # 153 rows at weight 16 are within the budget
    assert main(["reduce", write(tmp_path / "q.json", _cubic3(16)), "-o", str(tmp_path / "q.out")]) == EXIT_OK


def test_observable_over_weight_budget_exit_3(tmp_path, capsys):
    # weight 3000 is far over MAX_OBSERVABLE_WEIGHT, so the budget refuses it before the sweep starts
    problem = {"n": 1, "action": [term((3,), (1, 3)), term((1,), (-1, 1))], "observable": [term((3000,), (1, 1))]}
    t0 = time.perf_counter()
    assert main(["reduce", write(tmp_path / "p.json", problem)]) == EXIT_INVALID
    assert time.perf_counter() - t0 < 5
    assert "weight 3000, over the budget" in capsys.readouterr().err


def test_large_problem_file_reads_in_linear_time(tmp_path, capsys):
    # 40,000 observable terms: adding them one polynomial at a time copied every term so far and took 16 s
    observable = [term((i, j), (1, 1)) for i in range(200) for j in range(200)]
    problem = {"n": 2, "action": [term((3, 0), (1, 1)), term((0, 3), (1, 1))], "observable": observable}
    inp = write(tmp_path / "p.json", problem)
    t0 = time.perf_counter()
    assert main(["reduce", inp]) == EXIT_INVALID
    assert time.perf_counter() - t0 < 5
    assert "weight 398, over the budget" in capsys.readouterr().err


def test_hbar_over_order_budget_exit_3(tmp_path, capsys):
    # K = 400 with a quartic vertex ran for minutes; K = 4 is within the budget
    problem = {
        "n": 2,
        "observable": [term((2, 0), (1, 1))],
        "hbar": {
            "K": 400,
            "a": [[{"re": [1, 1]}, {"re": [0, 1]}], [{"re": [0, 1]}, {"re": [1, 1]}]],
            "vertices": {"4": [term((4, 0), (1, 24)), term((2, 2), (1, 24)), term((0, 4), (1, 24))]},
        },
    }
    inp = write(tmp_path / "p.json", problem)
    t0 = time.perf_counter()
    assert main(["hbar", inp]) == EXIT_INVALID
    assert time.perf_counter() - t0 < 5
    assert "over the budget" in capsys.readouterr().err
    assert main(["hbar", inp, "-K", "4", "-o", str(tmp_path / "h.out")]) == EXIT_OK


# Two problems whose exact output is pinned byte for byte, timing aside: a
# complex n = 2 cubic with a mixed part and lower terms, and an n = 2 hbar
# model with cubic and quartic vertices over a complex pairing.
GOLDEN_REDUCE = {
    "n": 2,
    "action": [
        term((3, 0), (1, 3)),
        term((0, 3), (1, 3), (1, 6)),
        term((1, 2), (1, 2)),
        term((2, 1), (0, 1), (-1, 4)),
        term((1, 1), (2, 5)),
        term((1, 0), (-1, 1)),
        term((0, 1), (0, 1), (1, 3)),
    ],
    "observable": [
        term((3, 2), (1, 1)),
        term((0, 4), (2, 1), (-1, 3)),
        term((2, 0), (0, 1), (5, 7)),
        term((1, 1), (-3, 2)),
    ],
}

GOLDEN_HBAR = {
    "n": 2,
    "observable": [term((2, 0), (1, 1)), term((1, 1), (-1, 2), (1, 3)), term((0, 4), (1, 5))],
    "hbar": {
        "K": 3,
        "a": [
            [{"re": [2, 1]}, {"re": [1, 2], "im": [1, 4]}],
            [{"re": [1, 2], "im": [1, 4]}, {"re": [3, 1]}],
        ],
        "vertices": {
            "3": [term((3, 0), (1, 6)), term((1, 2), (-1, 2), (1, 3))],
            "4": [term((4, 0), (-1, 24)), term((2, 2), (1, 4)), term((0, 4), (0, 1), (1, 12))],
        },
    },
}


@pytest.mark.parametrize(
    "command, problem, expected",
    [
        (
            "reduce",
            GOLDEN_REDUCE,
            '{"basis":[[0,0],[0,1],[1,0],[1,1]],"coefficients":['
            '{"im":[455311550867893316,1089077421163265625],"re":[-5247473381625401608,9801696790469390625]},'
            '{"im":[63057576042388,82977327326725],"re":[-34548835376891686,14521032282176875]},'
            '{"im":[-739163133208644728,1256627793649921875],"re":[285338835112923832,418875931216640625]},'
            '{"im":[806782558912976528,1089077421163265625],"re":[-1294372097711873567,2178154842326531250]}],'
            '"d":3,"diagnostics":{"genericity":"ok","weights_solved":[0,1,2,3,4,5]},"n":2}\n',
        ),
        (
            "hbar",
            GOLDEN_HBAR,
            '{"K":3,"n":2,"series":[{"im":[0,1],"re":[0,1]},{"im":[454,25995],"re":[14888,25995]},'
            '{"im":[16594988906336,2029442583942225],"re":[246555183044992,2029442583942225]},'
            '{"im":[-38418922796864513886123776,2376593884315115386856398125],'
            '"re":[85303509701374171436864768,2376593884315115386856398125]}]}\n',
        ),
    ],
)
def test_golden_stdout(tmp_path, capsys, command, problem, expected):
    assert main([command, write(tmp_path / "p.json", problem)]) == EXIT_OK
    out = re.sub(r',"seconds":[0-9.e+-]+', "", capsys.readouterr().out)
    assert out == expected
