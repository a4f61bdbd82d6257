"""Fuzz the problem, contour and result readers.

Random JSON shaped like the documented schemas, with one value swapped for
arbitrary JSON in most draws, must end in a documented exit code: 0, 2 (not
generic or not allowable), 3 (invalid input) or 4 (verification failure),
never in an exception.  Exponents and truncation orders stay small so that
a well-formed draw runs in milliseconds.  A result file must read back as
the class it was written from, and a malformed one must be an InputError.
"""
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bvreduce import InputError, JacClass, Scalar, SuperPoly, action_build, jac_basis
from bvreduce.cli import EXIT_INVALID, EXIT_NOT_GENERIC, EXIT_OK, EXIT_VERIFY_FAILED, main, result_to_json
from oracles import result_from_json

DOCUMENTED_EXITS = {EXIT_OK, EXIT_NOT_GENERIC, EXIT_INVALID, EXIT_VERIFY_FAILED}

JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def scalar():
    pair = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(list)
    return st.fixed_dictionaries({"re": pair}, optional={"im": pair})


def term(n, exp=None):
    if exp is None:
        exp = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return st.tuples(exp, scalar()).map(lambda t: {"exp": t[0], **t[1]})


def poly(n, d):
    """Terms led by x_i^d for each i, so that most actions get past the reader into the engine."""
    diagonal = [term(n, st.just([d * (i == j) for j in range(n)])) for i in range(n)]
    return st.tuples(*diagonal, st.lists(term(n), max_size=2)).map(lambda t: [*t[:-1], *t[-1]])


def hbar_section(n):
    return st.fixed_dictionaries(
        {"a": st.lists(st.lists(scalar(), min_size=n, max_size=n), min_size=n, max_size=n), "K": st.integers(0, 3)},
        optional={"vertices": st.dictionaries(st.sampled_from(["3", "4"]), poly(n, 3), max_size=2)},
    )


def real(lo, hi):
    """A float in [lo, hi], or one time in eight a JSON integer past the float range."""
    return st.sampled_from(range(8)).flatmap(lambda k: st.integers(10**309, 10**400) if k == 7 else st.floats(lo, hi))


def contour():
    point = st.lists(real(-3, 3), min_size=2, max_size=2)
    return st.fixed_dictionaries({
        "waypoints": st.lists(point, min_size=1, max_size=3),
        "end_directions": st.lists(point, min_size=2, max_size=2),
        "ray_length": real(0.5, 8),
    })


def _paths(obj, path=()):
    """The path to every value in a JSON document, the document itself last."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))
    yield path


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def cases(draw):
    n, d = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    problem = draw(st.fixed_dictionaries({
        "n": st.just(n),
        "action": poly(n, d),
        "observable": st.lists(term(n), max_size=3),
        "hbar": hbar_section(n),
    }))
    contours = draw(contour() | st.lists(contour(), max_size=2))
    which = draw(st.sampled_from(["problem", "contours", "neither"]))
    if which == "problem":
        problem = _replace(problem, draw(st.sampled_from(list(_paths(problem)))), draw(JUNK))
    elif which == "contours":
        contours = _replace(contours, draw(st.sampled_from(list(_paths(contours)))), draw(JUNK))
    return problem, contours, draw(st.booleans())


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_readers_end_in_documented_exit(case):
    problem, contours, contour_flag = case
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "p.json")
        c = os.path.join(tmp, "c.json")
        with open(c, "w") as fh:
            json.dump(contours, fh)
        if isinstance(problem, dict) and not contour_flag:
            problem = dict(problem, contour=c)
        with open(p, "w") as fh:
            json.dump(problem, fh)
        for command in ("reduce", "wick", "hbar", "oracle"):
            argv = [command, p, "-o", os.path.join(tmp, "out.json")]
            if command == "oracle" and contour_flag:
                argv += ["--contour", c]
            assert main(argv) in DOCUMENTED_EXITS


@st.composite
def results(draw):
    """The JSON of a reduce result, as `reduce` writes it, and the class it holds."""
    n, d = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    basis = jac_basis(n, d)
    part = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    coeffs = draw(st.lists(st.builds(Scalar, part, part | st.just(0)), min_size=len(basis), max_size=len(basis)))
    jc = JacClass(basis, dict(zip(basis.monomials, coeffs)))
    action = action_build(sum((SuperPoly.x(n, i, d) for i in range(n)), SuperPoly.zero(n)))
    return json.loads(json.dumps(result_to_json(action, jc, {"genericity": "ok"}))), jc


def _short(doc):
    doc["coefficients"].pop()


def _long(doc):
    doc["coefficients"].append(doc["coefficients"][0])


def _no_n(doc):
    del doc["n"]


def _string_n(doc):
    doc["n"] = str(doc["n"])


def _scalar_coefficients(doc):
    doc["coefficients"] = 5


def _float_d(doc):
    doc["d"] = float(doc["d"])


def _basis_string(doc):
    doc["basis"][0] = "0" * len(doc["basis"][0])


def _bad_scalar(doc):
    doc["coefficients"][-1] = {"re": [1, 0]}


MALFORMED = [_short, _long, _no_n, _string_n, _scalar_coefficients, _float_d, _basis_string, _bad_scalar]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(results(), st.sampled_from(MALFORMED))
def test_result_reader_round_trips_and_refuses_malformed(case, damage):
    doc, jc = case
    assert result_from_json(json.loads(json.dumps(doc))) == jc
    damage(doc)
    with pytest.raises(InputError):
        result_from_json(doc)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(results(), st.data())
def test_result_reader_takes_junk_without_crashing(case, data):
    doc, _ = case
    doc = _replace(doc, data.draw(st.sampled_from(list(_paths(doc)))), data.draw(JUNK))
    try:
        result_from_json(doc)
    except InputError:
        pass
