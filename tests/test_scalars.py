"""Scalar arithmetic against a reference on pairs of Fractions."""
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvreduce.scalars import Q, Scalar, gauss, q

SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

rationals = st.builds(
    Fraction,
    st.integers(-10**12, 10**12) | st.integers(-3, 3),
    st.integers(1, 10**12) | st.integers(1, 6),
)
# real, purely imaginary and general values, zero included
pairs = st.one_of(
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), rationals),
    st.tuples(rationals, rationals),
)


def reference(op, x, y):
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def assert_canonical(s: Scalar):
    assert s.den > 0
    assert gcd(s.a, s.b, s.den) == 1
    if not s:
        assert (s.a, s.b, s.den) == (0, 0, 1)


def test_q_is_fraction():
    assert Q is Fraction


@SETTINGS
@given(pairs, pairs, st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
def test_arithmetic_matches_fraction_pairs(x, y, op):
    if op is operator.truediv and not any(y):
        with pytest.raises(ZeroDivisionError):
            op(Scalar(*x), Scalar(*y))
        return
    got = op(Scalar(*x), Scalar(*y))
    assert_canonical(got)
    assert (got.re, got.im) == reference(op, x, y)


@SETTINGS
@given(pairs)
def test_negation_and_construction_are_canonical(x):
    s = Scalar(*x)
    assert_canonical(s)
    assert (s.re, s.im) == x
    neg = -s
    assert_canonical(neg)
    assert (neg.re, neg.im) == (-x[0], -x[1])


@SETTINGS
@given(pairs, pairs, st.integers(-50, 50).filter(bool))
def test_equal_values_built_differently_agree(x, y, k):
    s = Scalar(*x)
    scaled = gauss(s.a * k, s.b * k, s.den * k)
    others = [scaled, s + 0, 0 + s, s * 1, s - Scalar(0), -(-s), Scalar(x[0]) + Scalar(0, x[1])]
    if any(y):
        t = Scalar(*y)
        others += [(s * t) / t, (s + t) - t]
    for u in others:
        assert_canonical(u)
        assert u == s
        assert hash(u) == hash(s)


@SETTINGS
@given(rationals, st.integers(-10**6, 10**6))
def test_comparison_with_int_and_fraction(r, n):
    assert Scalar(r) == r
    assert r == Scalar(r)
    assert Scalar(n) == n
    assert n == Scalar(n)
    assert Scalar(r, 1) != r
    assert Scalar(n, 1) != n
    assert (Scalar(r) == n) == (r == n)
    assert Scalar(r) != "r"


@pytest.mark.parametrize("num", [Scalar(0), Scalar(q(-2, 3), 5), Scalar(0, 1)])
def test_division_by_zero_raises(num):
    for zero in (Scalar(0), 0, Fraction(0), Scalar(q(0, 7), 0)):
        with pytest.raises(ZeroDivisionError):
            num / zero
    with pytest.raises(ZeroDivisionError):
        1 / Scalar(0)
    with pytest.raises(ZeroDivisionError):
        gauss(1, 2, 0)


@pytest.mark.parametrize(
    "re, im, text",
    [
        (0, 0, "0/1+0/1*i"),
        (q(-1, 2), q(-3, 4), "-1/2-3/4*i"),
        (q(6, 4), 0, "3/2+0/1*i"),
        (0, q(-2, 6), "0/1-1/3*i"),
        (0, 1, "0/1+1/1*i"),
        (-7, q(5, 10), "-7/1+1/2*i"),
    ],
)
def test_text_format(re, im, text):
    assert Scalar(re, im).text() == text


@SETTINGS
@given(pairs)
def test_text_reads_back(x):
    re_part, im_part = Scalar(*x).text()[:-2].replace("-", "+-").lstrip("+").split("+")
    assert (Fraction(re_part), Fraction(im_part)) == x


@SETTINGS
@given(rationals | st.integers(-10**30, 10**30))
def test_real_scalars_hash_like_int_and_fraction(x):
    s = Scalar(x)
    assert hash(s) == hash(x)
    assert {x: "found"}[s] == "found"
    assert {s: "found"}[x] == "found"
    assert len({x, s}) == 1
    assert Scalar.of(x) == s and hash(Scalar.of(x)) == hash(x)
