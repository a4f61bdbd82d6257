"""Homological perturbation: one solver for the transferred projection.

The diagonal retraction (tau, phi, eta) exhibits a complex of SuperPoly
values as homotopy equivalent to its degree-0 homology H, with

    tau o phi = id_H,        phi o tau - id_V = D o eta + eta o D.

Deforming D by a small delta re-establishes exactly this convention with

    tau' = tau o (id - delta o eta)^{-1}
    eta' = eta o (id - delta o eta)^{-1}
    phi' = phi            (H sits in degree 0, V in non-negative degrees,
                           so delta o phi = 0 and the transferred phi and
                           the transferred differential on H are unchanged)

Transferring across delta1 and then delta2 gives the same tau as one
transfer across delta1 + delta2, so the caller perturbs once by the whole
deformation, split by weight into keep, which preserves weight exactly, and
drop, which strictly lowers it.  A SliceSolver applies (id - delta o eta)^{-1}
by one sweep, `neumann_apply`, over one bucket per (weight, homological
degree), from the top weight down.  Only keep o eta needs an exact inverse,
and the solver sees it as a column kernel: the image -keep(eta(x^key)) of
each basis monomial of a finite (homological degree, weight) slice, as a term
map.  Each slice the sweep reaches is assembled from one kernel call per
basis monomial and factored once by fraction-free Gaussian elimination; a
slice used once is then solved by one substitution.  drop o eta feeds the
lower slices: a Neumann series that ends because weight is a non-negative
integer.  The solver sees it as one integer step, Gaussian integers over a
denominator in and out, so a level of the sweep clears its bucket once and
stays in integers from the slice solve to the terms it hands down.  Without
a kernel no slice is built.  Nothing about the kernel or the step is taken on
trust: an image off the slice or weight the split allows is a NonTerminating
error, never a silent truncation.
"""
from __future__ import annotations

import threading
from functools import lru_cache
from math import comb
from typing import Callable

from .errors import InputError, NonTerminating, NotGenericAtWeight, SingularMatrix
from .linalg import Factor, invert
from .scalars import ONE, Scalar, clear_denominators, gauss
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree, term_weight

Step = Callable[[dict, int], tuple[dict, int]]


def neumann_apply(n: int, d: int, pending: dict, step: Step, slice_factor=None) -> SuperPoly:
    """(id - delta o eta)^{-1} v for delta = keep + drop, swept from the top weight down.

    keep o eta stays in its (homological degree, weight) slice, as slice
    assembly checks, and drop o eta strictly lowers weight.  Then
    (id - delta o eta)^{-1} = sum_k (S drop eta)^k S with S = (id - keep o
    eta)^{-1}, a Neumann series that ends because weight is a non-negative
    integer.  The sweep starts from pending, the input's Scalar terms in one
    bucket per (weight, homological degree) as `SliceSolver.apply` sorts
    them, and empties it, taking the largest key each step.  At (w, h) it
    clears the bucket to Gaussian integers g over one L and sets y = S(g / L)
    by the slice's `Factor`, slice_factor(h, w), as X g over L * det; where
    there is no factor, S is the identity and y is g over L.  y is written
    to the output, one Scalar per term, and drop(eta(y)) = step(y, its
    denominator), in Gaussian integers over a denominator of the step's own,
    goes to the buckets of each image term's own weight and degree, one
    Scalar per term.
    Without keep no slice_factor is given.  An image at or above w is a
    NonTerminating error, never a silent truncation.
    """
    d1 = d - 1  # weights are computed inline, as term_weight does: this loop is the hot path
    out: dict[Key, Scalar] = {}
    while pending:
        w, h = top = max(pending)
        bucket = pending.pop(top)
        g, den = clear_denominators(bucket.values())
        f = None if slice_factor is None else slice_factor(h, w)
        # each bucket is swept once and its keys are in no other bucket, so levels never share a key
        if f is None:
            out.update(bucket)
            y = dict(zip(bucket, g))
        else:
            yr, yi = f.solve_cleared(bucket, g)
            den *= f.det
            y = {key: (a, b) for key, a, b in zip(f.keys, yr, yi) if a or b}
            for key, (a, b) in y.items():
                out[key] = gauss(a, b, den)
        terms, den = step(y, den)
        for key, (a, b) in terms.items():
            if not (a or b):
                continue
            hh = key[1].bit_count()
            ww = sum(key[0]) + d1 * hh
            if ww >= w:
                raise NonTerminating(f"the weight-dropping part sent weight {w} to weight {ww}")
            lower = (ww, hh)
            bucket = pending.setdefault(lower, {})
            add_term(bucket, key, gauss(a, b, den))
            if not bucket:
                del pending[lower]
    return SuperPoly._wrap(n, out)


@lru_cache(maxsize=256)
def slice_basis(n: int, d: int, h: int, w: int) -> tuple[Key, ...]:
    """Monomial basis of the (homological degree h, weight w) slice, lexicographic.

    It depends on the slice's shape alone, so it is built once per shape and
    shared: every fresh session's slice of that shape reads the same tuple.
    """
    xdeg = w - (d - 1) * h
    if xdeg < 0 or h > n:
        return ()
    exps = monomials_of_degree(n, xdeg)
    return tuple(sorted((e, mask) for mask in range(1 << n) if mask.bit_count() == h for e in exps))


def slice_rows(n: int, d: int, h: int, w: int) -> int:
    """The size of slice_basis(n, d, h, w), counted before anything is built."""
    xdeg = w - (d - 1) * h
    return comb(n, h) * comb(xdeg + n - 1, n - 1) if xdeg >= 0 else 0


MAX_SLICE_ROWS = 256
"""Budget on the rows of one (degree, weight) slice; a larger slice is an InputError."""

MAX_OBSERVABLE_WEIGHT = 128
"""Budget on the weight of what `SliceSolver.apply` sweeps; a heavier input is an InputError.

That is every observable a session reduces and every section correction
it is built with.  The sweep visits every weight level from the input's
weight down (`neumann_apply`), applying the perturbation at each and
solving a slice at each when it has a weight-keeping part, so the cost
grows with the weight, and faster with n: at this budget n = 2 x0^128 on
x0^3 + x1^3 + x0 x1^2 - x0 takes about 0.18 s of CPU time, and about 3.3 s
with the complex coefficients 1 + i/2 on x1^3 and 1 + i on x0 x1^2
(Python 3.11.7 on a 2-vCPU VM), without building a slice over
MAX_SLICE_ROWS.
"""


class SliceSolver:
    """Applies (id - delta o eta)^{-1} for a perturbation delta = keep + drop.

    drop o eta is given as one integer `step`: step(y, L) takes a term map
    y of Gaussian integers (a, b) meaning (a + b*i)/L and returns drop(eta(y
    / L)) the same way, as (term map, its denominator); drop strictly lowers
    weight.  keep, which preserves weight exactly, is given as its column
    kernel: column(key) is -keep(eta(x^key)) for a basis monomial as a fresh
    term map of Scalars, which the solver keeps.  The sweep checks every
    image it uses and raises NonTerminating on one the split rules out.
    `apply` sorts its input into the sweep's buckets, refuses one over the
    weight budget, and runs the `neumann_apply` sweep from the top weight
    down.  Without a kernel the sweep is the plain Neumann series: no slice
    is built and the step runs once per weight level.

    With a kernel, each (degree, weight) slice the sweep reaches is solved
    against id - keep o eta: `_slice` calls the kernel once per basis
    monomial, checks that every image stays in the slice, adds e_key and
    hands the k columns to one `linalg.invert`.  The slice is memoized as
    its `Factor`, keyed by the basis monomials, or as None where keep o eta
    vanishes on the slice.  A bucket is solved by `Factor.solve_cleared`:
    the first bucket a slice sees is one substitution, and later ones go
    through memoized columns, each solved once on first use.  Concurrent
    readers see a consistent cache: slices are populated single-flight under
    the solver's lock, columns under the factor's own.
    """

    def __init__(self, n: int, d: int, column: Callable[[Key], dict] | None, step: Step):
        self.n = n
        self.d = d
        self.column = column
        self.step = step
        self._cache: dict[tuple[int, int], Factor | None] = {}
        self._lock = threading.Lock()

    def solved_weights(self) -> list[int]:
        return sorted({w for (_, w) in self._cache})

    def _slice(self, h: int, w: int) -> Factor | None:
        """The factored id - keep o eta on the (h, w) slice, or None where keep o eta vanishes on it."""
        cache = self._cache
        # membership, not get(): None is a cached slice too
        if (h, w) in cache:
            return cache[(h, w)]
        with self._lock:
            if (h, w) in cache:
                return cache[(h, w)]
            k = slice_rows(self.n, self.d, h, w)
            if k > MAX_SLICE_ROWS:
                raise InputError(
                    f"the (degree {h}, weight {w}) slice has {k} rows, over the budget of {MAX_SLICE_ROWS}"
                )
            # the columns e_key - keep(eta(e_key)), keyed by the basis monomials in basis order
            cols = dict.fromkeys(slice_basis(self.n, self.d, h, w))
            nontrivial = False
            for key in cols:
                col = cols[key] = self.column(key)
                nontrivial = nontrivial or bool(col)
                for kk in col:
                    if kk not in cols:
                        ww = term_weight(kk, self.d)
                        raise NonTerminating(f"the weight-keeping part sent weight {w} to weight {ww}")
                add_term(col, key, ONE)
            factor = None
            if nontrivial:
                try:
                    factor = invert(cols)
                except SingularMatrix:
                    raise NotGenericAtWeight(w) from None
            cache[(h, w)] = factor
            return factor

    def apply(self, v: SuperPoly) -> SuperPoly:
        # the terms by (weight, degree), the sweep's buckets: the largest key gives the weight the budget reads
        d1 = self.d - 1
        pending: dict[tuple[int, int], dict[Key, Scalar]] = {}
        for key, c in v.terms.items():
            h = key[1].bit_count()
            pending.setdefault((sum(key[0]) + d1 * h, h), {})[key] = c
        w = max(pending)[0] if pending else -1
        if w > MAX_OBSERVABLE_WEIGHT:
            raise InputError(f"the observable has weight {w}, over the budget of {MAX_OBSERVABLE_WEIGHT}")
        return neumann_apply(v.n, self.d, pending, self.step, None if self.column is None else self._slice)
