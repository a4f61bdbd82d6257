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
degree), from the top weight down.  Only keep o eta
needs an exact inverse, and the solver sees it as a column kernel: the image
-keep(eta(x^key)) of each basis monomial of a finite (homological degree,
weight) slice, as a term map.  Each slice the sweep reaches is assembled from
one kernel call per basis monomial and factored once by fraction-free
Gaussian elimination; a slice used once is then solved by one substitution.
drop o eta, a plain SuperPoly -> SuperPoly map, feeds the lower slices: a
Neumann series that ends because weight is a non-negative integer.  Without
a kernel no slice is built.  Nothing about the kernel or drop is taken on
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
from .scalars import ONE, Scalar
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree, term_weight

Map = Callable[[SuperPoly], SuperPoly]


def neumann_apply(v: SuperPoly, d: int, eta: Map, drop: Map, solve=None) -> SuperPoly:
    """(id - delta o eta)^{-1} v for delta = keep + drop, swept from the top weight down.

    keep o eta stays in its (homological degree, weight) slice, as slice
    assembly checks, and drop o eta strictly lowers weight.  Then
    (id - delta o eta)^{-1} = sum_k (S drop eta)^k S with S = (id - keep o
    eta)^{-1}, a Neumann series that ends because weight is a non-negative
    integer.  The sweep keeps one bucket per (weight, homological degree)
    and takes the largest key each step: at (w, h) it sets y = S(bucket) by
    solve(h, w, terms), writes y to the output and hands drop(eta(y)) on to
    the buckets of each image term's own weight and degree.  Without keep,
    S = id and no solve is given.  An image at or above w is a
    NonTerminating error, never a silent truncation.
    """
    if v.is_zero:
        return v
    n = v.n
    out: dict[Key, Scalar] = {}
    pending: dict[tuple[int, int], dict[Key, Scalar]] = {}
    for key, c in v.terms.items():
        pending.setdefault((term_weight(key, d), key[1].bit_count()), {})[key] = c
    while pending:
        w, h = top = max(pending)
        y_terms = pending.pop(top)
        if solve is not None:
            y_terms = solve(h, w, y_terms)
        # each bucket is swept once and its keys are in no other bucket, so levels never share a key
        out.update(y_terms)
        e = eta(SuperPoly._wrap(n, y_terms))
        if e.is_zero:
            continue
        for key, c in drop(e).terms.items():
            ww = term_weight(key, d)
            if ww >= w:
                raise NonTerminating(f"the weight-dropping part sent weight {w} to weight {ww}")
            lower = (ww, key[1].bit_count())
            bucket = pending.setdefault(lower, {})
            add_term(bucket, key, c)
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
x0^3 + x1^3 + x0 x1^2 - x0 takes about 0.2 s of CPU time, and about 3 s
with the complex coefficients 1 + i/2 on x1^3 and 1 + i on x0 x1^2,
without building a slice over MAX_SLICE_ROWS.
"""


class SliceSolver:
    """Applies (id - delta o eta)^{-1} for a perturbation delta = keep + drop.

    eta and drop are plain SuperPoly -> SuperPoly maps; drop strictly lowers
    weight and undoes the homological degree that eta adds.  keep, which
    preserves weight exactly, is given as its column kernel: column(key) is
    -keep(eta(x^key)) for a basis monomial as a fresh term map, which the
    solver keeps.  The sweep checks every image it uses and raises
    NonTerminating on one the split rules out.  `apply` is the
    `neumann_apply` sweep from the top weight down.  Without a kernel the
    sweep is the plain Neumann series: no slice is built and drop o eta runs
    once per weight level.

    With a kernel, each (degree, weight) slice the sweep reaches is solved
    against id - keep o eta: `_slice` calls the kernel once per basis
    monomial, checks that every image stays in the slice, adds e_key and
    hands the k columns to one `linalg.invert`.  The slice is memoized as
    its `Factor`, keyed by the basis monomials, or as None where keep o eta
    vanishes on the slice.  A bucket is solved by `Factor.solve`: the first
    bucket a slice sees is one substitution, and later ones go through
    memoized columns, each solved once on first use.  Concurrent readers see
    a consistent cache: slices are populated single-flight under the
    solver's lock, columns under the factor's own.
    """

    def __init__(self, n: int, d: int, eta: Map, column: Callable[[Key], dict] | None, drop: Map):
        self.n = n
        self.d = d
        self.eta = eta
        self.column = column
        self.drop = drop
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
        w = v.max_weight(self.d)
        if w > MAX_OBSERVABLE_WEIGHT:
            raise InputError(f"the observable has weight {w}, over the budget of {MAX_OBSERVABLE_WEIGHT}")
        return neumann_apply(v, self.d, self.eta, self.drop, None if self.column is None else self._solve)

    def _solve(self, h: int, w: int, vec_terms: dict[Key, Scalar]) -> dict[Key, Scalar]:
        """(id - keep o eta)^{-1} applied to the terms of one (h, w) bucket, by the slice's `Factor.solve`."""
        factor = self._slice(h, w)
        return vec_terms if factor is None else factor.solve(vec_terms)
