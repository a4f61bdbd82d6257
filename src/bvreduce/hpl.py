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
deformation, handed over as two plain SuperPoly -> SuperPoly callables:
keep, which preserves weight exactly, and drop, which strictly lowers it.  A
SliceSolver applies (id - delta o eta)^{-1} by one sweep from the top weight
down, `neumann_apply`.  Only keep o eta needs an exact inverse: when keep is
given, id - keep o eta is assembled in integers on the monomial basis of
each finite (homological degree, weight) slice the sweep reaches and
factored once by fraction-free Gaussian elimination, with the columns of its
inverse solved on first use.  That needs an eta that keeps weight exactly,
which slice assembly checks.  drop o eta feeds the lower slices: a Neumann
series that ends because weight is a non-negative integer.  Without keep no
slice is built.  Nothing about eta, keep or drop is taken on trust: an image
off the weight the split allows is a NonTerminating error, never a silent
truncation.
"""
from __future__ import annotations

import threading
from math import comb
from typing import Callable

from .errors import InputError, NonTerminating, NotGenericAtWeight, SingularMatrix
from .linalg import invert
from .scalars import ONE, Scalar, clear_denominators
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree, term_weight

Map = Callable[[SuperPoly], SuperPoly]


def neumann_apply(v: SuperPoly, d: int, eta: Map, drop: Map, solve=None) -> SuperPoly:
    """(id - delta o eta)^{-1} v for delta = keep + drop, swept from the top weight down.

    keep preserves weight exactly, and so does eta wherever a slice is
    solved, so keep o eta stays in its (homological degree, weight) slice
    and drop o eta strictly lowers weight.  Then (id - delta o eta)^{-1} =
    sum_k (S drop eta)^k S with S = (id - keep o eta)^{-1}, a Neumann series
    that ends because weight is a non-negative integer.  The sweep groups it
    by weight: at weight w it sets y = S(bucket w) by solve(h, w, terms),
    adds y to the output and hands drop(eta(y)) on to the lower buckets.
    Without keep, S = id and no solve is given.  An image at or above w is a
    NonTerminating error, never a silent truncation.
    """
    if v.is_zero:
        return v
    n = v.n
    out: dict[Key, Scalar] = {}
    # group the input by degree, then sweep each degree top weight down
    by_h: dict[int, dict[int, dict[Key, Scalar]]] = {}
    for key, c in v.terms.items():
        by_h.setdefault(key[1].bit_count(), {}).setdefault(term_weight(key, d), {})[key] = c
    for h, pending in by_h.items():
        while pending:
            w = max(pending)
            y_terms = pending.pop(w)
            if solve is not None:
                y_terms = solve(h, w, y_terms)
            for key, c in y_terms.items():
                add_term(out, key, c)
            e = eta(SuperPoly._wrap(n, y_terms))
            if e.is_zero:
                continue
            for key, c in drop(e).terms.items():
                ww = term_weight(key, d)
                if ww >= w:
                    raise NonTerminating(f"the weight-dropping part sent weight {w} to weight {ww}")
                bucket = pending.setdefault(ww, {})
                add_term(bucket, key, c)
                if not bucket:
                    pending.pop(ww, None)
    return SuperPoly._wrap(n, out)


def slice_basis(n: int, d: int, h: int, w: int) -> list[Key]:
    """Monomial basis of the (homological degree h, weight w) slice, lexicographic."""
    xdeg = w - (d - 1) * h
    if xdeg < 0 or h > n:
        return []
    keys = []
    for mask in range(1 << n):
        if mask.bit_count() == h:
            for e in monomials_of_degree(n, xdeg):
                keys.append((e, mask))
    keys.sort()
    return keys


MAX_SLICE_ROWS = 256
"""Budget on the rows of one (degree, weight) slice; a larger slice is an InputError."""

MAX_OBSERVABLE_WEIGHT = 128
"""Budget on the weight of what `SliceSolver.apply` sweeps; a heavier input is an InputError.

That is every observable a session reduces and every section correction
it is built with.  The sweep visits every weight level from the input's
weight down (`neumann_apply`), applying the perturbation at each and
solving a slice at each when it has a weight-keeping part, so the cost
grows with the weight, and faster with n: an n = 2 reduction at this
budget takes seconds (x0^128 on x0^3 + x1^3 + x0 x1^2 - x0 in about 2 s,
and about 18 s with complex x1^3 and x0 x1^2 coefficients) without
building a slice over MAX_SLICE_ROWS.
"""


class SliceSolver:
    """Applies (id - delta o eta)^{-1} for a perturbation delta = keep + drop.

    eta, keep and drop are plain SuperPoly -> SuperPoly maps.  keep preserves
    weight exactly and drop strictly lowers it; both undo the homological
    degree that eta adds.  The sweep checks the weight of every image it
    uses and raises NonTerminating on one the split rules out.  `apply` is
    the `neumann_apply` sweep from the top weight down.  Without keep the
    sweep is the plain Neumann series: no slice is built and drop o eta runs
    once per weight level.

    With keep, each (degree, weight) slice the sweep reaches is solved
    against id - keep o eta, assembled by `_slice` straight into Gaussian
    integers, each column over its own denominator, and factored once by
    `linalg.invert`.  Assembly also checks, once per slice, that eta keeps
    the weight of every basis monomial, so that drop o eta is all the sweep
    has left to apply.  The slice is memoized as its `Factor`: a
    fraction-free LU whose inverse columns are solved on first use.  A
    bucket is mapped to the slice's basis indices and solved by
    `Factor.solve`, which touches only the columns the bucket needs.
    Concurrent readers see a consistent cache: slices are populated
    single-flight under the solver's lock, columns under the factor's own.
    """

    def __init__(self, n: int, d: int, eta: Map, keep: Map | None, drop: Map):
        self.n = n
        self.d = d
        self.eta = eta
        self.keep = keep
        self.drop = drop
        self._cache: dict[tuple[int, int], tuple] = {}
        self._lock = threading.Lock()

    def solved_weights(self) -> list[int]:
        return sorted({w for (_, w) in self._cache})

    def _in_slice(self, key: Key, w: int, index: dict[Key, int]) -> dict[Key, Scalar]:
        """The image of the basis monomial key under keep o eta, which must stay in its slice."""
        n, d = self.n, self.d
        e = self.eta(SuperPoly._wrap(n, {key: ONE}))
        for kk in e.terms:
            if term_weight(kk, d) != w:
                raise NonTerminating(f"eta sent weight {w} to weight {term_weight(kk, d)}")
        if e.is_zero:
            return {}
        img = self.keep(e).terms
        for kk in img:
            if kk not in index:
                raise NonTerminating(f"the weight-keeping part sent weight {w} to weight {term_weight(kk, d)}")
        return img

    def _slice(self, h: int, w: int):
        got = self._cache.get((h, w))
        if got is not None:
            return got
        with self._lock:
            got = self._cache.get((h, w))
            if got is not None:
                return got
            # the size of slice_basis(n, d, h, w), counted before anything is built
            xdeg = w - (self.d - 1) * h
            k = comb(self.n, h) * comb(xdeg + self.n - 1, self.n - 1) if xdeg >= 0 else 0
            if k > MAX_SLICE_ROWS:
                raise InputError(
                    f"the (degree {h}, weight {w}) slice has {k} rows, over the budget of {MAX_SLICE_ROWS}"
                )
            basis = slice_basis(self.n, self.d, h, w)
            index = {key: i for i, key in enumerate(basis)}
            # id - keep o eta in Gaussian integers: column j is (den_j e_j - image_j) / den_j
            re = [[0] * k for _ in range(k)]
            im = None
            dens = [1] * k
            nontrivial = False
            for j, key in enumerate(basis):
                img = self._in_slice(key, w, index)
                if not img:
                    re[j][j] = 1
                    continue
                nontrivial = True
                pairs, den = clear_denominators(img.values())
                dens[j] = re[j][j] = den
                for kk, (a, b) in zip(img, pairs):
                    i = index[kk]
                    re[i][j] -= a
                    if b:
                        if im is None:
                            im = [[0] * k for _ in range(k)]
                        im[i][j] -= b
            factor = None
            if nontrivial:
                try:
                    factor = invert(re, im, dens)
                except SingularMatrix:
                    raise NotGenericAtWeight(w) from None
            entry = (basis, index, factor)
            self._cache[(h, w)] = entry
            return entry

    def apply(self, v: SuperPoly) -> SuperPoly:
        w = v.max_weight(self.d)
        if w > MAX_OBSERVABLE_WEIGHT:
            raise InputError(f"the observable has weight {w}, over the budget of {MAX_OBSERVABLE_WEIGHT}")
        return neumann_apply(v, self.d, self.eta, self.drop, None if self.keep is None else self._solve)

    def _solve(self, h: int, w: int, vec_terms: dict[Key, Scalar]) -> dict[Key, Scalar]:
        """(id - keep o eta)^{-1} applied to the terms of one (h, w) bucket, by the slice's `Factor.solve`."""
        basis, index, factor = self._slice(h, w)
        if factor is None:
            return vec_terms
        y = factor.solve({index[key]: c for key, c in vec_terms.items()})
        return {basis[i]: c for i, c in y.items()}
