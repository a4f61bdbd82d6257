"""Generic homological perturbation engine.

A retraction (tau, phi, eta) exhibits a complex of SuperPoly values as
homotopy equivalent to its degree-0 homology H.  The convention used
throughout the engine is

    tau o phi = id_H,        phi o tau - id_V = D o eta + eta o D,

and every transferred map below re-establishes exactly this convention for
the deformed differential.  Deforming D by a small delta produces

    tau' = tau o (id - delta o eta)^{-1}
    eta' = eta o (id - delta o eta)^{-1}
    phi' = phi            (H sits in degree 0, V in non-negative degrees,
                           so delta o phi = 0 and the transferred phi and
                           the transferred differential on H are unchanged)

Transferring across delta1 and then delta2 gives the same tau as one
transfer across delta1 + delta2, so a caller perturbs once by the whole
deformation, handed over as two parts: keep, which preserves weight exactly,
and drop, which strictly lowers it.  A SliceSolver applies (id - delta o
eta)^{-1} by one sweep from the top weight down, `neumann_apply`.  Only
keep o eta needs an exact inverse: when keep is given, id - keep o eta is
assembled in integers on the monomial basis of each finite (homological
degree, weight) slice the sweep reaches and factored once by fraction-free
Gaussian elimination, with the columns of its inverse solved on first use.
That needs an eta that keeps weight exactly, which slice assembly checks.
drop o eta feeds the lower slices: a Neumann series that ends because
weight is a non-negative integer.  Without keep no slice is built.  An
image that the split does not allow is a NonTerminating error, never a
silent truncation.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb
from typing import Callable

from .errors import InputError, NonTerminating, NotGenericAtWeight, SingularMatrix
from .linalg import invert
from .scalars import ONE, Scalar, clear_denominators, gauss
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree, term_weight

@dataclass(frozen=True)
class LinearOp:
    """A Scalar-linear map on SuperPoly with declared grading behavior.

    degree_shift is the homological degree change; weight_change is an upper
    bound on the weight increase (0 means weight-non-increasing, negative
    means a strict drop by at least that amount).  d is the degree used for
    the weight grading.
    """

    fn: Callable[[SuperPoly], SuperPoly]
    degree_shift: int
    weight_change: int
    d: int
    name: str = ""

    def __call__(self, v: SuperPoly) -> SuperPoly:
        return self.fn(v)


def op_sum(a: LinearOp, b: LinearOp) -> LinearOp:
    return LinearOp(
        fn=lambda v: a.fn(v) + b.fn(v),
        degree_shift=a.degree_shift,
        weight_change=max(a.weight_change, b.weight_change),
        d=a.d,
        name=f"{a.name}+{b.name}",
    )


def neumann_apply(v: SuperPoly, d: int, eta: LinearOp, drop: LinearOp | None, solve=None) -> SuperPoly:
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
            if drop is None:
                continue
            e = eta.fn(SuperPoly._wrap(n, y_terms))
            if e.is_zero:
                continue
            for key, c in drop.fn(e).terms.items():
                ww = term_weight(key, d)
                if ww >= w:
                    raise NonTerminating(
                        f"operator {drop.name!r} declared weight change {drop.weight_change} "
                        f"but sent weight {w} to weight {ww}"
                    )
                bucket = pending.setdefault(ww, {})
                add_term(bucket, key, c)
                if not bucket:
                    pending.pop(ww, None)
    return SuperPoly._wrap(n, out)


def _xi_masks(n: int, h: int) -> list[int]:
    """All xi words with h factors among n variables, in canonical order."""
    if h == 0:
        return [0]
    masks = []
    for m in range(1 << n):
        if m.bit_count() == h:
            masks.append(m)
    masks.sort(key=lambda m: tuple(i for i in range(n) if m >> i & 1))
    return masks


def slice_basis(n: int, d: int, h: int, w: int) -> list[Key]:
    """Monomial basis of the (homological degree h, weight w) slice, lexicographic."""
    xdeg = w - (d - 1) * h
    if xdeg < 0 or h > n:
        return []
    keys = []
    for mask in _xi_masks(n, h):
        for e in monomials_of_degree(n, xdeg):
            keys.append((e, mask))
    keys.sort(key=lambda k: (k[0], k[1]))
    return keys


MAX_SLICE_ROWS = 256
"""Budget on the rows of one (degree, weight) slice; a larger slice is an InputError."""

MAX_OBSERVABLE_WEIGHT = 128
"""Budget on the weight of an observable to reduce; a heavier one is an InputError.

The transferred tau sweeps every weight level from the observable's weight
down (`neumann_apply`), applying the perturbation at each and solving a
slice at each when it has a weight-keeping part, so the cost grows with the
weight, and steeply with n: an n = 2 reduction near this budget takes
minutes without building a slice over MAX_SLICE_ROWS.
"""


class SliceSolver:
    """Applies (id - delta o eta)^{-1} for a perturbation delta = keep + drop.

    keep preserves weight exactly and drop strictly lowers it; both undo the
    homological degree that eta adds.  `apply` is the `neumann_apply` sweep
    from the top weight down.  Without keep the sweep is the plain Neumann
    series: no slice is built and drop o eta runs once per weight level.

    With keep, each (degree, weight) slice the sweep reaches is solved
    against id - keep o eta, assembled by `_slice` straight into Gaussian
    integers, each column over its own denominator, and factored once by
    `linalg.invert`.  Assembly also checks, once per slice, that eta keeps
    the weight of every basis monomial, so that drop o eta is all the sweep
    has left to apply.  The slice is memoized as its `Factor`: a
    fraction-free LU, an integer det and the columns of X = det (id - keep o
    eta)^{-1}, each solved on first use.  A bucket r is cleared to Gaussian
    integers over one common denominator L, X r is accumulated in integers
    over the columns r touches and each nonzero output entry is divided
    once, by L * det.  Concurrent readers see a consistent cache thanks to
    single-flight population of slices and columns under a lock.
    """

    def __init__(self, n: int, d: int, eta: LinearOp, keep: LinearOp | None, drop: LinearOp | None):
        for op in (keep, drop):
            if op is not None and op.degree_shift + eta.degree_shift != 0:
                raise ValueError("slice solving needs a perturbation that undoes eta's degree shift")
            if op is not None and op.weight_change + eta.weight_change > 0:
                raise ValueError("slice solving needs a weight-non-increasing perturbation")
        if keep is not None and keep.weight_change != 0:
            raise ValueError("the weight-keeping part must declare weight change 0")
        if drop is not None and drop.weight_change >= 0:
            raise ValueError("the weight-dropping part must declare a strict drop")
        self.n = n
        self.d = d
        self.eta = eta
        self.keep = keep
        self.drop = drop
        self.solves = keep is not None
        self._cache: dict[tuple[int, int], tuple] = {}
        self._lock = threading.Lock()

    def solved_weights(self) -> list[int]:
        return sorted({w for (_, w) in self._cache})

    def _in_slice(self, key: Key, w: int, index: dict[Key, int]) -> dict[Key, Scalar]:
        """The image of the basis monomial key under keep o eta, which must stay in its slice."""
        n, d = self.n, self.d
        e = self.eta.fn(SuperPoly._wrap(n, {key: ONE}))
        for kk in e.terms:
            if term_weight(kk, d) != w:
                raise NonTerminating(f"operator {self.eta.name!r} sent weight {w} to weight {term_weight(kk, d)}")
        if e.is_zero:
            return {}
        img = self.keep.fn(e).terms
        for kk in img:
            if kk not in index:
                raise NonTerminating(
                    f"operator {self.keep.name!r} declared weight change 0 "
                    f"but sent weight {w} to weight {term_weight(kk, d)}"
                )
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
        return neumann_apply(v, self.d, self.eta, self.drop, self._solve if self.solves else None)

    def _solve(self, h: int, w: int, vec_terms: dict[Key, Scalar]) -> dict[Key, Scalar]:
        """X r / det for the (h, w) slice and its terms r; a column of X is solved when r first needs it."""
        basis, index, factor = self._slice(h, w)
        if factor is None:
            return vec_terms
        cols = factor.columns
        rhs, den = clear_denominators(vec_terms.values())
        k = len(basis)
        yr = [0] * k
        yi = [0] * k
        for key, (ar, ai) in zip(vec_terms, rhs):
            j = index[key]
            col = cols[j]
            if col is None:
                with self._lock:
                    col = factor.column(j)
            if ai:
                for i, xr, xi in col:
                    yr[i] += xr * ar - xi * ai
                    yi[i] += xr * ai + xi * ar
            else:
                for i, xr, xi in col:
                    yr[i] += xr * ar
                    yi[i] += xi * ar
        # r = rhs / den, so X r / det = y / (den * det)
        scale = den * factor.det
        return {basis[i]: gauss(a, b, scale) for i, (a, b) in enumerate(zip(yr, yi)) if a or b}


@dataclass
class Retraction:
    """A retraction of a SuperPoly complex onto its degree-0 homology.

    tau maps V to H (realized however the caller likes, e.g. JacClass), phi is
    a section of tau, eta is the degree +1 homotopy on V, and diff is the
    differential of the V side, with phi o tau - id = diff o eta + eta o diff.
    The transferred differential on H is zero for every retraction this
    engine constructs; the exactness invariant tau o diff = 0 on degree-1
    inputs witnesses it.
    """

    n: int
    d: int
    tau: Callable[[SuperPoly], object]
    phi: Callable[[object], SuperPoly]
    eta: LinearOp
    diff: LinearOp
    solvers: tuple = ()

    def solved_weights(self) -> list[int]:
        ws: set[int] = set()
        for s in self.solvers:
            ws.update(s.solved_weights())
        return sorted(ws)


def perturb_retraction(r: Retraction, keep: LinearOp | None, drop: LinearOp | None) -> Retraction:
    """Transfer the retraction across the small deformation delta = keep + drop of its differential.

    keep is the part of delta that preserves weight exactly and drop the
    part that strictly lowers it; either may be None.  The caller
    guarantees (diff + delta)^2 = 0.  When H is concentrated in degree 0
    and V in non-negative degrees, delta o phi lands in degree -1 and
    vanishes, so phi and the zero differential on H carry over unchanged.
    (id - delta o eta)^{-1} is one SliceSolver, which builds slices only
    when keep is given.
    """
    solver = SliceSolver(r.n, r.d, r.eta, keep, drop)
    apply_inv = solver.apply
    tau0, eta0 = r.tau, r.eta
    diff = r.diff
    for op in (keep, drop):
        if op is not None:
            diff = op_sum(diff, op)
    name = "+".join(op.name for op in (keep, drop) if op is not None)

    new_eta = LinearOp(
        fn=lambda v: eta0.fn(apply_inv(v)),
        degree_shift=1,
        weight_change=eta0.weight_change,
        d=r.d,
        name=f"eta[{name}]",
    )
    return Retraction(
        n=r.n,
        d=r.d,
        tau=lambda v: tau0(apply_inv(v)),
        phi=r.phi,
        eta=new_eta,
        diff=diff,
        solvers=r.solvers + (solver,),
    )
