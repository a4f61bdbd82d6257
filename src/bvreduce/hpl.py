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
deformation.  Smallness of delta is certified from the declared weight
change of t = delta o eta, which must not be positive.  A SliceSolver
applies (id - t)^{-1} by one sweep from the top weight down,
`neumann_apply`.  When t declares weight change 0, id - t is assembled in
the monomial basis of each finite (homological degree, weight) slice the
sweep reaches and factored once by fraction-free Gaussian elimination, with
the columns of its inverse solved on first use, and t's strictly
weight-lowering part feeds the lower slices.  When t declares a strict
drop, no slice is built and the sweep is the Neumann series grouped by
weight, t applied once per weight level.  An image of t that its
declaration does not allow is a NonTerminating error, never a silent
truncation.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb
from typing import Callable

from .errors import InputError, NonTerminating, NotGenericAtWeight, SingularMatrix
from .linalg import invert
from .scalars import ONE, ZERO, Scalar, clear_denominators, gauss
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree, term_weight

# When true, every LinearOp call re-checks its declared degree shift and
# weight change on the actual output.  Meant for the invariant test suite;
# too slow to leave on in production pipelines.
CHECK_DECLARED = False


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
        out = self.fn(v)
        if CHECK_DECLARED and not v.is_zero and not out.is_zero:
            for key in out.terms:
                h = key[1].bit_count()
                w = term_weight(key, self.d)
                ok = any(
                    k[1].bit_count() + self.degree_shift == h
                    and term_weight(k, self.d) + self.weight_change >= w
                    for k in v.terms
                )
                if not ok:
                    raise AssertionError(
                        f"operator {self.name or self.fn} violated its declaration on {key}"
                    )
        return out


def compose(outer: LinearOp, inner: LinearOp) -> LinearOp:
    return LinearOp(
        # a linear outer map sends the zero it is handed to zero
        fn=lambda v: w if (w := inner.fn(v)).is_zero else outer.fn(w),
        degree_shift=outer.degree_shift + inner.degree_shift,
        weight_change=outer.weight_change + inner.weight_change,
        d=outer.d,
        name=f"{outer.name}*{inner.name}",
    )


def op_sum(a: LinearOp, b: LinearOp) -> LinearOp:
    return LinearOp(
        fn=lambda v: a.fn(v) + b.fn(v),
        degree_shift=a.degree_shift,
        weight_change=max(a.weight_change, b.weight_change),
        d=a.d,
        name=f"{a.name}+{b.name}",
    )


def neumann_apply(t: LinearOp, v: SuperPoly, d: int, solve=None) -> SuperPoly:
    """(id - t)^{-1} v for a degree-preserving, weight-non-increasing t, swept from the top weight down.

    Write t = t0 + t1, with t0 the part of t that stays in its (homological
    degree, weight) slice and t1 the strictly weight-lowering rest.  Then
    (id - t)^{-1} = sum_k (S t1)^k S with S = (id - t0)^{-1}, a Neumann series
    in t1 that ends because weight is a non-negative integer.  The sweep
    groups it by weight: at weight w it sets y = S(bucket w), adds y to the
    output and hands t(y) below w on to the lower buckets, so t runs once per
    weight level.  solve(h, w, terms) applies S to a bucket; a t that declares
    a strict weight drop has t0 = 0 and needs none.  An image of t that the
    declaration does not allow (at or above its source weight without solve,
    above it with solve) is a NonTerminating error, never a silent truncation.
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
            # t(y) at weight w is what S has accounted for; below w it feeds the lower buckets
            for key, c in t.fn(SuperPoly(n, y_terms)).terms.items():
                ww = term_weight(key, d)
                if ww >= w:
                    if ww == w and solve is not None:
                        continue
                    raise NonTerminating(
                        f"operator {t.name!r} declared weight change {t.weight_change} "
                        f"but sent weight {w} to weight {ww}"
                    )
                bucket = pending.setdefault(ww, {})
                add_term(bucket, key, c)
                if not bucket:
                    pending.pop(ww, None)
    return SuperPoly(n, out)


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
down (`neumann_apply`), applying t at each and solving a slice at each when t
keeps weight, so the cost grows with the weight, and steeply with n: an n = 2
reduction near this budget takes minutes without building a slice over
MAX_SLICE_ROWS.
"""


class SliceSolver:
    """Applies (id - t)^{-1} for a degree-preserving, weight-non-increasing t.

    `apply` is the `neumann_apply` sweep from the top weight down, which
    solves each weight's bucket against its slice.  When t declares a strict
    weight drop it has no in-slice part, so no slice is built and the sweep
    is the plain Neumann series, with t applied once per weight level.

    When t declares weight change 0, the matrix of id - t on each (degree,
    weight) slice is factored once by `linalg.invert` and memoized as its
    `Factor`: a fraction-free LU, an integer det and the columns of
    X = det (id - t)^{-1}, each solved on first use.  A slice's right-hand side r is cleared to Gaussian integers
    over one common denominator L, X r is accumulated in integers over the
    columns r touches and each nonzero output entry is divided once, by
    L * det.  Concurrent readers see a consistent cache thanks to
    single-flight population of slices and columns under a lock.
    """

    def __init__(self, n: int, d: int, t: LinearOp):
        if t.degree_shift != 0:
            raise ValueError("slice solving needs a degree-preserving operator")
        if t.weight_change > 0:
            raise ValueError("slice solving needs a weight-non-increasing operator")
        self.n = n
        self.d = d
        self.t = t
        self._cache: dict[tuple[int, int], tuple] = {}
        self._lock = threading.Lock()

    def solved_weights(self) -> list[int]:
        return sorted({w for (_, w) in self._cache})

    def _slice(self, h: int, w: int):
        got = self._cache.get((h, w))
        if got is not None:
            return got
        with self._lock:
            got = self._cache.get((h, w))
            if got is not None:
                return got
            n = self.n
            # the size of slice_basis(n, d, h, w), counted before anything is built
            xdeg = w - (self.d - 1) * h
            k = comb(n, h) * comb(xdeg + n - 1, n - 1) if xdeg >= 0 else 0
            if k > MAX_SLICE_ROWS:
                raise InputError(
                    f"the (degree {h}, weight {w}) slice has {k} rows, over the budget of {MAX_SLICE_ROWS}"
                )
            basis = slice_basis(n, self.d, h, w)
            index = {key: i for i, key in enumerate(basis)}
            # id - t, with t's images written into the identity rows
            mat = [[ZERO] * k for _ in range(k)]
            for i in range(k):
                mat[i][i] = ONE
            nontrivial = False
            for j, key in enumerate(basis):
                img = self.t.fn(SuperPoly(n, {key: ONE}))
                for kk, c in img.terms.items():
                    i = index.get(kk)
                    if i is not None:
                        mat[i][j] = mat[i][j] - c
                        nontrivial = True
            factor = None
            if nontrivial:
                try:
                    factor = invert(mat)
                except SingularMatrix:
                    raise NotGenericAtWeight(w) from None
            entry = (basis, index, factor)
            self._cache[(h, w)] = entry
            return entry

    def apply(self, v: SuperPoly) -> SuperPoly:
        return neumann_apply(self.t, v, self.d, self._solve if self.t.weight_change == 0 else None)

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


def perturb_retraction(r: Retraction, delta: LinearOp) -> Retraction:
    """Transfer the retraction across the small deformation delta of its differential.

    The caller guarantees (diff + delta)^2 = 0.  When H is concentrated in
    degree 0 and V in non-negative degrees, delta o phi lands in degree -1 and
    vanishes, so phi and the zero differential on H carry over unchanged.
    (id - delta o eta)^{-1} is one SliceSolver, which builds slices only when
    the declared weight change of delta o eta is 0.
    """
    solver = SliceSolver(r.n, r.d, compose(delta, r.eta))
    apply_inv = solver.apply
    tau0, eta0 = r.tau, r.eta

    new_eta = LinearOp(
        fn=lambda v: eta0.fn(apply_inv(v)),
        degree_shift=1,
        weight_change=eta0.weight_change,
        d=r.d,
        name=f"eta[{delta.name}]",
    )
    return Retraction(
        n=r.n,
        d=r.d,
        tau=lambda v: tau0(apply_inv(v)),
        phi=r.phi,
        eta=new_eta,
        diff=op_sum(r.diff, delta),
        solvers=r.solvers + (solver,),
    )
