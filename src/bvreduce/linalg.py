"""Exact dense linear algebra over Q(i) via fraction-free (Bareiss) elimination.

Matrices are cleared to Gaussian integers column by column; a matrix with an
imaginary part B + iC is then replaced by its real embedding [[B, -C], [C, B]],
so one elimination on plain ints, `_forward_eliminate`, serves every matrix.
It uses the one-step Bareiss recurrence, whose divisions are exact in any
integral domain.  Everything stays in big integers until a single division at
the end, which keeps intermediate entries at minor-determinant size instead of
letting rational numerators blow up.

A square matrix is factored once by `invert` into a fraction-free LU, and the
columns of its inverse are solved on first use.  `rank` counts the pivots of
the same elimination on a rectangular matrix, halved for a complex one.
"""
from __future__ import annotations

import threading
from operator import mul

from .errors import SingularMatrix
from .scalars import ZERO, Scalar, clear_denominators, gauss


def _gaussian_columns(a: list[list[Scalar]]):
    """a cleared to Gaussian integers column by column, as (re, im, dens).

    a[i][j] = (re[i][j] + i*im[i][j]) / dens[j], and im is None for a real a.
    """
    cols = [clear_denominators(col) for col in zip(*a)]
    re = [list(row) for row in zip(*[[x for x, _ in g] for g, _ in cols])]
    im = None
    if any(y for g, _ in cols for _, y in g):
        im = [list(row) for row in zip(*[[y for _, y in g] for g, _ in cols])]
    return re, im, [den for _, den in cols]


def _realify(re: list[list[int]], im: list[list[int]] | None) -> list[list[int]]:
    """The real embedding [[B, -C], [C, B]] of B + iC, of twice the size and rank; B itself when C is None."""
    if im is None:
        return re
    return [b + [-x for x in c] for b, c in zip(re, im)] + [c + b for b, c in zip(re, im)]


def _forward_eliminate(m: list[list[int]]):
    """In-place fraction-free (Bareiss) row echelon of a rectangular integer matrix.

    Returns (steps, upper), one entry per pivot, so the rank is len(steps);
    a column with no pivot is skipped.  A step updates only the rows with a
    nonzero entry in its pivot column.  The others keep their entries: the
    factors piv / prev of the steps a row skips telescope, so its next update
    divides exactly by the pivot of its own last step, and a pivot row is
    brought up to date first.  Sparse slices and the block-sparse complex
    embedding cost only the rows touched.

    steps[t] is (i, lc, prev, piv, ups): the original index i of the pivot
    row, the pivot of the last step applied to it, the previous pivot, the
    pivot, and the (row, multiplier, divisor) of each row the step updated.
    upper[t] is (piv, tail), the pivot and the echelon row right of it.
    """
    rows = len(m)
    width = len(m[0]) if rows else 0
    ids = list(range(rows))  # ids[r]: the original index of the row now at position r
    last = [1] * rows  # last[i]: the pivot of the last step applied to original row i
    steps = []
    upper = []
    prev = 1
    r = 0
    for c in range(width):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            ids[r], ids[pr] = ids[pr], ids[r]
        row = m[r]
        lc = last[ids[r]]
        if lc != prev:
            # bring the pivot row through the steps it skipped
            row[c:] = [x * prev // lc for x in row[c:]]
        piv = row[c]
        tail = row[c + 1:]
        ups = []
        for i in range(r + 1, rows):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                o = ids[i]
                d = last[o]
                row_i[c + 1:] = [(piv * x - mic * y) // d for x, y in zip(row_i[c + 1:], tail)]
                last[o] = piv
                ups.append((o, mic, d))
        steps.append((ids[r], lc, prev, piv, ups))
        upper.append((piv, tail))
        prev = piv
        r += 1
    return steps, upper


def rank(rows: list[list[Scalar]]) -> int:
    """Exact rank of a rectangular Scalar matrix."""
    if not rows:
        return 0
    re, im, _ = _gaussian_columns(rows)
    steps, _ = _forward_eliminate(_realify(re, im))
    return len(steps) if im is None else len(steps) // 2


class Factor:
    """Fraction-free LU factor of a nonsingular square matrix A over Q(i), from `invert`.

    A is given cleared to Gaussian integers column by column, A = M D^{-1}
    with M = B + iC and D the diagonal of the column denominators `dens`,
    and M is eliminated on plain Python ints by `_forward_eliminate`.  A real
    M is factored as it is; a complex one through its real embedding
    [[B, -C], [C, B]] of twice the size, whose inverse carries Re and Im of
    M^{-1} in its upper and lower halves.  The factor keeps the pivot order,
    the echelon rows and each step's multipliers, and `det`, the last pivot:
    a nonzero integer with det * M^{-1} a Gaussian-integer matrix, and so
    X = det * A^{-1} = D (det * M^{-1}) as well.

    `columns[j]` is column j of X as its nonzero entries (i, re, im), or None
    until `column(j)` solves it: e_j is forward-substituted through the
    recorded steps, back-substituted on the echelon rows and its entry i
    scaled by dens[i].  Solved columns are memoized, and a column is solved
    under the factor's lock, so threads that race for it solve it once.
    `solve(r)` applies A^{-1} to a sparse Scalar vector r: r is cleared to
    Gaussian integers over one common denominator L, X r is accumulated in
    integers over the columns r touches and each nonzero entry is divided
    once, by L * det.
    """

    __slots__ = ("k", "det", "columns", "_dens", "_steps", "_upper", "_lock")

    def __init__(self, re: list[list[int]], im: list[list[int]] | None, dens: list[int]):
        k = len(re)
        m = _realify(re, im)
        steps, upper = _forward_eliminate(m)
        if len(steps) < len(m):
            rk = len(steps) if im is None else len(steps) // 2
            raise SingularMatrix(f"matrix of size {k} has rank {rk}")
        self.k = k
        self.det = steps[-1][3] if steps else 1
        self._dens = dens
        self._steps = steps
        self._upper = upper
        self._lock = threading.Lock()
        self.columns: list[list[tuple[int, int, int]] | None] = [None] * k

    def _solve_int(self, b: list[int]) -> list[int]:
        """x with M x = det * b for the factored integer matrix M, by forward and back substitution.

        b is carried through the recorded steps as one more column of M,
        lazily like the rows it belongs to.
        """
        y = list(b)
        z = []
        for i, lc, prev, piv, ups in self._steps:
            yc = y[i]
            if yc and lc != prev:
                yc = yc * prev // lc
            z.append(yc)
            for r, mic, d in ups:
                yr = y[r]
                if yc:
                    y[r] = (piv * yr - mic * yc) // d
                elif yr:
                    y[r] = piv * yr // d
        det = self.det
        size = len(z)
        x = [0] * size
        for c in range(size - 1, -1, -1):
            piv, row = self._upper[c]
            acc = det * z[c] - sum(map(mul, row, x[c + 1:]))
            x[c] = acc // piv if acc else 0
        return x

    def column(self, j: int) -> list[tuple[int, int, int]]:
        """Column j of X as its nonzero entries (i, re, im), solved once, on first use."""
        col = self.columns[j]
        if col is None:
            with self._lock:
                col = self.columns[j]
                if col is None:
                    k = self.k
                    # e_j, of the size of M or of its real embedding
                    x = self._solve_int([int(i == j) for i in range(len(self._upper))])
                    col = [(i, xr * den, xi * den)
                           for i, (xr, xi, den) in enumerate(zip(x, x[k:] or [0] * k, self._dens)) if xr or xi]
                    self.columns[j] = col
        return col

    def solve(self, rhs) -> dict[int, Scalar]:
        """A^{-1} r for a sparse Scalar vector r, given as a {j: r_j} map or as (j, r_j) pairs with distinct j.

        Returns the nonzero entries as {i: Scalar}.  Only the columns of X
        that r touches are solved.
        """
        rhs = rhs if isinstance(rhs, dict) else dict(rhs)
        g, den = clear_denominators(rhs.values())
        k = self.k
        cols = self.columns
        yr = [0] * k
        yi = [0] * k
        for j, (ar, ai) in zip(rhs, g):
            col = cols[j]
            if col is None:
                col = self.column(j)
            if ai:
                for i, xr, xi in col:
                    yr[i] += xr * ar - xi * ai
                    yi[i] += xr * ai + xi * ar
            else:
                for i, xr, xi in col:
                    yr[i] += xr * ar
                    yi[i] += xi * ar
        # r = g / den, so A^{-1} r = X g / (den * det)
        scale = den * self.det
        return {i: gauss(a, b, scale) for i, (a, b) in enumerate(zip(yr, yi)) if a or b}

    def inverse(self) -> list[list[Scalar]]:
        """A^{-1} as Scalar rows."""
        k, det = self.k, self.det
        rows = [[ZERO] * k for _ in range(k)]
        for j in range(k):
            for i, xr, xi in self.column(j):
                rows[i][j] = gauss(xr, xi, det)
        return rows


def solve_square(a: list[list[Scalar]], rhs_cols: list[list[Scalar]]) -> list[list[Scalar]]:
    """Solve A X = B for square A; columns of B are given as rhs_cols, and X is returned the same way.

    Raises SingularMatrix when A is rank-deficient.  A is factored once by
    `invert`, and each column is solved by `Factor.solve`.
    """
    f = invert(a)
    out = []
    for col in rhs_cols:
        x = f.solve({j: c for j, c in enumerate(col) if c})
        out.append([x.get(i, ZERO) for i in range(f.k)])
    return out


def invert(a: list[list], im: list[list[int]] | None = None, dens: list[int] | None = None) -> Factor:
    """The fraction-free LU `Factor` of a square matrix over Q(i).

    a is a square Scalar matrix, cleared here column by column.  A caller
    that builds the matrix in integers passes its rows of real parts as a,
    the rows of imaginary parts as im (None for a real matrix) and each
    column's denominator as dens: entry (i, j) is (a[i][j] + i*im[i][j]) / dens[j].

    The factor is computed once; columns of det * a^{-1} are solved on
    first use, and `inverse()` gives the whole inverse as Scalar rows.  det
    is the last Bareiss pivot of the cleared (and, for a complex matrix,
    realified) matrix, so it can differ from det(a) by a rational factor.
    Raises SingularMatrix when a is rank-deficient.
    """
    if dens is None:
        a, im, dens = _gaussian_columns(a)
    return Factor(a, im, dens)
