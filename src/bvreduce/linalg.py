"""Exact dense linear algebra over Q(i) via fraction-free (Bareiss) elimination.

Scalar matrices are cleared to Gaussian integers row by row, then eliminated
with the one-step Bareiss recurrence, whose divisions are exact in any
integral domain.  Everything stays in big integers until a single division at
the end, which keeps intermediate entries at minor-determinant size instead of
letting rational numerators blow up.

A square matrix is factored once by `invert` into a fraction-free LU on plain
ints (a complex matrix through its real embedding of twice the size), and the
columns of its inverse are solved on first use.  `rank` and
`particular_solution` eliminate rectangular matrices over Gaussian-integer
pairs.
"""
from __future__ import annotations

from math import lcm
from operator import mul
from typing import Iterable

from .errors import SingularMatrix
from .scalars import ZERO, Scalar, gauss

# A Gaussian integer is an (a, b) pair meaning a + b*i.
GInt = tuple[int, int]

_G0: GInt = (0, 0)
_G1: GInt = (1, 0)


def _gmul(x: GInt, y: GInt) -> GInt:
    a, b = x
    c, d = y
    if b == 0:
        if d == 0:
            return (a * c, 0)
        return (a * c, a * d)
    if d == 0:
        return (a * c, b * c)
    return (a * c - b * d, a * d + b * c)


def _gsub(x: GInt, y: GInt) -> GInt:
    return (x[0] - y[0], x[1] - y[1])


def _gdiv_exact(x: GInt, y: GInt) -> GInt:
    # x * conj(y) / |y|^2; the Bareiss recurrence and Cramer's rule guarantee exactness
    a, b = x
    c, d = y
    if d:
        n = c * c + d * d
        qr, rr = divmod(a * c + b * d, n)
        qi, ri = divmod(b * c - a * d, n)
    else:
        # a real divisor, as every pivot of a real matrix is
        qr, rr = divmod(a, c)
        qi, ri = divmod(b, c)
    if rr or ri:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qr, qi)


def clear_denominators(values: Iterable[Scalar]) -> tuple[list[GInt], int]:
    """Gaussian integers g and den, the lcm of all denominators, with values[j] == g[j] / den.

    Scaling a matrix row this way leaves rank and kernels unchanged.
    """
    vals = list(values)
    den = lcm(*(s.den for s in vals))
    return [(s.a * (den // s.den), s.b * (den // s.den)) for s in vals], den


def _forward_eliminate(m: list[list[GInt]], ncols: int | None = None):
    """In-place fraction-free row echelon; returns the pivot (row, col) list.

    Only the first `ncols` columns are searched for pivots; any further
    columns ride along as an augmented block.
    """
    rows = len(m)
    width = len(m[0]) if rows else 0
    if ncols is None:
        ncols = width
    pivots: list[tuple[int, int]] = []
    prev: GInt = _G1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if m[i][c] != _G0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            if mic == _G0:
                if prev != _G1:
                    for j in range(c + 1, width):
                        row_i[j] = _gdiv_exact(_gmul(piv, row_i[j]), prev)
                else:
                    for j in range(c + 1, width):
                        row_i[j] = _gmul(piv, row_i[j])
            else:
                for j in range(c + 1, width):
                    row_i[j] = _gdiv_exact(
                        _gsub(_gmul(piv, row_i[j]), _gmul(mic, row_r[j])), prev
                    )
            row_i[c] = _G0
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == rows:
            break
    return pivots


def rank(rows: list[list[Scalar]]) -> int:
    """Exact rank of a rectangular Scalar matrix."""
    if not rows:
        return 0
    m = [clear_denominators(row)[0] for row in rows]
    return len(_forward_eliminate(m))


def _back_substitute(m: list[list[GInt]], pivots, ncols: int) -> tuple[list[GInt], GInt]:
    """Fraction-free back-substitution on a Bareiss echelon form.

    Solves the pivot rows of `m` for the augmented column `ncols`, with free
    variables set to zero, and returns (X, det).  The last pivot `det` is the
    determinant of the pivot minor, so by Cramer's rule X = det*x is a
    Gaussian-integer vector: each step X_c = (det*b_r - sum U_rj X_j) / U_rc
    divides exactly.
    """
    det = m[pivots[-1][0]][pivots[-1][1]] if pivots else _G1
    x = [_G0] * ncols
    solved: list[tuple[int, GInt]] = []
    for r, c in reversed(pivots):
        row = m[r]
        acc = _gmul(det, row[ncols])
        for j, xj in solved:
            urj = row[j]
            if urj != _G0:
                acc = _gsub(acc, _gmul(urj, xj))
        xc = _gdiv_exact(acc, row[c])
        if xc != _G0:
            solved.append((c, xc))
            x[c] = xc
    return x, det


class Factor:
    """Fraction-free LU factor of a nonsingular square Scalar matrix A, from `invert`.

    The rows of A are cleared to Gaussian integers, row i by its own
    denominator den_i, and eliminated on plain Python ints by the one-step
    Bareiss recurrence.  A real A is factored as it is; a matrix with an
    imaginary part A' = B + iC is factored through its real embedding
    [[B, -C], [C, B]] of twice the size, whose inverse carries Re and Im of
    A'^{-1} in its upper and lower halves.  The factor keeps the pivot order,
    the echelon rows and each step's multipliers, and `det`, the last pivot:
    a nonzero integer with det * A^{-1} a Gaussian-integer matrix X.

    A step updates only the rows with a nonzero entry in the pivot column.
    The others keep their entries: the factors piv_c / piv_{c-1} of the
    steps a row skips telescope, so its next update divides exactly by the
    pivot of its own last step, and a pivot row is brought up to date first.
    Sparse slices and the block-sparse embedding cost only the rows touched.

    `columns[j]` is column j of X as its nonzero entries (i, re, im), or None
    until `column(j)` solves it: `den_j e_j` is forward-substituted through
    the recorded steps and back-substituted on the echelon rows.  Solved
    columns are memoized; `column` itself takes no lock.
    """

    __slots__ = ("k", "det", "columns", "_dens", "_steps", "_upper")

    def __init__(self, a: list[list[Scalar]]):
        k = len(a)
        cleared = [clear_denominators(row) for row in a]
        self.k = k
        self._dens = [den for _, den in cleared]
        if any(b for g, _ in cleared for _, b in g):
            m = [[x for x, _ in g] + [-y for _, y in g] for g, _ in cleared]
            m += [[y for _, y in g] + [x for x, _ in g] for g, _ in cleared]
        else:
            m = [[x for x, _ in g] for g, _ in cleared]
        size = len(m)
        ids = list(range(size))  # ids[r]: the original index of the row now at position r
        last = [1] * size  # last[i]: the pivot of the last step applied to original row i
        steps = []
        upper = []
        prev = 1
        for c in range(size):
            pr = next((r for r in range(c, size) if m[r][c]), None)
            if pr is None:
                raise SingularMatrix(f"matrix of size {k} has rank {rank(a)}")
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                ids[c], ids[pr] = ids[pr], ids[c]
            row = m[c]
            lc = last[ids[c]]
            if lc != prev:
                # bring the pivot row through the steps it skipped
                row[c:] = [x * prev // lc for x in row[c:]]
            piv = row[c]
            tail = row[c + 1:]
            ups = []
            for r in range(c + 1, size):
                row_r = m[r]
                mic = row_r[c]
                if mic:
                    i = ids[r]
                    d = last[i]
                    row_r[c + 1:] = [(piv * x - mic * y) // d for x, y in zip(row_r[c + 1:], tail)]
                    last[i] = piv
                    ups.append((i, mic, d))
            steps.append((ids[c], lc, prev, piv, ups))
            upper.append((piv, tail))
            prev = piv
        self.det = prev
        self._steps = steps
        self._upper = upper
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

    def solve(self, rhs: list[GInt]) -> list[GInt]:
        """X = det * A^{-1} rhs for a Gaussian-integer vector rhs, as Gaussian integers."""
        k = self.k
        b = [(x * den, y * den) for (x, y), den in zip(rhs, self._dens)]
        if len(self._upper) > k:
            x = self._solve_int([v for v, _ in b] + [v for _, v in b])
            return list(zip(x[:k], x[k:]))
        re = self._solve_int([v for v, _ in b])
        im = self._solve_int([v for _, v in b]) if any(v for _, v in b) else [0] * k
        return list(zip(re, im))

    def column(self, j: int) -> list[tuple[int, int, int]]:
        """Column j of X as its nonzero entries (i, re, im), solved on first use."""
        col = self.columns[j]
        if col is None:
            e = [_G1 if i == j else _G0 for i in range(self.k)]
            col = [(i, xr, xi) for i, (xr, xi) in enumerate(self.solve(e)) if xr or xi]
            self.columns[j] = col
        return col

    def inverse(self) -> list[list[Scalar]]:
        """A^{-1} as Scalar rows."""
        k, det = self.k, self.det
        rows = [[ZERO] * k for _ in range(k)]
        for j in range(k):
            for i, xr, xi in self.column(j):
                rows[i][j] = gauss(xr, xi, det)
        return rows


def solve_square(a: list[list[Scalar]], rhs_cols: list[list[Scalar]]) -> list[list[Scalar]]:
    """Solve A X = B for square A; columns of B are given as rhs_cols.

    Raises SingularMatrix when A is rank-deficient.  A is factored once by
    `invert`; each column is cleared over its own denominator L, solved in
    integers for det * x, and costs one exact rational division per entry.
    """
    f = invert(a)
    sols = []
    for col in rhs_cols:
        g, den = clear_denominators(col)
        scale = f.det * den
        sols.append([gauss(xr, xi, scale) if xr or xi else ZERO for xr, xi in f.solve(g)])
    return sols


def invert(a: list[list[Scalar]]) -> Factor:
    """The fraction-free LU `Factor` of a square Scalar matrix.

    The factor is computed once; columns of det * a^{-1} are solved on
    first use, and `inverse()` gives the whole inverse as Scalar rows.  det
    is the last Bareiss pivot of the row-cleared (and, for a complex
    matrix, realified) matrix, so it can differ from det(a) by a rational
    factor.  Raises SingularMatrix when a is rank-deficient.
    """
    return Factor(a)


def particular_solution(a: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """Some exact solution of A x = rhs with free variables set to zero, or None."""
    rows = len(a)
    if rows == 0:
        return []
    k = len(a[0])
    m = [clear_denominators(list(a[i]) + [rhs[i]])[0] for i in range(rows)]
    pivots = _forward_eliminate(m, ncols=k)
    piv_rows = {r for r, _ in pivots}
    for i in range(rows):
        if i not in piv_rows and m[i][k] != _G0:
            return None
    x, (dr, di) = _back_substitute(m, pivots, k)
    # X / det = X * conj(det) / |det|^2
    norm = dr * dr + di * di
    return [ZERO if v == _G0 else gauss(v[0] * dr + v[1] * di, v[1] * dr - v[0] * di, norm) for v in x]
