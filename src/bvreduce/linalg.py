"""Exact dense linear algebra over Q(i) via fraction-free (Bareiss) elimination.

Scalar matrices are cleared to Gaussian integers row by row, then eliminated
with the one-step Bareiss recurrence, whose divisions are exact in any
integral domain.  Everything stays in big integers until a single division at
the end, which keeps intermediate entries at minor-determinant size instead of
letting rational numerators blow up.
"""
from __future__ import annotations

from math import lcm
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


def _back_substitute(m: list[list[GInt]], pivots, ncols: int, nrhs: int) -> tuple[list[list[GInt]], GInt]:
    """Fraction-free back-substitution on a Bareiss echelon form.

    Solves the pivot rows of `m` for each of the `nrhs` augmented columns
    that follow the first `ncols`, with free variables set to zero, and
    returns (X, det).  The last pivot `det` is the determinant of the pivot
    minor, so by Cramer's rule X = det*x is a Gaussian-integer vector: each
    step X_c = (det*b_r - sum U_rj X_j) / U_rc divides exactly.  X[t] is the
    solution for the t-th right-hand side.
    """
    det = m[pivots[-1][0]][pivots[-1][1]] if pivots else _G1
    sols: list[list[GInt]] = []
    for t in range(ncols, ncols + nrhs):
        x = [_G0] * ncols
        solved: list[tuple[int, GInt]] = []
        for r, c in reversed(pivots):
            row = m[r]
            acc = _gmul(det, row[t])
            for j, xj in solved:
                urj = row[j]
                if urj != _G0:
                    acc = _gsub(acc, _gmul(urj, xj))
            xc = _gdiv_exact(acc, row[c])
            if xc != _G0:
                solved.append((c, xc))
                x[c] = xc
        sols.append(x)
    return sols, det


def to_scalars(rows: list[list[GInt]], det: GInt) -> list[list[Scalar]]:
    """Every Gaussian-integer entry X of `rows` as the exact Scalar X / det."""
    dr, di = det
    if not di:
        return [[ZERO if x == _G0 else gauss(x[0], x[1], dr) for x in row] for row in rows]
    # X / det = X * conj(det) / |det|^2
    norm = dr * dr + di * di
    return [
        [ZERO if x == _G0 else gauss(x[0] * dr + x[1] * di, x[1] * dr - x[0] * di, norm) for x in row]
        for row in rows
    ]


def _solve(m: list[list[GInt]], k: int, nrhs: int) -> tuple[list[list[GInt]], GInt]:
    """(X, det) for the cleared rows [A | B] of a square A: A X[t] = det * B[t].

    Raises SingularMatrix when A is rank-deficient.
    """
    pivots = _forward_eliminate(m, ncols=k)
    if len(pivots) < k:
        raise SingularMatrix(f"matrix of size {k} has rank {len(pivots)}")
    return _back_substitute(m, pivots, k, nrhs)


def solve_square(a: list[list[Scalar]], rhs_cols: list[list[Scalar]]) -> list[list[Scalar]]:
    """Solve A X = B for square A; columns of B are given as rhs_cols.

    Raises SingularMatrix when A is rank-deficient.  Back-substitution stays
    in Gaussian integers on the Bareiss echelon form (it solves for det*x);
    each solution entry costs one exact rational division at the end.
    """
    m = [clear_denominators(list(a[i]) + [col[i] for col in rhs_cols])[0] for i in range(len(a))]
    return to_scalars(*_solve(m, len(a), len(rhs_cols)))


def invert(a: list[list[Scalar]]) -> tuple[list[list[GInt]], GInt]:
    """Fraction-free inverse of a square Scalar matrix, as (X, det).

    X is a Gaussian-integer matrix (a list of rows) and det a nonzero
    Gaussian integer with a X = det I, so the inverse is X / det entry by
    entry; `to_scalars(X, det)` gives it as Scalar rows.  det is the last
    Bareiss pivot of the row-cleared matrix, so it can differ from det(a) by
    a rational factor.  Raises SingularMatrix when a is rank-deficient.
    """
    k = len(a)
    m = []
    for i, row in enumerate(a):
        # [den*a_i | den*e_i], the row cleared together with its identity row
        g, den = clear_denominators(row)
        g.extend((den, 0) if j == i else _G0 for j in range(k))
        m.append(g)
    cols, det = _solve(m, k, k)
    # cols[j] is the j-th column of X
    return [list(row) for row in zip(*cols)], det


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
    (x,) = to_scalars(*_back_substitute(m, pivots, k, 1))
    return x
