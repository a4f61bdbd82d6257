"""Exact linear algebra over Q(i) via fraction-free (Bareiss) elimination.

This module owns the matrix format.  A matrix is handed over as sparse
vectors {key: Scalar} in the caller's keys, a dense list of Scalar rows being
the same matrix keyed by position, and answers come back in those keys.
`_gaussian_columns` alone clears columns to Gaussian integers, one by one; a
matrix with an imaginary part B + iC is then replaced by its real embedding
[[B, -C], [C, B]], so one elimination on plain ints, `_forward_eliminate`,
serves every matrix.  It uses the one-step Bareiss recurrence, whose
divisions are exact in any integral domain.  Everything stays in big integers
until a single division at the end, which keeps intermediate entries at
minor-determinant size instead of letting rational numerators blow up.

A square matrix is factored once by `invert` into a fraction-free LU, and the
columns of its inverse are solved on first use.  `rank` counts the pivots of
the same elimination on a rectangular matrix, halved for a complex one.
"""
from __future__ import annotations

import threading
from math import lcm
from operator import mul

from .errors import SingularMatrix
from .scalars import ZERO, Scalar, clear_denominators, gauss


def _gaussian_columns(cols, row_keys) -> tuple[list[list[int]], bool, list[int]]:
    """Sparse columns {row key: Scalar} cleared to Gaussian integers one by one, as (m, realified, dens).

    Rows follow the order of row_keys, and column j is cleared over dens[j]
    to B + iC.  m is B for a real matrix and otherwise its real embedding
    [[B, -C], [C, B]], of twice the size and rank.  A row key not in
    row_keys is a ValueError.
    """
    width = len(cols)
    re = {key: [0] * width for key in row_keys}
    im = None
    dens = []
    for j, col in enumerate(cols):
        # a list, not a generator: lcm(*<genexpr>) in a hot loop grows the process's memory
        den = lcm(*[s.den for s in col.values()])
        dens.append(den)
        for key, s in col.items():
            f = den // s.den
            try:
                re[key][j] = s.a * f
            except KeyError:
                raise ValueError(f"row key {key!r} is not a column key") from None
            if s.b:
                if im is None:
                    im = {key: [0] * width for key in re}
                im[key][j] = s.b * f
    if im is None:
        return list(re.values()), False, dens
    pairs = list(zip(re.values(), im.values()))
    return [b + [-x for x in c] for b, c in pairs] + [c + b for b, c in pairs], True, dens


def _forward_eliminate(m: list[list[int]]):
    """In-place fraction-free (Bareiss) row echelon of a rectangular integer matrix.

    Returns (steps, upper), one entry per pivot, so the rank is len(steps);
    a column with no pivot is skipped.  A step updates only the rows with a
    nonzero entry in its pivot column.  The others keep their entries: the
    factors piv / prev of the steps a row skips telescope, so its next update
    divides exactly by the pivot of its own last step, and a pivot row is
    brought up to date first.  Sparse slices and the block-sparse complex
    embedding cost only the rows touched, and within a row an entry whose
    two operands are 0 stays 0 and a division by 1 is not made.

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
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            ids[r], ids[pr] = ids[pr], ids[r]
        row = m[r]
        lc = last[ids[r]]
        if lc != prev:
            # bring the pivot row through the steps it skipped
            row[c:] = [x * prev // lc if x else 0 for x in row[c:]]
        piv = row[c]
        tail = row[c + 1:]
        ups = []
        for i in range(r + 1, rows):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                o = ids[i]
                d = last[o]
                if d == 1:
                    row_i[c + 1:] = [piv * x - mic * y if x or y else 0 for x, y in zip(row_i[c + 1:], tail)]
                else:
                    row_i[c + 1:] = [(piv * x - mic * y) // d if x or y else 0 for x, y in zip(row_i[c + 1:], tail)]
                last[o] = piv
                ups.append((o, mic, d))
        steps.append((ids[r], lc, prev, piv, ups))
        upper.append((piv, tail))
        prev = piv
        r += 1
    return steps, upper


def rank(vectors: list) -> int:
    """The dimension of the span of sparse vectors {key: Scalar} over Q(i); a dense row is keyed by position."""
    vectors = [v if isinstance(v, dict) else dict(enumerate(v)) for v in vectors]
    # the vectors are the columns of a matrix with a row per key: rank(A^T) = rank(A)
    m, realified, _ = _gaussian_columns(vectors, dict.fromkeys(key for v in vectors for key in v))
    steps, _ = _forward_eliminate(m)
    return len(steps) // 2 if realified else len(steps)


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
    X = det * A^{-1} = D (det * M^{-1}) as well.  `keys` lists the column
    keys of A in the caller's order, which key its rows too.

    `solve_cleared(keys, g)` finds X g in integers for Gaussian integers g,
    the caller's vector r cleared over one denominator L, so that A^{-1} r =
    X g / (L * det); `solve(r)` clears a sparse Scalar vector r and divides
    each nonzero entry of X g once, by L * det.  The factor's first solve
    substitutes g itself through `_solve_int` ([Re g; Im g] for a realified
    M, Re g and Im g apart for a real one) and memoizes nothing; later solves
    sum X g over memoized columns.  `columns[key]` is that column of X as
    its nonzero entries (i, re, im), i a position in `keys`, or None until
    `column(key)` substitutes e_j through `_substitute`.  The first
    solve and each column are taken under the factor's lock, so racing
    callers substitute directly once and solve each column once.
    """

    __slots__ = ("k", "keys", "det", "columns", "_dens", "_steps", "_upper", "_lock", "_used")

    def __init__(self, a: dict, m: list[list[int]], realified: bool, dens: list[int]):
        k = len(a)
        steps, upper = _forward_eliminate(m)
        if len(steps) < len(m):
            rk = len(steps) // 2 if realified else len(steps)
            raise SingularMatrix(f"matrix of size {k} has rank {rk}")
        self.k = k
        self.keys = list(a)
        self.det = steps[-1][3] if steps else 1
        self._dens = dens
        self._steps = steps
        self._upper = upper
        self._lock = threading.Lock()
        self._used = False
        self.columns: dict = dict.fromkeys(a)

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
                    yr = piv * yr - mic * yc
                elif yr:
                    yr *= piv
                else:
                    continue
                y[r] = yr if d == 1 else yr // d
        det = self.det
        size = len(z)
        x = [0] * size
        for c in range(size - 1, -1, -1):
            piv, row = self._upper[c]
            acc = det * z[c] - sum(map(mul, row, x[c + 1:]))
            x[c] = acc // piv if acc else 0
        return x

    def column(self, key) -> list[tuple[int, int, int]]:
        """The column of X at key as its nonzero entries (i, re, im), solved once, on first use."""
        col = self.columns[key]
        if col is None:
            with self._lock:
                col = self.columns[key]
                if col is None:
                    xr, xi = self._substitute((key,), [(1, 0)])
                    col = self.columns[key] = [(i, a, b) for i, (a, b) in enumerate(zip(xr, xi)) if a or b]
        return col

    def solve(self, rhs: dict) -> dict:
        """A^{-1} r for a sparse Scalar vector r given as {key: r_key}, returned the same way, zeros omitted."""
        g, den = clear_denominators(rhs.values())
        yr, yi = self.solve_cleared(rhs, g)
        # r = g / den, so A^{-1} r = X g / (den * det)
        scale = den * self.det
        return {key: gauss(a, b, scale) for key, a, b in zip(self.keys, yr, yi) if a or b}

    def solve_cleared(self, keys, g: list) -> tuple[list[int], list[int]]:
        """X g for Gaussian integers g, g[j] at keys[j], as (re, im) lists in the order of `self.keys`.

        A right-hand side r cleared to g over L has A^{-1} r = X g / (L * det).
        The factor's first solve substitutes g itself and memoizes nothing;
        every later one sums only the columns of X that g touches.
        """
        first = False
        if not self._used:
            # under the lock, so exactly one caller takes the first solve
            with self._lock:
                first, self._used = not self._used, True
        if first:
            return self._substitute(keys, g)
        k = self.k
        cols = self.columns
        yr = [0] * k
        yi = [0] * k
        for key, (ar, ai) in zip(keys, g):
            col = cols[key]
            if col is None:
                col = self.column(key)
            if ai:
                for i, xr, xi in col:
                    yr[i] += xr * ar - xi * ai
                    yi[i] += xr * ai + xi * ar
            else:
                for i, xr, xi in col:
                    yr[i] += xr * ar
                    yi[i] += xi * ar
        return yr, yi

    def _substitute(self, keys, g: list) -> tuple[list[int], list[int]]:
        """X g as (re, im) lists in key order, by substituting g itself: [re; im] for a realified M."""
        k = self.k
        index = {key: i for i, key in enumerate(self.keys)}
        br = [0] * k
        bi = [0] * k
        for key, (a, b) in zip(keys, g):
            i = index[key]
            br[i] = a
            bi[i] = b
        if len(self._upper) > k:
            x = self._solve_int(br + bi)
            xr, xi = x[:k], x[k:]
        else:
            xr = self._solve_int(br)
            xi = self._solve_int(bi) if any(bi) else bi
        dens = self._dens
        return list(map(mul, xr, dens)), list(map(mul, xi, dens))

    def inverse(self) -> list[list[Scalar]]:
        """A^{-1} as Scalar rows, rows and columns in key order."""
        k, det = self.k, self.det
        rows = [[ZERO] * k for _ in range(k)]
        for j, key in enumerate(self.keys):
            for i, xr, xi in self.column(key):
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


def invert(a) -> Factor:
    """The fraction-free LU `Factor` of a square matrix over Q(i).

    a is given as its sparse columns {key: {row key: Scalar}}, in the
    caller's order; every row key must be a column key.  A dense list of
    Scalar rows is the same matrix keyed by position.

    The factor is computed once; columns of det * a^{-1} are solved on
    first use, and `inverse()` gives the whole inverse as Scalar rows.  det
    is the last Bareiss pivot of the cleared (and, for a complex matrix,
    realified) matrix, so it can differ from det(a) by a rational factor.
    Raises ValueError when a is not square and SingularMatrix when it is
    rank-deficient.
    """
    if isinstance(a, list):
        if any(len(row) != len(a) for row in a):
            raise ValueError(f"a dense matrix of {len(a)} rows is not square")
        a = {j: {i: row[j] for i, row in enumerate(a)} for j in range(len(a))}
    return Factor(a, *_gaussian_columns(a.values(), a))
