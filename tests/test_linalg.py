import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvreduce import Scalar, SingularMatrix, q
from bvreduce.linalg import Factor, _forward_eliminate, invert, rank
from bvreduce.scalars import clear_denominators, gauss


def _rand_scalar(rng, height=6, complex_part=True):
    re = Fraction(rng.randint(-height, height), rng.randint(1, 3))
    im = Fraction(rng.randint(-height, height), rng.randint(1, 3)) if complex_part and rng.random() < 0.4 else 0
    return Scalar(q(re.numerator, re.denominator), q(*(im.numerator, im.denominator)) if im else 0)


def _mat(rng, rows, cols, complex_part=True):
    return [[_rand_scalar(rng, complex_part=complex_part) for _ in range(cols)] for _ in range(rows)]


def _fraction_echelon(m):
    """Plain Gaussian elimination over complex Fractions, the cross-check route.

    Reduces m (rows of complex-Fraction pairs) in place to row echelon form
    and returns the pivot (row, col) list.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != (0, 0)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] == (0, 0):
                continue
            f = cdiv(m[i][c], pr)
            m[i] = [csub(a, cmul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    return pivots


def _fraction_gauss_rank(m):
    return len(_fraction_echelon([[complexfrac(v) for v in row] for row in m]))


def _fraction_gauss_solve(a, b):
    """x with a x = b for square nonsingular a, as complex-Fraction pairs."""
    k = len(a)
    m = [[complexfrac(v) for v in a[i]] + [complexfrac(b[i])] for i in range(k)]
    assert _fraction_echelon(m) == [(i, i) for i in range(k)]
    x = [(Fraction(0), Fraction(0))] * k
    for i in range(k - 1, -1, -1):
        acc = m[i][k]
        for j in range(i + 1, k):
            acc = csub(acc, cmul(m[i][j], x[j]))
        x[i] = cdiv(acc, m[i][i])
    return x


def complexfrac(s: Scalar):
    return (Fraction(int(s.re.numerator), int(s.re.denominator)),
            Fraction(int(s.im.numerator), int(s.im.denominator)))


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def test_rank_matches_fraction_oracle():
    rng = random.Random(21)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _mat(rng, rows, cols)
        if rng.random() < 0.4 and rows > 1:
            # plant a dependent row
            c = _rand_scalar(rng)
            m[-1] = [c * v for v in m[0]]
        assert rank(m) == _fraction_gauss_rank(m)


def test_invert_solve_random():
    rng = random.Random(22)
    for _ in range(20):
        k = rng.randint(1, 6)
        while True:
            a = _mat(rng, k, k)
            if rank(a) == k:
                break
        x_true = [_rand_scalar(rng) for _ in range(k)]
        b = [sum((a[i][j] * x_true[j] for j in range(k)), Scalar(0)) for i in range(k)]
        x = invert(a).solve(dict(enumerate(b)))
        assert [x.get(i, Scalar(0)) for i in range(k)] == x_true


def test_invert_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(1, 5)
        while True:
            a = _mat(rng, k, k)
            if rank(a) == k:
                break
        inv = invert(a).inverse()
        for i in range(k):
            for j in range(k):
                s = sum((a[i][t] * inv[t][j] for t in range(k)), Scalar(0))
                assert s == (Scalar(1) if i == j else Scalar(0))


def test_singular_detected():
    a = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]]
    with pytest.raises(SingularMatrix):
        invert(a).solve({0: Scalar(1)})


def _frac_scalar(re, im=0):
    re, im = Fraction(re), Fraction(im)
    return Scalar(q(re.numerator, re.denominator), q(im.numerator, im.denominator))


def _as_scalars(pairs):
    return [_frac_scalar(re, im) for re, im in pairs]


def test_invert_solve_row_swap_complex_mixed_denominators():
    # a zero leading entry forces a row swap; each row has its own denominator
    a = [
        [_frac_scalar(0), _frac_scalar(Fraction(2, 3), 1), _frac_scalar(Fraction(-1, 3))],
        [_frac_scalar(Fraction(1, 5), Fraction(-2, 5)), _frac_scalar(Fraction(3, 5)), _frac_scalar(0, Fraction(4, 5))],
        [_frac_scalar(Fraction(5, 7)), _frac_scalar(Fraction(-1, 7), Fraction(2, 7)), _frac_scalar(Fraction(6, 7), 1)],
    ]
    b = [_frac_scalar(1, Fraction(-1, 2)), _frac_scalar(Fraction(3, 4)), _frac_scalar(0, Fraction(5, 6))]
    x = invert(a).solve(dict(enumerate(b)))
    x = [x.get(i, Scalar(0)) for i in range(3)]
    assert x == _as_scalars(_fraction_gauss_solve(a, b))
    assert [sum((a[i][j] * x[j] for j in range(3)), Scalar(0)) for i in range(3)] == b
    inv = invert(a).inverse()
    for j in range(3):
        e = [Scalar(1) if i == j else Scalar(0) for i in range(3)]
        assert [row[j] for row in inv] == _as_scalars(_fraction_gauss_solve(a, e))


def test_invert_adjugate_form_with_row_swap():
    # zero leading entry forces a row swap; complex entries, a denominator per entry
    rng = random.Random(26)
    complex_mats = 0
    for _ in range(12):
        k = rng.randint(2, 6)
        while True:
            a = _mat(rng, k, k)
            a[0][0] = Scalar(0)
            if rank(a) == k:
                break
        complex_mats += any(v.b for row in a for v in row)
        f = invert(a)
        det = f.det
        assert isinstance(det, int) and det
        x = [[(0, 0)] * k for _ in range(k)]
        for j in range(k):
            for i, xr, xi in f.column(j):
                x[i][j] = (xr, xi)
        assert all(isinstance(v, int) for row in x for pair in row for v in pair)
        # a X == det I, with X exact Gaussian integers and det an integer
        xs = [[Scalar(xr, xi) for xr, xi in row] for row in x]
        ax = [[sum((a[i][t] * xs[t][j] for t in range(k)), Scalar(0)) for j in range(k)] for i in range(k)]
        d = Scalar(det)
        assert ax == [[d if i == j else Scalar(0) for j in range(k)] for i in range(k)]
        # the converted rows are the Fraction reference inverse
        inv = f.inverse()
        for j in range(k):
            e = [Scalar(1) if i == j else Scalar(0) for i in range(k)]
            assert [row[j] for row in inv] == _as_scalars(_fraction_gauss_solve(a, e))
    assert complex_mats


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_lazy_columns_match_fraction_reference(data):
    # real and Gaussian matrices with a zero leading entry, so the first step swaps rows
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(2, 6))
    complex_part = data.draw(st.booleans())
    while True:
        a = _mat(rng, k, k, complex_part=complex_part)
        a[0][0] = Scalar(0)
        if rank(a) == k:
            break
    f = invert(a)
    assert f.columns == dict.fromkeys(range(k))
    for j in data.draw(st.permutations(range(k))):
        col = f.column(j)
        assert f.columns[j] is col
        x = [Scalar(0)] * k
        for i, xr, xi in col:
            assert xr or xi
            x[i] = Scalar(Fraction(xr, f.det), Fraction(xi, f.det))
        e = [Scalar(1) if i == j else Scalar(0) for i in range(k)]
        assert x == _as_scalars(_fraction_gauss_solve(a, e))
    # a planted dependent row makes the matrix singular
    c = _rand_scalar(rng)
    a[-1] = [c * v for v in a[0]]
    with pytest.raises(SingularMatrix):
        invert(a)


def _lazy_bareiss_reference(m):
    """The lazy one-step Bareiss recurrence written out plainly: every entry of a touched row is recomputed.

    Returns (steps, upper) in the format of `_forward_eliminate`; each
    division is checked to be exact.
    """
    m = [list(row) for row in m]
    rows, width = len(m), len(m[0]) if m else 0
    ids = list(range(rows))
    last = [1] * rows
    steps, upper = [], []
    prev, r = 1, 0
    for c in range(width):
        if r == rows:
            break
        nonzero = [i for i in range(r, rows) if m[i][c] != 0]
        if not nonzero:
            continue
        pr = nonzero[0]
        m[r], m[pr] = m[pr], m[r]
        ids[r], ids[pr] = ids[pr], ids[r]
        lc = last[ids[r]]
        scaled = []
        for x in m[r][c:]:
            q_, rem = divmod(x * prev, lc)
            assert rem == 0
            scaled.append(q_)
        m[r][c:] = scaled
        piv, tail = m[r][c], m[r][c + 1:]
        ups = []
        for i in range(r + 1, rows):
            mic = m[i][c]
            if mic == 0:
                continue
            d = last[ids[i]]
            new = []
            for x, y in zip(m[i][c + 1:], tail):
                q_, rem = divmod(piv * x - mic * y, d)
                assert rem == 0
                new.append(q_)
            m[i][c + 1:] = new
            last[ids[i]] = piv
            ups.append((ids[i], mic, d))
        steps.append((ids[r], lc, prev, piv, ups))
        upper.append((piv, tail))
        prev = piv
        r += 1
    return steps, upper


def _eager_bareiss_reference(m):
    """Textbook Bareiss: every row below the pivot is updated at every step.  Returns [(row, piv, tail)]."""
    m = [list(row) for row in m]
    rows, width = len(m), len(m[0]) if m else 0
    ids = list(range(rows))
    out = []
    prev, r = 1, 0
    for c in range(width):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        ids[r], ids[pr] = ids[pr], ids[r]
        piv = m[r][c]
        for i in range(r + 1, rows):
            m[i][c + 1:] = [(piv * x - m[i][c] * y) // prev for x, y in zip(m[i][c + 1:], m[r][c + 1:])]
            m[i][c] = 0
        out.append((ids[r], piv, m[r][c + 1:]))
        prev = piv
        r += 1
    return out


@st.composite
def _integer_matrices(draw):
    """Small rectangular integer matrices, mostly zeros and units, some with planted dependent rows."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 1, 2, -2, 3, -5, 7])
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(2, rows):
        if draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            m[i] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def _check_forward_eliminate(m):
    steps, upper = _forward_eliminate([list(row) for row in m])
    assert (steps, upper) == _lazy_bareiss_reference(m)
    assert [(s[0], s[3], tail) for s, (_, tail) in zip(steps, upper)] == _eager_bareiss_reference(m)
    return steps


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_integer_matrices())
@example([[0, 2, 1], [3, 0, 4], [0, 0, 5]])  # a row swap at the first step
@example([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0]])  # divisor-1 steps and a zero row at the end
@example([[2, 0, 1, 3], [0, 3, 0, 1], [1, 0, 0, 2]])  # the last row skips a step and is rescaled as pivot
def test_forward_eliminate_matches_plain_bareiss(m):
    _check_forward_eliminate(m)


def test_forward_eliminate_cases_reach_each_shortcut():
    """Each explicit case above takes the path it names, so the property test covers every shortcut."""
    steps = _check_forward_eliminate([[0, 2, 1], [3, 0, 4], [0, 0, 5]])
    assert steps[0][0] == 1
    steps = _check_forward_eliminate([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert any(d == 1 for *_, ups in steps for _, _, d in ups) and len(steps) == 3
    steps = _check_forward_eliminate([[2, 0, 1, 3], [0, 3, 0, 1], [1, 0, 0, 2]])
    assert any(lc != prev for _, lc, prev, _, _ in steps)


def _dense_fraction_solve(a, rhs):
    """The nonzero entries of a^{-1} rhs for a sparse rhs {j: Scalar}, by the Fraction route."""
    b = [rhs.get(j, Scalar(0)) for j in range(len(a))]
    return {i: x for i, x in enumerate(_as_scalars(_fraction_gauss_solve(a, b))) if x}


def _solved_columns(f):
    return [j for j, col in f.columns.items() if col is not None]


def test_factor_solve_sparse_rhs_matches_fraction_reference():
    rng = random.Random(27)
    k = 5
    real_rhs = {1: _frac_scalar(Fraction(2, 3)), 3: _frac_scalar(Fraction(-5, 4)), 4: _frac_scalar(7)}
    complex_rhs = {0: _frac_scalar(1, Fraction(-1, 2)), 4: _frac_scalar(0, Fraction(3, 7))}
    for complex_matrix in (False, True):
        while True:
            a = _mat(rng, k, k, complex_part=complex_matrix)
            if rank(a) == k and any(v.b for row in a for v in row) == complex_matrix:
                break
        f = invert(a)
        assert f.solve(real_rhs) == _dense_fraction_solve(a, real_rhs)
        # the first solve substitutes the right-hand side itself and memoizes nothing
        assert _solved_columns(f) == []
        # a later solve memoizes exactly the columns it touches
        assert f.solve(complex_rhs) == _dense_fraction_solve(a, complex_rhs)
        assert _solved_columns(f) == [0, 4]
        assert f.solve(real_rhs) == _dense_fraction_solve(a, real_rhs)
        assert _solved_columns(f) == [0, 1, 3, 4]
        # a right-hand side on one column solves that column alone, once the first solve is spent
        single = {2: _frac_scalar(Fraction(3, 5), 1)}
        g = invert(a)
        for solved in ([], [2]):
            assert g.solve(single) == _dense_fraction_solve(a, single)
            assert _solved_columns(g) == solved
        assert g.solve({}) == {}


def test_solve_cleared_is_solve_before_its_division():
    """`solve_cleared` gives X g, and X g / (L * det) is what `solve` returns, for r cleared to g over L.

    Checked on the first solve, which substitutes g, and on later ones over
    memoized columns, for a real factor and a realified one.
    """
    rng = random.Random(29)
    k = 6
    rhss = [
        {1: _frac_scalar(Fraction(2, 3)), 3: _frac_scalar(Fraction(-5, 4)), 5: _frac_scalar(7)},
        {4: _frac_scalar(0, Fraction(3, 7)), 0: _frac_scalar(1, Fraction(-1, 2))},
        {2: _frac_scalar(Fraction(3, 5), 1), 3: _frac_scalar(Fraction(1, 6))},
        {1: _frac_scalar(Fraction(-2, 9))},
    ]
    for complex_matrix in (False, True):
        while True:
            a = _mat(rng, k, k, complex_part=complex_matrix)
            if rank(a) == k and any(v.b for row in a for v in row) == complex_matrix:
                break
        cleared, reference = invert(a), invert(a)
        assert (len(cleared._upper) > k) == complex_matrix
        for t, rhs in enumerate(rhss):
            g, den = clear_denominators(rhs.values())
            yr, yi = cleared.solve_cleared(list(rhs), g)
            assert all(isinstance(x, int) for x in yr + yi)
            got = {key: gauss(re, im, den * cleared.det) for key, re, im in zip(cleared.keys, yr, yi) if re or im}
            assert got == reference.solve(rhs) == _dense_fraction_solve(a, rhs)
            # the first solve memoizes nothing, and later ones solve the columns they touch
            assert (_solved_columns(cleared) == []) == (t == 0)
        assert _solved_columns(cleared) == [0, 1, 2, 3, 4]


def test_factor_solves_each_column_once_across_threads(monkeypatch):
    """Threads solving the same right-hand side on one fresh Factor: one substitutes it directly, the others
    solve each column it touches once."""
    rng = random.Random(28)
    k = 12
    while True:
        a = _mat(rng, k, k)
        if rank(a) == k:
            break
    rhs = {j: _frac_scalar(Fraction(j + 1, 3), Fraction(-1, j + 2)) for j in range(0, k, 2)}
    want = _dense_fraction_solve(a, rhs)
    f = invert(a)
    solved = []
    direct = []
    solve_int = Factor._solve_int

    def counting_solve_int(self, b):
        if sum(map(abs, b)) == 1:
            solved.append(b.index(1))
        else:
            direct.append(threading.get_ident())
        return solve_int(self, b)

    monkeypatch.setattr(Factor, "_solve_int", counting_solve_int)
    workers = 8
    barrier = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def worker(i):
        try:
            barrier.wait(timeout=30)
            results[i] = f.solve(rhs)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == [want] * workers
    assert sorted(solved) == sorted(rhs) == _solved_columns(f)
    assert direct and len(set(direct)) == 1


def test_first_and_memoized_solves_match_fraction_reference():
    """A fresh factor's first solve (one substitution) and its memoized solves agree with the Fraction route.

    Real and complex factors, with real and complex right-hand sides; a real
    factor substitutes the real and imaginary parts of a complex one apart.
    """
    rng = random.Random(29)
    kinds = set()
    for t in range(16):
        k = rng.randint(1, 6)
        complex_matrix = t % 2 == 1
        while True:
            a = _mat(rng, k, k, complex_part=complex_matrix)
            if rank(a) == k and any(v.b for row in a for v in row) == complex_matrix:
                break
        keys = sorted(rng.sample(range(k), rng.randint(1, k)))
        real_rhs = {j: _rand_scalar(rng, complex_part=False) or Scalar(1) for j in keys}
        complex_rhs = {j: c + _frac_scalar(0, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                       for j, c in real_rhs.items()}
        for rhs in (real_rhs, complex_rhs):
            want = _dense_fraction_solve(a, rhs)
            f = invert(a)
            assert f.solve(rhs) == want
            assert _solved_columns(f) == []
            assert f.solve(rhs) == want
            assert _solved_columns(f) == keys
            kinds.add((complex_matrix, rhs is complex_rhs))
    assert len(kinds) == 4


def test_invert_solve_gate_sized_slice():
    # the size of the n = 3, d = 4, weight-8 slices: id - t with a sparse t
    rng = random.Random(25)
    k = 48
    a = [[Scalar(1) if i == j else Scalar(0) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in rng.sample(range(k), 6):
            a[i][j] = a[i][j] - _rand_scalar(rng)
    assert rank(a) == k
    rhs = [[_rand_scalar(rng) for _ in range(k)] for _ in range(2)]
    f = invert(a)
    for b in rhs:
        x = f.solve(dict(enumerate(b)))
        assert [x.get(i, Scalar(0)) for i in range(k)] == _as_scalars(_fraction_gauss_solve(a, b))


def test_rank_skips_a_column_without_pivot():
    # column 1 is (1 + i/2) times column 0, so the pivots are columns 0, 2, 3
    c0 = [_frac_scalar(Fraction(1, 2)), _frac_scalar(0, 1), _frac_scalar(Fraction(-2, 3), Fraction(1, 3))]
    a = [
        [c0[0], c0[0] * _frac_scalar(1, Fraction(1, 2)), _frac_scalar(3), _frac_scalar(Fraction(1, 4))],
        [c0[1], c0[1] * _frac_scalar(1, Fraction(1, 2)), _frac_scalar(Fraction(-1, 2), 2), _frac_scalar(0)],
        [c0[2], c0[2] * _frac_scalar(1, Fraction(1, 2)), _frac_scalar(1), _frac_scalar(Fraction(5, 3), -1)],
    ]
    assert rank(a) == 3 == _fraction_gauss_rank(a)
    assert rank([[row[j] for j in (0, 1)] for row in a]) == 1
    assert rank([row + [row[0] + row[2]] for row in a]) == 3


def test_singular_message_reports_complex_rank():
    # row 2 is (1 - i) row 0 + i/3 row 1: the real embedding has rank 4, the matrix rank 2
    r0 = [_frac_scalar(1), _frac_scalar(0, 2), _frac_scalar(Fraction(1, 2), -1)]
    r1 = [_frac_scalar(3, 1), _frac_scalar(Fraction(-1, 4)), _frac_scalar(0, Fraction(5, 3))]
    r2 = [u * _frac_scalar(1, -1) + v * _frac_scalar(0, Fraction(1, 3)) for u, v in zip(r0, r1)]
    a = [r0, r1, r2]
    assert rank(a) == 2 == _fraction_gauss_rank(a)
    with pytest.raises(SingularMatrix, match="matrix of size 3 has rank 2"):
        invert(a)


def _keyed_columns(a, keys):
    """The dense rows a as sparse columns {key: {row key: Scalar}}, zeros omitted."""
    return {keys[j]: {keys[i]: a[i][j] for i in range(len(a)) if a[i][j]} for j in range(len(a))}


def test_keyed_invert_and_solve_match_fraction_reference():
    # tuple keys in an order that is not sorted: answers come back in the caller's keys and order
    rng = random.Random(29)
    k = 5
    keys = [((2, 0), 1), ((0, 1), 0), ((3, 1), 2), ((0, 0), 0), ((1, 4), 1)]
    assert keys != sorted(keys)
    for complex_matrix in (False, True):
        while True:
            a = _mat(rng, k, k, complex_part=complex_matrix)
            for i in range(k):
                for j in rng.sample(range(k), 2):
                    a[i][j] = Scalar(0)
            if rank(a) == k and any(v.b for row in a for v in row) == complex_matrix:
                break
        f = invert(_keyed_columns(a, keys))
        assert f.keys == keys
        assert f.inverse() == invert(a).inverse()
        for rhs in ({1: _frac_scalar(Fraction(2, 3)), 4: _frac_scalar(-5, Fraction(1, 4))},
                    {0: _frac_scalar(0, Fraction(3, 7))}):
            want = _dense_fraction_solve(a, rhs)
            assert f.solve({keys[j]: c for j, c in rhs.items()}) == {keys[i]: c for i, c in want.items()}
            assert list(f.solve({keys[j]: c for j, c in rhs.items()})) == [keys[i] for i in sorted(want)]


def test_invert_refuses_a_matrix_that_is_not_square():
    one, two = Scalar(1), Scalar(2)
    with pytest.raises(ValueError):
        invert([[one, two, Scalar(3)], [Scalar(4), Scalar(5), Scalar(6)]])
    with pytest.raises(ValueError):
        invert([[one, two], [two]])
    # row key 1 is no column key
    with pytest.raises(ValueError, match="not a column key"):
        invert({0: {0: one, 1: two}, 2: {2: one}})


def test_rank_of_sparse_vectors_matches_fraction_reference():
    rng = random.Random(30)
    assert rank([]) == 0 == _fraction_gauss_rank([])
    assert rank([{}]) == 0
    for _ in range(20):
        pool = [(i, "a" if i % 2 else "b") for i in range(6)]
        vectors = []
        for _ in range(rng.randint(1, 5)):
            support = rng.sample(pool, rng.randint(1, 3))
            vectors.append({key: _rand_scalar(rng) for key in support})
        if rng.random() < 0.5:
            # a vector on keys no other vector has
            vectors.append({("only", j): _rand_scalar(rng) for j in range(rng.randint(1, 2))})
        if rng.random() < 0.4:
            # a dependent vector
            c = _rand_scalar(rng)
            vectors.append({key: c * v for key, v in vectors[0].items()})
        keys = sorted({key for v in vectors for key in v}, key=repr)
        dense = [[v.get(key, Scalar(0)) for key in keys] for v in vectors]
        assert rank(vectors) == _fraction_gauss_rank(dense) == rank(dense)


def test_real_factor_sums_real_columns_for_a_complex_bucket():
    """A real factor's memoized solve of a bucket with imaginary parts equals `solve` and the Fraction route.

    The bucket holds a real, a purely imaginary and a complex entry, so the
    real-only column sum adds X Im g only where g has an imaginary part; a
    real bucket leaves the imaginary half 0.
    """
    rng = random.Random(30)
    k = 5
    while True:
        a = _mat(rng, k, k, complex_part=False)
        if rank(a) == k:
            break
    f = invert(a)
    assert len(f._upper) == k  # not realified
    rhs = {0: _frac_scalar(Fraction(3, 4)), 2: _frac_scalar(0, Fraction(-5, 3)), 4: _frac_scalar(2, Fraction(1, 6))}
    want = _dense_fraction_solve(a, rhs)
    assert f.solve(rhs) == want  # the first solve, one substitution
    assert _solved_columns(f) == []
    g, den = clear_denominators(rhs.values())
    yr, yi = f.solve_cleared(list(rhs), g)  # through memoized columns
    assert _solved_columns(f) == [0, 2, 4]
    assert {key: gauss(re, im, den * f.det) for key, re, im in zip(f.keys, yr, yi) if re or im} == want
    assert f.solve(rhs) == invert(a).solve(rhs) == want
    real = {0: _frac_scalar(Fraction(3, 4)), 4: _frac_scalar(2)}
    g, den = clear_denominators(real.values())
    yr, yi = f.solve_cleared(list(real), g)
    assert yi == [0] * k
    assert {key: gauss(re, 0, den * f.det) for key, re in zip(f.keys, yr) if re} == _dense_fraction_solve(a, real)


def test_invert_of_cleared_columns_is_invert_of_their_scalars():
    """Columns handed to `invert` as Gaussian integers over their denominators factor as their Scalar columns do.

    A column over a denominator with a common factor left in solves the same.
    """
    rng = random.Random(31)
    k = 5
    for complex_matrix in (False, True):
        while True:
            a = _mat(rng, k, k, complex_part=complex_matrix)
            if rank(a) == k and any(v.b for row in a for v in row) == complex_matrix:
                break
        cols = {j: {i: a[i][j] for i in range(k) if a[i][j]} for j in range(k)}
        cleared, dens = {}, []
        for j, col in cols.items():
            g, den = clear_denominators(col.values())
            cleared[j] = dict(zip(col, g))
            dens.append(den)
        f, ref = invert(cleared, dens), invert(cols)
        assert (len(f._upper) > k) == complex_matrix
        assert f.det == ref.det and f.inverse() == ref.inverse()
        rhs = {1: _frac_scalar(Fraction(2, 7), 1), 3: _frac_scalar(-3)}
        assert f.solve(rhs) == f.solve(rhs) == _dense_fraction_solve(a, rhs)
        cleared[2] = {i: (3 * re, 3 * im) for i, (re, im) in cleared[2].items()}
        dens[2] *= 3
        assert invert(cleared, dens).inverse() == ref.inverse()
