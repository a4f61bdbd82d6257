"""Reduction of observables to exact homology classes over the Jacobian-ring basis.

The pipeline starts from the explicit retraction of the diagonal complex:
tau_diag projects onto the basis monomials and eta_diag is a closed-form
homotopy on every homological degree, with no linear solve.  It is then
transferred once across the whole deformation d_bv - d_diag, split by weight:
the contraction with the mixed top gradients keeps weight, and the
contraction with the lower-order gradients plus the divergence drops it.  One
sweep from the observable's weight down applies the transferred tau; it
solves a (degree, weight) slice exactly, against the weight-keeping part
alone, only when the action has a mixed part, and is otherwise the
terminating Neumann series grouped by weight.  The resulting tau takes any
polynomial to its class over the (d-1)^n monomials with all exponents at
most d-2.

Sign convention: with the retraction identity phi o tau - id = D eta + eta D,
the diagonal homotopy must satisfy d_diag(eta(x^m)) = -x^m on monomials
outside the basis; the resulting class of x^3 for the action x^3 is -1/3,
which matches integration by parts.  Presentations that orient the homotopy
the other way produce the opposite (wrong) sign for odd iteration orders.
"""
from __future__ import annotations

import itertools
import threading
from functools import lru_cache
from math import factorial
from operator import add

from .bvdiff import Action, _contract, d_cl
from .errors import InputError, NonDiagonalizableAction, SingularMatrix
from .hpl import SliceSolver
from .linalg import invert, rank
from .scalars import ONE, ZERO, Scalar, clear_denominators, gauss, q
from .superpoly import Key, SuperPoly, add_term, monomials_of_degree


class JacBasis:
    """The (d-1)^n monomials x^m with every exponent at most d-2, lexicographic."""

    __slots__ = ("n", "d", "monomials")

    def __init__(self, n: int, d: int, monomials: tuple[tuple[int, ...], ...]):
        self.n, self.d, self.monomials = n, d, monomials

    def __eq__(self, other):
        if not isinstance(other, JacBasis):
            return NotImplemented
        return (self.n, self.d, self.monomials) == (other.n, other.d, other.monomials)

    def __hash__(self):
        return hash((self.n, self.d, self.monomials))

    def __len__(self):
        return len(self.monomials)

    def __contains__(self, m) -> bool:
        """Whether m is a basis exponent word, in O(n): a tuple of n entries, each in 0..d-2."""
        exps = range(self.d - 1)
        return isinstance(m, tuple) and len(m) == self.n and all(p in exps for p in m)

    def __repr__(self):
        return f"JacBasis(n={self.n}, d={self.d}, monomials={self.monomials!r})"


MAX_BASIS_ENTRIES = 1 << 22
"""Budget on the exponents a basis stores, n * (d-1)^n; a larger basis is an InputError."""


# bounded: classes compare bases by value, so a basis rebuilt after eviction equals the one it replaces
@lru_cache(maxsize=256)
def jac_basis(n: int, d: int) -> JacBasis:
    if d < 2:
        raise InputError("Jacobian basis needs d >= 2")
    if n < 1:
        raise InputError("Jacobian basis needs n >= 1")
    # (d-1)^n >= 2^n when d > 2, so a long exponent word is over budget before the power is taken
    if d > 2 and n > MAX_BASIS_ENTRIES.bit_length() or n * (d - 1) ** n > MAX_BASIS_ENTRIES:
        raise InputError(f"basis of (d-1)^n monomials for n={n}, d={d} exceeds the size budget")
    monos = tuple(sorted(itertools.product(range(d - 1), repeat=n)))
    return JacBasis(n, d, monos)


class JacClass:
    """A homology class as a coefficient vector over a JacBasis; zeros omitted."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: JacBasis, coeffs=None):
        self.basis = basis
        self.coeffs: dict[tuple[int, ...], Scalar] = {}
        if coeffs:
            for k, v in dict(coeffs).items():
                v = Scalar.of(v)
                if v:
                    if k not in basis:
                        raise ValueError(f"{k} is not a basis monomial")
                    self.coeffs[k] = v

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def vector(self) -> list[Scalar]:
        return [self.coeffs.get(m, ZERO) for m in self.basis.monomials]

    def __add__(self, other: "JacClass") -> "JacClass":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_term(out, k, v)
        res = JacClass(self.basis)
        res.coeffs = out
        return res

    def scale(self, c) -> "JacClass":
        c = Scalar.of(c)
        res = JacClass(self.basis)
        if c:
            res.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return res

    def __eq__(self, other):
        if not isinstance(other, JacClass):
            return NotImplemented
        return self.basis.monomials == other.basis.monomials and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.basis.monomials, frozenset(self.coeffs.items())))

    def to_superpoly(self) -> SuperPoly:
        """The representative through monomial inclusion."""
        return SuperPoly(self.basis.n, {(m, 0): c for m, c in self.coeffs.items()})

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return self.to_superpoly().text()

    def __repr__(self):
        return f"JacClass({self.text()})"


def tau_diag(v: SuperPoly, d: int) -> JacClass:
    """Project onto the basis monomials: keep degree-0 terms with all exponents <= d-2."""
    basis = jac_basis(v.n, d)
    out = JacClass(basis)
    cut = d - 1
    for (e, mask), c in v.terms.items():
        if mask == 0 and all(p < cut for p in e):
            out.coeffs[e] = c
    return out


def eta_diag(v: SuperPoly, action: Action) -> SuperPoly:
    """The diagonal homotopy: the tensor-product contraction of the one-variable factors.

    Factor i has the homotopy eta_i(x_i^p) = -((d-1)!/a_i) x_i^(p-d+1) xi_i
    for p >= d-1, and 0 on x_i^p with p < d-1 and on xi_i terms; the diagonal
    complex is their tensor product, with eta_diag = sum_i P_1 (x) ... (x)
    P_(i-1) (x) eta_i (x) id, where P_j projects factor j onto x_j^p, p < d-1.
    On x^m xi^S only the first index i with i in S or m_i >= d-1 can
    contribute: if i is not in S, the image is -((d-1)!/a_i) x^(m-(d-1)e_i)
    xi_i xi^S, with no sign since every index of S lies above i; otherwise,
    and when there is no such i, it is 0.  Distinct terms have distinct
    images.  d_diag o eta_diag + eta_diag o d_diag = phi o tau_diag - id and
    eta_diag o eta_diag = 0.  v is cleared over one L for the integer core
    `_eta`, and each image reduced once.
    """
    units, uden = _units(action)
    pairs, den = clear_denominators(v.terms.values())
    den *= uden
    out = _eta(dict(zip(v.terms, pairs)), units, action.d - 1)
    return SuperPoly._wrap(v.n, {key: gauss(a, b, den) for key, (a, b) in out.items()})


def _eta(terms: dict, units: tuple, d1: int) -> dict:
    """eta_diag in Gaussian integers: terms over L, each key to (a, b), go to their images over L * U.

    units is the first entry of `_units` and d1 = d - 1.  Distinct terms
    have distinct images, so nothing is summed and no image is zero.
    """
    out = {}
    for (e, mask), (a, b) in terms.items():
        for i, p in enumerate(e):
            if mask >> i & 1:
                break
            if p >= d1:
                ua, ub = units[i]
                out[(e[:i] + (p - d1,) + e[i + 1:], mask | 1 << i)] = a * ua - b * ub, a * ub + b * ua
                break
    return out


def _units(action: Action) -> tuple[tuple[tuple[int, int], ...], int]:
    """The -(d-1)!/a_i of eta_diag cleared once per action, as (Gaussian integers, U).

    A zero a_i is NonDiagonalizableAction(i).
    """
    units = action._neg_inv_diag
    if units is None:
        for i, a in enumerate(action.diag_coeffs):
            if not a:
                raise NonDiagonalizableAction(i)
        pairs, uden = clear_denominators([-factorial(action.d - 1) / a for a in action.diag_coeffs])
        units = action._neg_inv_diag = tuple(pairs), uden
    return units


def keep_columns(action: Action):
    """The column kernel of id - keep o eta_diag for `SliceSolver`, keep being the contraction with cgrad_mix.

    column(key) is -keep(eta_diag(x^key)) as a fresh term map.  eta_diag
    sends x^e xi^S to at most one term, units[i] x^e' xi^(S+i), and keep
    contracts it with the Gaussian-integer rows of cgrad_mix: xi_j goes to
    the sign of dxi_j times row j.  The products -units[i] * row j are made
    Scalars once, on first use, so a column costs tuple additions and no
    arithmetic.  Distinct (j, row term) give distinct keys, so nothing is
    summed.
    """
    rows, gden = action.cgrad_mix
    units, uden = _units(action)
    den = uden * gden
    d1 = action.d - 1
    products: dict[tuple[int, int], list] = {}

    def product(i: int, j: int) -> list:
        # (row term, coefficient under an even sign of dxi_j, under an odd one)
        out = products[(i, j)] = []
        ua, ub = units[i]
        for ge, ga, gb in rows[j]:
            c = gauss(ua * ga - ub * gb, ua * gb + ub * ga, den)
            out.append((ge, -c, c))
        return out

    def column(key: Key) -> dict[Key, Scalar]:
        e, mask = key
        for i, p in enumerate(e):
            if mask >> i & 1:
                return {}
            if p >= d1:
                break
        else:
            return {}
        e = e[:i] + (p - d1,) + e[i + 1:]
        mask |= 1 << i
        out = {}
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            j = bit.bit_length() - 1
            odd = (mask & (bit - 1)).bit_count() & 1
            prod = products.get((i, j))
            if prod is None:
                prod = product(i, j)
            for ge, plus, minus in prod:
                out[(tuple(map(add, e, ge)), mask ^ bit)] = minus if odd else plus
        return out

    return column


class ReduceSession:
    """Action plus the diagonal retraction transferred across d_bv - d_diag, as one SliceSolver.

    The solver applies (id - delta o eta_diag)^{-1} for delta = d_bv - d_diag,
    split by weight: keep is the contraction with the mixed top gradients,
    handed over as its column kernel `keep_columns`, and drop the
    contraction with the lower-order gradients plus the divergence.  drop o
    eta_diag is handed over as one integer step: `_eta` and `_contract`
    (cgrad_low, div=True) on Gaussian integers, the units of eta_diag
    cleared once per action.  The transferred projection is tau' = tau_diag
    o solver.apply, and the transferred homotopy eta_diag o solver.apply;
    phi' = phi.

    phi_correction optionally replaces the monomial-inclusion section by
    phi(x^m) = x^m + c_m, for a map from basis monomials m to xi-free
    polynomials c_m killed by tau_diag; the solver sweeps each c_m once
    here, under the same weight budget as an observable.  Another section
    only changes the basis of H: with tau the transferred projection and M
    the matrix whose columns are e_m + tau(c_m), the classes over the new
    representatives are M^{-1} tau, and M is factored once here.

    Construction is single-threaded; afterwards reduce() may be called
    concurrently (the per-weight caches populate under a lock).
    """

    def __init__(self, action: Action, phi_correction=None):
        self.action = action
        self.basis = basis = jac_basis(action.n, action.d)
        n, d = action.n, action.d
        correction: dict[tuple[int, ...], SuperPoly] = {}
        for m, c in (phi_correction or {}).items():
            m = tuple(m)
            if m not in basis:
                raise InputError(f"{m} is not a basis monomial")
            if not isinstance(c, SuperPoly) or c.n != n:
                raise InputError("corrections must be SuperPoly values in the same variables")
            if any(mask for _, mask in c.terms):
                raise InputError("corrections must be xi-free")
            if not tau_diag(c, d).is_zero:
                raise InputError("corrections must vanish under tau_diag")
            if not c.is_zero:
                correction[m] = c
        units, uden = _units(action)
        # drop lowers weight by at least d - deg(low); with no low, cgrad_low's rows are empty and drop is div
        cgrad_low = action.cgrad_low
        scale = uden * cgrad_low[1]

        def step(y, den):
            # eta_diag lifts y from den to den * U, and the drop contraction lifts that by G
            e = _eta(y, units, d - 1)
            return _contract(cgrad_low, e, div=True) if e else e, den * scale

        column = keep_columns(action) if action.has_mix() else None
        self.solver = SliceSolver(n, d, column, step)
        self._correction = correction
        self._change = None
        if correction:
            # column m of M is the class of x^m + c_m over the monomial-inclusion section
            cols = {m: {m: ONE} for m in basis.monomials}
            for m, c in correction.items():
                for mm, v in tau_diag(self.solver.apply(c), d).coeffs.items():
                    add_term(cols[m], mm, v)
            try:
                self._change = invert(cols)
            except SingularMatrix:
                raise InputError("the corrected representatives are not a basis of the homology") from None

    def reduce(self, f: SuperPoly) -> JacClass:
        if f.n != self.action.n:
            raise ValueError("variable count mismatch")
        h = tau_diag(self.solver.apply(f), self.action.d)
        if self._change is None:
            return h
        out = JacClass(self.basis)
        out.coeffs = self._change.solve(h.coeffs)
        return out

    def phi(self, h: JacClass) -> SuperPoly:
        out = h.to_superpoly()
        for m, c in h.coeffs.items():
            extra = self._correction.get(m)
            if extra is not None:
                out = out + extra.scale(c)
        return out

    def solved_weights(self) -> list[int]:
        return self.solver.solved_weights()


_SESSION_LOCK = threading.Lock()


def session_for(action: Action) -> ReduceSession:
    """The default (monomial-inclusion) session, built once per Action.

    The first build is double-checked under a lock, so concurrent first calls
    share one session and its slice caches.
    """
    sess = action._session
    if sess is None:
        with _SESSION_LOCK:
            sess = action._session
            if sess is None:
                sess = action._session = ReduceSession(action)
    return sess


def reduce_full(action: Action, f: SuperPoly) -> JacClass:
    """The homology class of f over the Jacobian-ring monomial basis."""
    return session_for(action).reduce(f)


def wick(action: Action, f: SuperPoly) -> Scalar:
    """Closed-form class for quadratic actions: the basis is {1}.

    Writes s = 1/2 x^T s2 x + s1 . x + s0, shifts to the critical point
    x = -s2^{-1} s1, and applies exp(-1/2 sum (s2^{-1})_{ij} d_i d_j) at 0.
    The minus sign in the exponent pairs with the homotopy orientation above;
    it reproduces the Isserlis moments for covariance -(s2)^{-1}.
    """
    if action.d != 2:
        raise InputError("wick needs a quadratic action")
    if any(mask for _, mask in f.terms):
        raise InputError("wick is defined on homological degree 0")
    s2, s1, _ = action.quad
    s2inv = invert(s2).inverse()  # raises SingularMatrix when degenerate
    n = action.n
    crit = [-sum((s2inv[i][j] * s1[j] for j in range(n)), ZERO) for i in range(n)]
    g = f.shift(crit)

    def lap(p: SuperPoly) -> SuperPoly:
        out = SuperPoly.zero(n)
        for i in range(n):
            pi = p.dx(i)
            if pi.is_zero:
                continue
            for j in range(n):
                c = s2inv[i][j]
                if c:
                    t = pi.dx(j)
                    if not t.is_zero:
                        out = out + t.scale(c)
        return out

    total = ZERO
    cur = g
    k = 0
    while not cur.is_zero:
        total = total + cur.coeff((0,) * n)
        k += 1
        cur = lap(cur).scale(Scalar(q(-1, 2)) / k)
    return total


def jac_rank_check(action: Action, w_max: int) -> list[int]:
    """Independent per-weight dimension count for the basis classes, no homotopies.

    For each weight w, the dimension of the span of the basis monomials of
    degree w inside (polynomials of degree <= w) / d_cl(degree-1 elements of
    weight <= w), computed by exact matrix ranks.  For generic actions the
    result matches the count of basis monomials by weight; a deficit pinpoints
    the weight at which the monomials stop being independent.
    """
    n, d = action.n, action.d
    basis = jac_basis(n, d)
    images: list[dict[Key, Scalar]] = []
    units: list[dict[Key, Scalar]] = []
    dims = []
    prev = 0
    for w in range(w_max + 1):
        xdeg = w - (d - 1)
        if xdeg >= 0:
            for i in range(n):
                for e in monomials_of_degree(n, xdeg):
                    img = d_cl(action, SuperPoly(n, {(e, 1 << i): ONE}))
                    if any(mask for _, mask in img.terms):
                        raise AssertionError("image of a degree-1 element must be xi-free")
                    images.append(img.terms)
        units.extend({(m, 0): ONE} for m in basis.monomials if sum(m) == w)
        cum = rank(images + units) - rank(images)
        dims.append(cum - prev)
        prev = cum
    return dims
