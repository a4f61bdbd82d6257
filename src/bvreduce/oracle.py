"""Floating-point validation: contour integrals of f e^s for one variable.

This is the only module allowed to leave exact arithmetic.  It integrates
f(z) e^{s(z)} dz along piecewise-linear contours whose two ends run out along
straight rays into regions where Re(s) is very negative, and checks the
linear relation I(f) = sum_m tau(f)_m I(x^m) predicted by the reduction.

Rays are truncated where Re(s) <= -30, at which point the integrand is below
1e-13 of its scale and the discarded tail is noise; allowability is checked by
sampling Re(s) at and beyond the cutoff.  The quadrature is QUADPACK's
adaptive Gauss-Kronrod (G7K15) rule in plain Python, so the module needs only
the standard library.
"""
from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass, field

from .bvdiff import Action
from .errors import InputError, NotAllowable, ToleranceNotReached, read_json
from .reduce import ReduceSession, session_for
from .superpoly import SuperPoly

RAY_RE_CUTOFF = -30.0
_RAY_SAMPLES = (1.0, 1.25, 1.5, 2.0, 4.0)


@dataclass(frozen=True)
class ContourSpec:
    """A polyline with two outgoing end rays.

    The path runs in from waypoints[0] + ray_length*end_directions[0], through
    the waypoints in order, and back out to waypoints[-1] +
    ray_length*end_directions[1].
    """

    waypoints: tuple[complex, ...]
    end_directions: tuple[complex, complex]
    ray_length: float

    def __post_init__(self):
        if not self.waypoints:
            raise InputError("a contour needs at least one waypoint")
        if not all(cmath.isfinite(w) for w in (*self.waypoints, *self.end_directions)):
            raise InputError("waypoints and end directions must be finite")
        if not (math.isfinite(self.ray_length) and self.ray_length > 0):
            raise InputError("ray length must be positive and finite")
        dirs = []
        for u in self.end_directions:
            r = abs(u)
            if r == 0:
                raise InputError("end directions must be nonzero")
            dirs.append(u / r)
        object.__setattr__(self, "end_directions", (dirs[0], dirs[1]))
        object.__setattr__(self, "waypoints", tuple(complex(w) for w in self.waypoints))

    def with_ray_length(self, r: float) -> "ContourSpec":
        return ContourSpec(self.waypoints, self.end_directions, r)

    def to_json(self) -> dict:
        return {
            "waypoints": [[w.real, w.imag] for w in self.waypoints],
            "end_directions": [[u.real, u.imag] for u in self.end_directions],
            "ray_length": self.ray_length,
        }

    @staticmethod
    def from_json(obj: dict) -> "ContourSpec":
        try:
            wps = tuple(complex(a, b) for a, b in obj["waypoints"])
            dirs = tuple(complex(a, b) for a, b in obj["end_directions"])
            if len(dirs) != 2:
                raise InputError(f"a contour needs exactly two end directions, got {len(dirs)}")
            return ContourSpec(wps, dirs, float(obj["ray_length"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a JSON integer past the float range
            raise InputError(f"bad contour description: {exc}") from exc


@dataclass(frozen=True)
class ComplexEstimate:
    value: complex
    err: float

    def __add__(self, other: "ComplexEstimate") -> "ComplexEstimate":
        return ComplexEstimate(self.value + other.value, self.err + other.err)


def poly1d_coeffs(p: SuperPoly) -> list[complex]:
    """Ascending complex coefficients of a one-variable, degree-0 SuperPoly."""
    if p.n != 1:
        raise InputError("the numeric oracle handles one variable")
    if any(mask for _, mask in p.terms):
        raise InputError("only homological degree 0 can be integrated")
    deg = p.max_xdeg()
    out = [0j] * (deg + 1 if deg >= 0 else 1)
    for (e, _), c in p.terms.items():
        out[e[0]] = c.to_complex()
    return out


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _ray_points(c: ContourSpec, which: int):
    base = c.waypoints[0] if which == 0 else c.waypoints[-1]
    return base, c.end_directions[which]


def check_allowable(s_coeffs: list[complex], c: ContourSpec) -> None:
    """Re(s) must be finite and <= -30 at the ray cutoff and stay there beyond it.

    A sample whose Re(s) overflows (or is NaN) certifies nothing about the decay.
    """
    for which in (0, 1):
        base, u = _ray_points(c, which)
        for t in _RAY_SAMPLES:
            re = _horner(s_coeffs, base + (t * c.ray_length) * u).real
            if not (math.isfinite(re) and re <= RAY_RE_CUTOFF):
                raise NotAllowable(
                    f"Re(s) = {re:.3g} at {t:.3g} ray lengths "
                    f"on end {which}; need a finite value <= {RAY_RE_CUTOFF}"
                )


# QUADPACK qk15 (Piessens et al., 1983): the Kronrod nodes on (0, 1], largest
# first, with their weights; nodes 1, 3 and 5 and the centre are the Gauss nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327
_EPS = sys.float_info.epsilon
_ABS_FLOOR = sys.float_info.min / (50.0 * _EPS)
_LIMIT = 400  # most pieces one quad call splits its range into


def _qk15(g, a: float, b: float) -> tuple[complex, float]:
    """The 15-point Kronrod value of g over [a, b] and QUADPACK's error estimate."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = g(c)
    lo = [g(c - h * x) for x in _XGK]
    hi = [g(c + h * x) for x in _XGK]
    sums = [u + v for u, v in zip(lo, hi)]
    resk = _WGK_CENTRE * fc + sum(w * f for w, f in zip(_WGK, sums))
    resg = _WG_CENTRE * fc + sum(w * f for w, f in zip(_WG, sums[1::2]))
    mean = 0.5 * resk
    resabs = _WGK_CENTRE * abs(fc)
    resasc = _WGK_CENTRE * abs(fc - mean)
    for w, u, v in zip(_WGK, lo, hi):
        resabs += w * (abs(u) + abs(v))
        resasc += w * (abs(u - mean) + abs(v - mean))
    h = abs(h)
    resabs *= h
    resasc *= h
    err = abs(resk - resg) * h
    if resasc and err:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _ABS_FLOOR:
        err = max(50.0 * _EPS * resabs, err)
    return resk * h, err


def quad(g, a: float, b: float, tol: float) -> ComplexEstimate:
    """Integrate the complex-valued g over [a, b] by adaptive G7K15 (QUADPACK QAG).

    The piece with the largest error estimate is bisected until the summed
    estimate is <= max(tol, tol * |value|) or there are _LIMIT pieces; the
    caller decides whether the returned err is good enough.
    """
    value, err = _qk15(g, a, b)
    heap = [(-err, a, b, value)]
    total, errsum = value, err
    while errsum > max(tol, tol * abs(total)) and len(heap) < _LIMIT:
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _qk15(g, lo, mid)
        v2, e2 = _qk15(g, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - v
        errsum += e1 + e2 + neg_err
    value = complex(math.fsum(p[3].real for p in heap), math.fsum(p[3].imag for p in heap))
    return ComplexEstimate(value, math.fsum(-p[0] for p in heap))


def _quad_ray(g, length: float, tol: float) -> ComplexEstimate:
    """Integrate g over [0, length] in geometric panels.

    A single adaptive call over a very long ray can converge on near-zero
    samples and miss the mass near the origin; doubling panels keep every
    scale resolved while the decay makes the far panels instantly cheap.
    """
    total = ComplexEstimate(0j, 0.0)
    lo = 0.0
    hi = min(1.0, length)
    while lo < length:
        total = total + quad(g, lo, hi, tol)
        lo, hi = hi, min(hi * 2.0, length)
    return total


def contour_integrate(
    s: SuperPoly, f: SuperPoly, c: ContourSpec, tol: float = 1e-9
) -> ComplexEstimate:
    """Adaptive quadrature of f e^s along the contour; raises when not certified.

    A contour on which e^s leaves the double range is NotAllowable, like one
    that fails the decay check.

    The returned err is the accumulated quadrature error estimate.  If it
    exceeds tol * max(1, |value|), or either is not finite, the result cannot
    be trusted at the requested tolerance and ToleranceNotReached is raised.
    """
    sc = poly1d_coeffs(s)
    fc = poly1d_coeffs(f)
    check_allowable(sc, c)

    def integrand(z: complex) -> complex:
        try:
            return _horner(fc, z) * cmath.exp(_horner(sc, z))
        except OverflowError:
            raise NotAllowable(f"e^s overflows double precision at z = {z:.6g}") from None

    quad_tol = tol * 1e-2
    total = ComplexEstimate(0j, 0.0)

    base, u = _ray_points(c, 0)
    g_in = lambda t: -u * integrand(base + t * u)
    total = total + _quad_ray(g_in, c.ray_length, quad_tol)

    for w0, w1 in zip(c.waypoints, c.waypoints[1:]):
        dz = w1 - w0
        g_seg = lambda t, w0=w0, dz=dz: dz * integrand(w0 + t * dz)
        total = total + quad(g_seg, 0.0, 1.0, quad_tol)

    base, u = _ray_points(c, 1)
    g_out = lambda t: u * integrand(base + t * u)
    total = total + _quad_ray(g_out, c.ray_length, quad_tol)

    if not (cmath.isfinite(total.value) and total.err <= tol * max(1.0, abs(total.value))):
        raise ToleranceNotReached(
            f"estimated error {total.err:.3g} exceeds tolerance for value {total.value:.6g}"
        )
    return total


def _fit_ray_length(s_coeffs: list[complex], spec: ContourSpec) -> ContourSpec:
    """Grow the ray length geometrically until the decay check passes with margin."""
    r = max(spec.ray_length, 1.0)
    for _ in range(60):
        candidate = spec.with_ray_length(r)
        try:
            check_allowable(s_coeffs, candidate)
        except NotAllowable:
            r *= 1.5
            continue
        # one extra notch of margin so quadrature tails are safely negligible
        margin = candidate.with_ray_length(1.1 * r)
        try:
            check_allowable(s_coeffs, margin)
            return margin
        except NotAllowable:
            r *= 1.5
    raise NotAllowable("could not find a ray length with Re(s) <= -30 decay")


def default_contours(d: int, s: SuperPoly | None = None) -> list[ContourSpec]:
    """d-1 independent contours between consecutive decay sectors of the top term.

    The decay sectors of the top term c x^d (c = 1 without s) are centered on
    the rays where Re(c x^d) is most negative; contour j runs in from sector
    j-1 and out to sector j through the origin.  When s is supplied its
    lower-order terms are accounted for by fitting the ray length against the
    full action.
    """
    if d < 2:
        raise InputError("need degree >= 2 for default contours")
    if s is None:
        sc = [0j] * d + [1 + 0j]
    else:
        sc = poly1d_coeffs(s)
        if len(sc) != d + 1 or sc[d] == 0:
            raise InputError("action degree does not match d")
    leading = sc[d]
    alpha = cmath.phase(leading)
    midlines = [(math.pi * (2 * k + 1) - alpha) / d for k in range(d)]
    out = []
    for j in range(1, d):
        # entering from sector j and leaving through sector j-1 orients the
        # d = 2 contour from -infinity to +infinity (Gaussian integral > 0)
        spec = ContourSpec(
            waypoints=(0j,),
            end_directions=(cmath.exp(1j * midlines[j]), cmath.exp(1j * midlines[j - 1])),
            ray_length=max(2.0, (2 * abs(RAY_RE_CUTOFF) / max(abs(leading), 1e-12)) ** (1.0 / d)),
        )
        out.append(_fit_ray_length(sc, spec))
    return out


@dataclass
class ContourCheck:
    contour: ContourSpec
    value_f: complex
    values_basis: list[complex]
    residual: float
    bound: float
    passed: bool


@dataclass
class ReductionReport:
    coefficients: list
    representatives: list[SuperPoly]
    checks: list[ContourCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_reduction(
    action: Action,
    f: SuperPoly,
    contours: list[ContourSpec] | None = None,
    tol: float = 1e-6,
    session: ReduceSession | None = None,
) -> ReductionReport:
    """Check |I(f) - sum_m tau(f)_m I(phi(m))| <= tol * scale on every contour.

    The representatives phi(m) are the session's section of the basis classes,
    which is plain monomial inclusion for the default session.
    """
    if action.n != 1:
        raise InputError("verify_reduction handles one variable")
    sess = session or session_for(action)
    jc = sess.reduce(f)
    coeffs = jc.vector()
    basis = sess.basis
    reps = []
    for m in basis.monomials:
        unit = type(jc)(basis, {m: 1})
        reps.append(sess.phi(unit))
    if contours is None:
        contours = default_contours(action.d, s=action.s)

    quad_tol = min(1e-9, tol * 1e-3)
    report = ReductionReport(coefficients=coeffs, representatives=reps)
    for c in contours:
        est_f = contour_integrate(action.s, f, c, tol=quad_tol)
        est_basis = [contour_integrate(action.s, rep, c, tol=quad_tol) for rep in reps]
        predicted = sum(
            (coeffs[i].to_complex() * est_basis[i].value for i in range(len(reps))), 0j
        )
        residual = abs(est_f.value - predicted)
        scale = max(abs(est_f.value), max((abs(e.value) for e in est_basis), default=0.0))
        bound = tol * max(scale, 1e-300)
        report.checks.append(
            ContourCheck(
                contour=c,
                value_f=est_f.value,
                values_basis=[e.value for e in est_basis],
                residual=residual,
                bound=bound,
                passed=residual <= bound,
            )
        )
    return report


def load_contours(path: str) -> list[ContourSpec]:
    """Read one contour or a list of contours from a JSON file."""
    data = read_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InputError("contour file must hold an object or a list of objects")
    if not data:
        raise InputError("contour file holds no contour")
    return [ContourSpec.from_json(obj) for obj in data]
