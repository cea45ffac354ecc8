"""Two-parameter isometry families of helicoidal surfaces.

From a positive metric profile U(u) and constants (m != 0, a), the natural
chart of a helicoidal surface with first fundamental form du^2 + U^2 dt^2 is

    xi1 = 2 sqrt( (m^2 U^2 - a^2) / ((1 + sqrt(D))^2 - 4 tau^2 m^2 U^2) ),
    xi2 = int  m U (4 + kappa xi1^2) / (4 xi1^2) * sqrt(R) du,
    theta(u, t) = t/m + int ((4 tau - a kappa) xi1^2 - 4 a)
                            / (4 m U xi1^2) * sqrt(R) du,

with D = (1 - 2 a tau)^2 + (m^2 U^2 - a^2)(4 tau^2 - kappa) and radicand
R = xi1^2 - m^4 U^2 U'^2 (4 + kappa xi1^2)^2 / (16 D).  All members with the
same U are mutually isometric; a = 0 gives the rotational member.

Sign conventions: m > 0 with the positive square-root branch throughout
(seeds with m < 0 are normalized, a theta-orientation flip being an ambient
isometry); integration constants fix xi2(u0) = theta0(u0) = 0 at the domain
midpoint u0 (vertical translations and rotations are ambient isometries).

Each formula is written once, for a float or for a 1-D array of u, with the
operations ``xp`` of ``numerics`` (SCALAR raises at a failed check, an
ArrayOps marks the point).  The chart's quadratures evaluate both
integrands at all nodes of a refinement level in one array pass, the
validity scan evaluates its walk in one, and a chart query for xi1, xi2 or
theta0 at an array of u is one array pass.  The oracle reads all three at
once (``NaturalChart.profile``): xi2 and theta0 in one stacked read.  The
float path serves the library's one-point API and the validity scan's
bisection steps, and a point the array pass fails is evaluated again on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateOrbit,
    DegenerateRadius,
    DomainError,
    EmptyDomain,
    NegativeDiscriminant,
    NegativeRadicand,
)
from .numerics import (
    DEFAULT_TOL,
    MATH_ERRORS,
    SCALAR,
    ArrayOps,
    CumulativeQuadrature,
    Integrand,
    SmoothFunction,
    Tolerances,
    float_rows,
    scan_interval,
)
from .orbit import HelicoidalAction, ProfileCurve, ProfileDomain, volume_omega
from .spaces import BcvSpace

__all__ = [
    "BourSeed",
    "NaturalChart",
    "chart_terms",
    "delta",
    "gauss_intrinsic",
    "xi1_from_seed",
    "xi2_integrand",
    "theta0_integrand",
    "build_chart",
    "domain_of_validity",
    "natural_from_helicoidal",
]


@dataclass(frozen=True)
class BourSeed:
    """The data (U, m, a) generating one member of a Bour isometry family.

    U must be positive on u_domain and is carried with its derivative
    (finite-difference fallback when no analytic one is supplied).  m < 0 is
    normalized to |m|: the flip t -> -t composed with the ambient isometry
    (theta, z) -> (-theta, -z) maps the two surfaces onto each other.
    """

    U: SmoothFunction
    m: float
    a: float
    u_domain: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "U", SmoothFunction.wrap(self.U))
        if self.m == 0 or not math.isfinite(self.m):
            raise ValueError("m must be finite and nonzero")
        if self.m < 0:
            object.__setattr__(self, "m", -self.m)
        lo, hi = self.u_domain
        if not lo < hi:
            raise ValueError(f"empty u_domain {self.u_domain}")


def _discriminant(
    space: BcvSpace, m: float, a: float, Uv, u, tol: Tolerances, xp=SCALAR
) -> tuple:
    """(m^2 U^2, m^2 U^2 - a^2, Delta) at U(u) = Uv; Delta within
    radicand_clamp below zero counts as 0, further below it raises."""
    m2U2 = m * m * Uv * Uv
    num = m2U2 - a * a
    b = 1.0 - 2.0 * a * space.tau
    d = b * b + num * (4.0 * space.tau * space.tau - space.kappa)
    negative = d < 0.0
    if xp.fails(negative & (d <= -tol.radicand_clamp)):
        raise NegativeDiscriminant(f"Delta(u={u}) = {d:.6e} < 0")
    return m2U2, num, xp.where(negative, 0.0, d)


def chart_terms(
    space: BcvSpace, m: float, a: float, Uv, u, tol: Tolerances, xp=SCALAR
) -> tuple:
    """(m^2 U^2, Delta, sqrt(Delta), numerator, denominator, xi1^2) at U(u) = Uv.

    The one evaluation of the discriminant and the radius
    xi1^2 = 4 num / den, num = m^2 U^2 - a^2, den = (1 + sqrt(D))^2 - 4 tau^2 m^2 U^2.
    Delta and num within radicand_clamp below zero count as 0; further below
    they raise, as does a nonpositive denominator.  On a float with xp =
    SCALAR, or on arrays Uv and u with an ``ArrayOps`` (see ``numerics``).
    """
    m2U2, num, d = _discriminant(space, m, a, Uv, u, tol, xp)
    sd = xp.sqrt(d)
    one = 1.0 + sd
    den = one * one - 4.0 * space.tau * space.tau * m2U2
    negative = num < 0.0
    if xp.fails(negative & (num < -tol.radicand_clamp)):
        raise NegativeRadicand(f"m^2 U^2 - a^2 = {num:.6e} < 0 at u={u}")
    num = xp.where(negative, 0.0, num)
    degenerate = den <= 0.0
    if xp.fails(degenerate & (num <= tol.radicand_clamp)):
        raise DegenerateRadius(
            f"radius formula degenerates at u={u} (num={num:.3e}, den={den:.3e})"
        )
    if xp.fails(degenerate):
        raise DomainError(f"(1+sqrt(D))^2 - 4 tau^2 m^2 U^2 = {den:.6e} <= 0 at u={u}")
    return m2U2, d, sd, num, den, 4.0 * num / den


def delta(space: BcvSpace, seed: BourSeed, u: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Discriminant D(u) of the chart; raises NegativeDiscriminant below -clamp."""
    return _discriminant(space, seed.m, seed.a, seed.U(u), u, tol)[2]


def gauss_intrinsic(U, u):
    """Gaussian curvature of a natural chart from its metric profile: -U''/U.

    At a float u, or the column at a 1-D array of u, from U and U'' at the
    array (``jet_columns``, one call of a JetFunction's jet): each element
    is the float call's value bit for bit, or NaN where the float call
    raises a BcvHelixError.  Elements that are not finite are evaluated
    again as floats, so any other error propagates.
    """
    U = SmoothFunction.wrap(U)
    if not isinstance(u, np.ndarray):
        return -U.second(u) / U(u)
    with np.errstate(all="ignore"):
        Uv, d2U = U.jet_columns(u, first=False)
        out = -d2U / Uv
    return float_rows(out, ~np.isfinite(out), lambda v: gauss_intrinsic(U, v), u)


def xi1_from_seed(space: BcvSpace, seed: BourSeed, u, tol: Tolerances = DEFAULT_TOL, Uv=None):
    """Profile radius xi1(u) = 2 sqrt(num/den) at a float u, or the column of
    radii at a 1-D array of u.

    The array goes through ``chart_terms`` with an ``ArrayOps``, over U
    evaluated once for the whole array (``Uv``, if given, is that column,
    ``seed.U.column(u)``); each element is the float call's value bit for
    bit.  The float call evaluates again only the elements the array pass
    fails (or whose U is NaN), so the first of them that fails raises the
    float path's own error.
    """
    if not isinstance(u, np.ndarray):
        *_, xi1sq = chart_terms(space, seed.m, seed.a, seed.U(u), u, tol)
        return math.sqrt(xi1sq)
    if Uv is None:
        Uv = seed.U.column(u)
    ops = ArrayOps(u.size)
    with np.errstate(all="ignore"):
        *_, xi1sq = chart_terms(space, seed.m, seed.a, Uv, u, tol, ops)
        out = np.sqrt(xi1sq)
    for i in np.flatnonzero(ops.failed | np.isnan(Uv)).tolist():
        out[i] = xi1_from_seed(space, seed, float(u[i]), tol)
    return out


def _xi2_radicand(
    space: BcvSpace, p, d, xi1sq, u, tol: Tolerances, xp=SCALAR
):
    """R = xi1^2 - p^2 (4 + kappa xi1^2)^2 / (16 D) with p = m^2 U U'; raises below
    the cancellation band, and values inside it count as 0."""
    q = 4.0 + space.kappa * xi1sq
    sub = p * p * (q * q) / (16.0 * d)
    rad = xi1sq - sub
    # cancellation band: a radicand this small relative to its terms is the
    # boundary of validity (e.g. the helicoid's identically-zero radicand)
    band = xp.maximum(tol.radicand_clamp, 4e-15 * (xi1sq + abs(sub)))
    if xp.fails(xp.not_(rad >= -band)):
        raise NegativeRadicand(f"xi2 radicand = {rad:.6e} < 0 at u={u}")
    return xp.where(rad < band, 0.0, rad)


def _radicand(space: BcvSpace, seed: BourSeed, Uv, dU, u, tol: Tolerances, xp=SCALAR) -> tuple:
    """(xi1^2, the xi2 radicand) at U(u) = Uv, U'(u) = dU: one evaluation
    for both integrands."""
    _, d, _, _, _, xi1sq = chart_terms(space, seed.m, seed.a, Uv, u, tol, xp)
    if xp.fails(d == 0.0):
        raise NegativeDiscriminant(f"Delta vanishes at u={u}: radicand undefined")
    return xi1sq, _xi2_radicand(space, seed.m * seed.m * Uv * dU, d, xi1sq, u, tol, xp)


def _xi2_value(space: BcvSpace, seed: BourSeed, Uv, xi1sq, rad, u, xp=SCALAR):
    if xp.fails(xi1sq == 0.0):
        raise DegenerateRadius(f"xi1 = 0 at u={u}: xi2 integrand singular")
    pref = seed.m * Uv * (4.0 + space.kappa * xi1sq) / (4.0 * xi1sq)
    return pref * xp.sqrt(rad)


def _theta0_value(space: BcvSpace, seed: BourSeed, Uv, xi1sq, rad, u, xp=SCALAR):
    if xp.fails(xi1sq == 0.0):
        raise DegenerateRadius(f"xi1 = 0 at u={u}: theta integrand singular")
    pref = ((4.0 * space.tau - seed.a * space.kappa) * xi1sq - 4.0 * seed.a) / (
        4.0 * seed.m * Uv * xi1sq
    )
    return pref * xp.sqrt(rad)


def xi2_integrand(
    space: BcvSpace, seed: BourSeed, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Integrand of the vertical coordinate xi2 of the profile curve."""
    Uv, dU = seed.U(u), seed.U.deriv(u)
    xi1sq, rad = _radicand(space, seed, Uv, dU, u, tol)
    return _xi2_value(space, seed, Uv, xi1sq, rad, u)


def theta0_integrand(
    space: BcvSpace, seed: BourSeed, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Integrand of the u-dependent gauge part of theta(u, t) = t/m + theta0(u)."""
    Uv, dU = seed.U(u), seed.U.deriv(u)
    xi1sq, rad = _radicand(space, seed, Uv, dU, u, tol)
    return _theta0_value(space, seed, Uv, xi1sq, rad, u)


def _chart_integrands(space: BcvSpace, seed: BourSeed, tol: Tolerances = DEFAULT_TOL) -> Integrand:
    """The xi2 and theta0 integrands as one ``Integrand``: at an array of
    nodes, U, U' and the radicand are evaluated once for both, and a node
    is failed where a check fails or a value is not finite; failed nodes
    are evaluated again by ``xi2_integrand`` and ``theta0_integrand``."""

    def batch(us: np.ndarray):
        Uv, dU = seed.U.values(us)
        ops = ArrayOps(us.size)
        with np.errstate(all="ignore"):
            xi1sq, rad = _radicand(space, seed, Uv, dU, us, tol, ops)
            values = np.stack(
                [
                    _xi2_value(space, seed, Uv, xi1sq, rad, us, ops),
                    _theta0_value(space, seed, Uv, xi1sq, rad, us, ops),
                ]
            )
        failed = ops.failed | ~np.isfinite(Uv) | ~np.isfinite(dU)
        return values, failed | ~np.isfinite(values)

    return Integrand(
        batch,
        (
            lambda u: xi2_integrand(space, seed, u, tol),
            lambda u: theta0_integrand(space, seed, u, tol),
        ),
    )


def _check_chart(space: BcvSpace, seed: BourSeed, Uv, dU, u, tol: Tolerances, xp=SCALAR):
    """Raise (record, with ArrayOps) where the chart fails to exist at
    U(u) = Uv, U'(u) = dU: chart_terms' checks, B > 0, and the xi2 radicand,
    which Delta = 0 admits only with a vanishing prefactor m^2 U U'."""
    _, d, sd, _, _, xi1sq = chart_terms(space, seed.m, seed.a, Uv, u, tol, xp)
    if xp.fails(1.0 - 2.0 * seed.a * space.tau + sd <= 0.0):
        raise DomainError(f"B <= 0 at u={u}")
    p = seed.m * seed.m * Uv * dU
    flat = d == 0.0
    if xp.fails(flat & (p != 0.0)):
        raise NegativeDiscriminant(f"Delta vanishes at u={u} with m^2 U U' = {p:.6e}")
    # at Delta = 0 (with p = 0) the radicand is xi1^2 >= 0
    _xi2_radicand(space, p, xp.where(flat, 1.0, d), xi1sq, u, tol, xp)


def _valid_at(space: BcvSpace, seed: BourSeed, u: float, tol: Tolerances) -> bool:
    try:
        Uv = seed.U(u)
        if not (math.isfinite(Uv) and Uv > 0.0):
            return False
        dU = seed.U.deriv(u)
        if not math.isfinite(dU):
            return False
        _check_chart(space, seed, Uv, dU, u, tol)
        return True
    except MATH_ERRORS:
        # mathematical failures only: anything else is a bug and propagates
        return False


def _valid_on(space: BcvSpace, seed: BourSeed, us: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``_valid_at`` at each element of a 1-D array of u, in one array pass."""
    Uv, dU = seed.U.values(us)
    ops = ArrayOps(us.size)
    with np.errstate(all="ignore"):
        _check_chart(space, seed, Uv, dU, us, tol, ops)
    ok = np.isfinite(Uv) & (Uv > 0.0) & np.isfinite(dU) & ~ops.failed
    # a NaN U or U' is a point the array evaluation does not vouch for
    for i in np.flatnonzero(np.isnan(Uv) | np.isnan(dU)).tolist():
        ok[i] = _valid_at(space, seed, float(us[i]), tol)
    return ok


def domain_of_validity(
    space: BcvSpace,
    seed: BourSeed,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float]:
    """Maximal subinterval of u_domain around its midpoint where the chart
    exists: Delta >= 0, m^2 U^2 >= a^2, positive radius denominator, B > 0,
    and the xi2 radicand >= 0.  The scan walks out from the midpoint in steps
    of 1/2048 of u_domain, evaluating the walk's abscissae in one array pass;
    endpoints are located by bisection to tol.bisect, point by point.
    """
    lo, hi = seed.u_domain
    u0 = 0.5 * (lo + hi)
    pred = lambda u: _valid_at(space, seed, u, tol)
    if not pred(u0):
        raise EmptyDomain(
            f"chart invalid at the u_domain midpoint u0={u0}; no validity interval"
        )
    return scan_interval(
        pred, u0, seed.u_domain, (hi - lo) / 2048, tol.bisect,
        lambda us: _valid_on(space, seed, us, tol),
    )


@dataclass
class NaturalChart:
    """A natural parametrization (xi1, xi2, theta0) with its validity domain.

    xi2 and theta0 are quadrature-backed antiderivatives vanishing at u0;
    theta(u, t) = t/m + theta0(u).  xi1, xi2 and theta0 take a float u, or
    a 1-D array of u and return the column of values in one array query,
    each element bit for bit the float query's; ``profile`` reads the three
    columns together.  The chart evaluates at the u its ``domain`` admits,
    u within 1e-12 of u_valid, and every component reads such a u clamped
    into u_valid.  Immutable after construction; evaluation is reentrant.
    """

    space: BcvSpace
    seed: BourSeed
    u_valid: tuple[float, float]
    u0: float
    _xi1_fn: Callable
    _dxi1_fn: Callable[[float], float]
    _xi2_quad: CumulativeQuadrature
    _theta0_quad: CumulativeQuadrature
    _xi2_integrand: Callable[[float], float]
    domain: ProfileDomain = field(init=False, repr=False)

    def __post_init__(self):
        self.domain = ProfileDomain(*self.u_valid, clamps=True)

    def _check(self, u):
        # raises at the first u the chart does not admit, scalar or 1-D array
        inside = self.domain.admits(u)
        if isinstance(u, np.ndarray):
            if inside.all():
                return
            u = u[~inside][0]
        elif inside:
            return
        lo, hi = self.u_valid
        raise DomainError(f"u={u} outside chart validity [{lo}, {hi}]")

    def clamped(self, u):
        """u checked against u_valid (within 1e-12) and clamped into it, a
        float or a 1-D array: the abscissa where every component is read."""
        self._check(u)
        return self.domain.read(u)

    def xi1(self, u, with_U: bool = False):
        """The profile radius at a float u, or its column at a 1-D array;
        with ``with_U``, at a 1-D array, (xi1, U): the radii and the metric
        profile's column at the abscissae they read, U evaluated once for
        both."""
        us = self.clamped(u)
        if not with_U:
            return self._xi1_fn(us)
        Uv = self.U.column(us)
        return self._xi1_fn(us, Uv), Uv

    def dxi1(self, u: float) -> float:
        return self._dxi1_fn(self.clamped(u))

    def xi2(self, u):
        """The profile height at a float u, or its column at a 1-D array."""
        return self._xi2_quad(self.clamped(u))

    def dxi2(self, u: float) -> float:
        return self._xi2_integrand(self.clamped(u))

    def theta0(self, u):
        """The gauge theta0 at a float u, or its column at a 1-D array."""
        return self._theta0_quad(self.clamped(u))

    def profile(self, u):
        """(theta0, xi1, xi2) at u, evaluated in that order.

        At a 1-D array of u, the three columns, each element bit for bit
        that of its component's own query, raising the first error those
        queries raise in that order: the first u outside the domain, a
        theta0 fault (right of u0, then left), xi1's refusal, then a xi2
        fault.  xi1 is read through ``xi1``.  xi2 and theta0 are one stacked
        read under their shared lock: one clamp, their sides filled in the
        order of the separate queries (theta0's before xi1, xi2's after),
        and one Legendre recurrence over both (``CumulativeQuadrature.read``).
        """
        theta0, xi2 = self._theta0_quad, self._xi2_quad
        if not isinstance(u, np.ndarray) or theta0.lock is not xi2.lock:
            return self.theta0(u), self.xi1(u), self.xi2(u)
        us = self.clamped(u)
        with theta0.lock:
            theta0 = theta0.reach(us)
            xi1 = self.xi1(u)
            theta0, xi2 = CumulativeQuadrature.read(theta0, xi2.reach(us))
        return theta0, xi1, xi2

    def theta(self, u: float, t: float) -> float:
        return t / self.seed.m + self.theta0(u)

    @property
    def m(self) -> float:
        return self.seed.m

    @property
    def a(self) -> float:
        return self.seed.a

    @property
    def U(self) -> SmoothFunction:
        return self.seed.U

    def profile_curve(
        self,
        n: int = 2001,
        margin: float = 1e-6,
        u_range: Optional[tuple[float, float]] = None,
        tol: Tolerances = DEFAULT_TOL,
    ) -> ProfileCurve:
        """The profile curve as an arc-length ProfileCurve over the interior."""
        lo, hi = u_range if u_range is not None else self.u_valid
        lo, hi = lo + margin, hi - margin
        act = HelicoidalAction(self.space, self.seed.a)
        return ProfileCurve(
            act, self.xi1, self.xi2, self.dxi1, self.dxi2, (lo, hi), n=n, tol=tol
        )


def _analytic_dxi1(space: BcvSpace, seed: BourSeed, tol: Tolerances) -> Callable[[float], float]:
    # xi1' = m^2 B^2 U U' / (sqrt(Delta) xi1), B = 1 + kappa xi1^2 / 4
    def dxi1(u: float) -> float:
        Uv, dU = seed.U(u), seed.U.deriv(u)
        _, _, sd, _, _, xi1sq = chart_terms(space, seed.m, seed.a, Uv, u, tol)
        if xi1sq == 0.0 or sd == 0.0:
            raise DegenerateRadius(f"xi1' singular at u={u}")
        B = 1.0 + 0.25 * space.kappa * xi1sq
        return seed.m * seed.m * B * B * Uv * dU / (sd * math.sqrt(xi1sq))

    return dxi1


def build_chart(space: BcvSpace, seed: BourSeed, tol: Tolerances = DEFAULT_TOL) -> NaturalChart:
    """Assemble the natural chart of the Bour family member given by seed."""
    u_valid = domain_of_validity(space, seed, tol)
    lo, hi = seed.u_domain
    u0 = 0.5 * (lo + hi)
    integrands = _chart_integrands(space, seed, tol)
    xi2_quad, theta0_quad = CumulativeQuadrature.components(
        integrands, u0, u_valid[0], u_valid[1], tol.quad_abs
    )
    return NaturalChart(
        space=space,
        seed=seed,
        u_valid=u_valid,
        u0=u0,
        _xi1_fn=lambda u, Uv=None: xi1_from_seed(space, seed, u, tol, Uv),
        _dxi1_fn=_analytic_dxi1(space, seed, tol),
        _xi2_quad=xi2_quad,
        _theta0_quad=theta0_quad,
        _xi2_integrand=integrands.scalars[0],
    )


def natural_from_helicoidal(
    act: HelicoidalAction,
    curve: ProfileCurve,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[SmoothFunction, Callable[[float], float]]:
    """Natural reparametrization of the surface swept by an arc-length curve.

    Returns U(u) = omega(xi1(u)) and the gauge t_shift(u) with
    t = theta + t_shift(u), in which the induced metric is du^2 + U^2 dt^2.
    """
    lo, hi = curve.u_range
    u0 = 0.5 * (lo + hi)

    def U_fn(u: float) -> float:
        w = volume_omega(act, curve.xi1(u), tol)
        if w <= tol.r_min * tol.r_min:
            raise DegenerateOrbit(f"omega = {w:.3e} at u={u}")
        return w

    def shift_integrand(u: float) -> float:
        xi1 = curve.xi1(u)
        B = act.space.B(xi1 * xi1)
        w = act.a * B - act.space.tau * xi1 * xi1
        om_sq = (xi1 * xi1 + w * w) / (B * B)
        if om_sq <= 0:
            raise DegenerateOrbit(f"omega vanishes at u={u}")
        return curve.dxi2(u) * w / (B * om_sq)

    t_shift = CumulativeQuadrature(shift_integrand, u0, lo, hi, tol.quad_abs)
    return SmoothFunction(U_fn), t_shift
