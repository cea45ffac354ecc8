"""Constant-mean-curvature condition and its closed-form solution families.

A Bour family member with metric profile U has constant mean curvature H iff

    H sqrt( 4 (m^2 U^2 - a^2) / ((1+sqrt(D))^2 - 4 tau^2 m^2 U^2)
            - m^4 B^2 U^2 U'^2 / D )  =  2 - B - m^2 B (U U'/sqrt(D))',

with D = (1 - 2 a tau)^2 + (m^2 U^2 - a^2)(4 tau^2 - kappa) and
B = 2 (1 - 2 a tau + sqrt(D)) / ((1+sqrt(D))^2 - 4 tau^2 m^2 U^2).

The solutions split into five cases by (kappa - 4 tau^2, H^2 + kappa); the
sqrt(D) of the non-space-form cases obeys

    (sqrt(D))' = sqrt( -(H^2+kappa) D + 2 b1 sqrt(D) + b ),

whose closed-form integrals give U^2 per case below.  Constants:

    b  = (1 - 2 a tau)(kappa (1 + 2 a tau) - 8 tau^2) - c^2
    b1 = 4 tau^2 - 2 a kappa tau - c H        b2 = -b / (2 b1)
    b3 = 4 a tau - a^2 kappa - 1
    c1 = 1 + (1 - 2 a tau)^2 - c H            c2 = -c^2 - 4 a^2 (1 - a tau)^2

Note the square in c2: expanding the space-form first integral
(2 x x')^2 = 4[(1-2 a tau) - tau^2 (x^2-a^2)](x^2-a^2) - (H x^2 + c)^2 in
z = x^2 yields the constant term -c^2 - 4 a^2 (1 - 2 a tau + a^2 tau^2);
the unsquared variant fails the CMC equation for a*tau != 0 (checked in
tests against an independent finite-difference evaluation).

The hyperbolic sinh sub-branch (b1^2 + b (H^2+kappa) < 0) is implemented for
completeness but is unreachable from real parameters: viewed as a quadratic
in c, b1^2 + b (H^2+kappa) has leading coefficient -kappa > 0 and
discriminant 4 (H^2+kappa)(4 tau^2 - kappa)^2 < 0, so its minimum
(H^2+kappa)(4 tau^2 - kappa)^2 / kappa is strictly positive whenever
H^2 + kappa < 0.

The closed forms take a float u or a 1-D array, elementwise with the
float's bits (math's sin, cos, sinh and cosh per element) and NaN where the
float call raises.  Each case is one evaluation of (u, order): it evaluates
the case's transcendental once per abscissa (sin and cos, or cosh and sinh,
of one product rate u, or the polynomial) and gives U^2, its first order
derivatives and the sqrt(Delta) term of the admissibility test.  U, U' and
U'' of the profile then come from one such call, and so does each margin
of the family scan, which evaluates its grid and its walk as arrays;
cmc_residual evaluates the rows of a mesh or a check in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .bour import BourSeed, chart_terms
from .errors import (
    DegenerateFamily,
    DomainError,
    EmptyDomain,
    NegativeDiscriminant,
    NegativeRadicand,
    NoRealFamily,
    ParameterOutOfRange,
)
from .numerics import (
    DEFAULT_TOL,
    MATH_ERRORS,
    SCALAR,
    ArrayOps,
    JetFunction,
    SmoothFunction,
    Tolerances,
    elementwise,
    float_rows,
    ops_for,
    scan_interval,
)
from .spaces import BcvSpace, SpaceClass, classify

__all__ = [
    "CmcConstants",
    "CmcCase",
    "cmc_constants",
    "select_case",
    "cmc_U",
    "minimal_U",
    "cmc_residual",
    "first_integral_check",
    "z_ode_residual",
    "sqrt_delta_ode_residual",
]


class CmcCase(Enum):
    EUCLIDEAN_MINIMAL = "EuclideanMinimal"
    SPACE_FORM_GENERIC = "SpaceFormGeneric"
    CRITICAL_KAPPA = "CriticalKappa"
    OSCILLATORY = "Oscillatory"
    HYPERBOLIC_SINH = "HyperbolicSinh"
    HYPERBOLIC_COSH = "HyperbolicCosh"


@dataclass(frozen=True)
class CmcConstants:
    b: float
    b1: float
    b2: Optional[float]  # absent (None) when b1 == 0
    b3: float
    c1: float
    c2: float
    c: float
    H: float


def cmc_constants(space: BcvSpace, a: float, H: float, c: float) -> CmcConstants:
    """The constant table of the solution families (b2 absent iff b1 = 0)."""
    kappa, tau = space.kappa, space.tau
    b = (1.0 - 2.0 * a * tau) * (kappa * (1.0 + 2.0 * a * tau) - 8.0 * tau * tau) - c * c
    b1 = 4.0 * tau * tau - 2.0 * a * kappa * tau - c * H
    b2 = -b / (2.0 * b1) if b1 != 0.0 else None
    b3 = 4.0 * a * tau - a * a * kappa - 1.0
    e = 1.0 - 2.0 * a * tau
    f = 1.0 - a * tau
    c1 = 1.0 + e * e - c * H
    c2 = -c * c - 4.0 * a * a * (f * f)
    return CmcConstants(b=b, b1=b1, b2=b2, b3=b3, c1=c1, c2=c2, c=c, H=H)


def select_case(
    space: BcvSpace,
    H: float,
    a: float = 0.0,
    c: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
) -> CmcCase:
    """Dispatch (kappa, tau, H) to the solution case, band eps = tol.case_band.

    The hyperbolic sub-branch needs the constants, hence the optional (a, c);
    with the defaults the cosh branch results, which is the only branch real
    parameters can reach (see module docstring).
    """
    eps = tol.case_band
    kappa, tau = space.kappa, space.tau
    if abs(kappa - 4.0 * tau * tau) <= eps:
        if abs(H) <= eps and abs(tau) <= eps and abs(kappa) <= eps:
            return CmcCase.EUCLIDEAN_MINIMAL
        return CmcCase.SPACE_FORM_GENERIC
    nu = H * H + kappa
    if abs(nu) <= eps:
        return CmcCase.CRITICAL_KAPPA
    if nu > 0.0:
        return CmcCase.OSCILLATORY
    k = cmc_constants(space, a, H, c)
    disc = k.b1 * k.b1 + k.b * nu
    if abs(disc) <= eps:
        raise DegenerateFamily(
            f"hyperbolic sub-branch discriminant {disc:.3e} within the case band: "
            "constant-sqrt(Delta) solution, not covered by the closed forms"
        )
    return CmcCase.HYPERBOLIC_COSH if disc > 0.0 else CmcCase.HYPERBOLIC_SINH


# math's functions, elementwise on arrays: the closed forms below take a
# float or a 1-D array of u, and give each element the float's bits
sin, cos, sinh, cosh = map(elementwise, (math.sin, math.cos, math.sinh, math.cosh))


def _u_from_squared(evaluate: Callable) -> JetFunction:
    """U = sqrt(U^2) with its first two derivatives, each float or array
    call one call of the case's evaluate(u, order)."""

    def jet(u, order):
        xp = ops_for(u)
        (v, *dv), _ = evaluate(u, order)
        if xp.fails(v <= 0.0):
            raise DomainError(f"U^2(u={u}) = {v:.6e} <= 0")
        Uv = xp.checked(xp.sqrt(v))
        if not order:
            return (Uv,)
        dU = dv[0] / (2.0 * Uv)
        if order == 1:
            return Uv, dU
        return Uv, dU, (dv[1] - 2.0 * dU * dU) / (2.0 * Uv)

    return JetFunction(jet)


def _margin(m: float, a: float, evaluate, excluded, tol: Tolerances, u):
    """m^2 U^2 - a^2 where u is admissible, and -inf where it is not: where
    U^2 fails or is not positive and finite, m^2 U^2 - a^2 < -radicand_clamp,
    or excluded(v, w) holds for the case's (U^2, w) at u.  At a float u, or
    elementwise at a 1-D array (where U^2 is NaN at the points where the
    float U^2 raises); one evaluate(u, 0) call either way."""
    xp = ops_for(u)
    try:
        (v,), w = evaluate(u, 0)
        out = excluded is not None and excluded(v, w)
    except MATH_ERRORS:
        # mathematical failures only: anything else is a bug and propagates
        return -math.inf
    mg = m * m * v - a * a
    out = out | xp.not_(xp.isfinite(v) & (v > 0.0)) | (mg < -tol.radicand_clamp)
    return xp.where(out, -math.inf, mg)


def _family_domain(
    m: float,
    a: float,
    evaluate: Callable,
    excluded: Optional[Callable],
    window: tuple[float, float],
    tol: Tolerances,
    freq: float = 0.0,
) -> tuple[float, float]:
    """Maximal subinterval of window where U^2 > 0, m^2 U^2 >= a^2, and the
    case's signed sqrt(Delta) expression is admissible; anchored at the best
    valid scan point.  The scan density follows the family's oscillation
    frequency so touching arch boundaries cannot slip between samples.

    The margins m^2 U^2 - a^2 of the grid are one array evaluation, and the
    anchor is the first grid point of largest margin.  The outward walk
    reads the grid's verdict wherever its abscissa is a grid point and
    evaluates the others in one more array call; bisection evaluates point
    by point.  EmptyDomain if that subinterval is a single point, where the
    admissible set touches the window only at an end."""
    lo, hi = window
    n = max(4097, 1 + int(512.0 * (hi - lo) * freq / (2.0 * math.pi)))

    def margins(u):
        with np.errstate(all="ignore"):
            return _margin(m, a, evaluate, excluded, tol, u)

    grid = lo + (hi - lo) * np.arange(n) / (n - 1)
    on_grid = margins(grid)
    best = int(np.argmax(on_grid))
    if on_grid[best] == -math.inf:
        raise NoRealFamily(
            f"U^2 admits no valid point in the window [{lo}, {hi}]"
        )

    def verdicts(us: np.ndarray) -> np.ndarray:
        k = np.minimum(np.searchsorted(grid, us), n - 1)
        hit = grid[k] == us
        mg = on_grid[k]
        mg[~hit] = margins(us[~hit])
        return mg > -math.inf

    domain = scan_interval(
        lambda u: _margin(m, a, evaluate, excluded, tol, u) > -math.inf,
        float(grid[best]),
        window,
        (hi - lo) / (n - 1),
        tol.bisect,
        verdicts,
    )
    if not domain[0] < domain[1]:
        raise EmptyDomain(f"U^2 admits only u={domain[0]} in the window [{lo}, {hi}]")
    return domain


_ARCH_FLOOR = 1e-4  # relative inset from sqrt(Delta) = 0 arch boundaries


def _wave(rate: float, p: Callable, q: Callable, w_of: Callable, g1: float, g2: float) -> Callable:
    """wave(u, order): (w,) with w = w_of(p(rate u)), and for order > 0
    (w, w', w'') with w' = g1 q(rate u) and w'' = g2 p(rate u), from one
    evaluation of p and one of q at the one product rate u."""

    def wave(u, order):
        t = rate * u
        pv = p(t)
        w = w_of(pv)
        return (w, g1 * q(t), g2 * pv) if order else (w,)

    return wave


def _build_case(
    space: BcvSpace,
    m: float,
    a: float,
    H: float,
    c: float,
    case: CmcCase,
    tol: Tolerances,
):
    """The case's evaluate(u, order), the exclusion test excluded(v, w), and
    the oscillation frequency.

    evaluate(u, order) returns ((U^2, (U^2)', ...), w): U^2 with at least
    its first ``order`` derivatives, and the sqrt(Delta) term w the
    exclusion test reads (w = sqrt(Delta), a polynomial, in CriticalKappa;
    w = nu sqrt(Delta) in the Oscillatory and hyperbolic cases; None in
    EuclideanMinimal, which has no test, and in SpaceFormGeneric, whose
    test reads v = U^2).  It evaluates the case's transcendental once at u:
    sin and cos of sqrt(lambda) u or sqrt(nu) u, cosh and sinh of beta u,
    or the polynomial.  Both take a float u or, elementwise, a 1-D array.

    Admissibility cuts the u-line down to one branch of the actual CMC-H
    solution: sqrt(Delta) must stay on its positive arch (Delta = 0 is a
    genuine chart degeneration), and for H != 0 the first integral
    y = (H sqrt(Delta) + c)/(4 tau^2 - kappa)  (resp. (H x^2 + c)/(2 sqrt(D))
    in the space forms) must be nonnegative -- on arcs where it is negative
    the profile sweeps a surface of mean curvature -H, not H.
    """
    kappa, tau = space.kappa, space.tau
    k = cmc_constants(space, a, H, c)
    m2 = m * m
    has_h = abs(H) > tol.case_band

    def arch(floor, root):
        # off the arch of sqrt(Delta) = root(w), or on an arc where y < 0
        def excluded(v, w):
            sd = root(w)
            out = sd < floor
            if has_h:
                out = out | ((H * sd + c) / (4.0 * tau * tau - kappa) < 0.0)
            return out

        return excluded

    if case is CmcCase.EUCLIDEAN_MINIMAL:

        def evaluate(u, order):
            v = (u * u + a * a + 0.25 * c * c) / m2
            return ((v, 2.0 * u / m2, 2.0 / m2) if order else (v,)), None

        return evaluate, None, 0.0

    if case is CmcCase.SPACE_FORM_GENERIC:
        if 1.0 - 2.0 * a * tau <= 0.0:
            raise ParameterOutOfRange(
                f"space-form branch needs 1 - 2 a tau > 0, got {1 - 2 * a * tau}"
            )
        lam = H * H + 4.0 * tau * tau
        amp_sq = k.c1 * k.c1 + k.c2 * lam
        if amp_sq < -tol.radicand_clamp:
            raise NoRealFamily(
                f"c1^2 + c2 (H^2 + 4 tau^2) = {amp_sq:.6e} < 0: no real family"
            )
        amp = math.sqrt(max(amp_sq, 0.0))
        rl = math.sqrt(lam)
        wave = _wave(rl, sin, cos, lambda s: k.c1 + amp * s, amp * rl, -amp)

        def evaluate(u, order):
            w, *dw = wave(u, order)
            v = w / (m2 * lam)
            return ((v, dw[0] / (m2 * lam), dw[1] / m2) if order else (v,)), None

        # v is finite wherever the verdict depends on this test
        excluded = (lambda v, w: H * m2 * v + c < 0.0) if has_h else None
        return evaluate, excluded, rl

    if case is CmcCase.CRITICAL_KAPPA:
        # proof-variant constants (stable on the band kappa ~ -H^2):
        # b1 = 2 a tau H^2 + 4 tau^2 - c H, numerator constant a^2 H^2 + 4 a tau - 1
        b1 = 2.0 * a * tau * H * H + 4.0 * tau * tau - c * H
        if b1 == 0.0:
            raise DegenerateFamily(
                "b1 = 0: sqrt(Delta) is linear in u, not covered by the closed forms"
            )
        b2 = -k.b / (2.0 * b1)
        b3p = a * a * H * H + 4.0 * a * tau - 1.0
        mu = 4.0 * tau * tau + H * H

        def evaluate(u, order):
            w = 0.5 * b1 * u * u + b2
            v = (w * w + b3p) / (m2 * mu)
            if not order:
                return (v,), w
            return (v, 2.0 * w * b1 * u / (m2 * mu), 2.0 * b1 * (1.5 * b1 * u * u + b2) / (m2 * mu)), w

        return evaluate, arch(_ARCH_FLOOR * max(abs(b1), abs(b2), 1.0), lambda w: w), math.sqrt(abs(b1))

    nu = H * H + kappa
    denom = m2 * (4.0 * tau * tau - kappa) * nu * nu
    disc = k.b1 * k.b1 + k.b * nu

    if case is CmcCase.OSCILLATORY:
        if disc < -tol.radicand_clamp:
            raise NoRealFamily(f"b1^2 + b (H^2+kappa) = {disc:.6e} < 0")
        S = math.sqrt(max(disc, 0.0))
        rn = math.sqrt(nu)
        wave = _wave(rn, sin, cos, lambda s: k.b1 + S * s, S * rn, -S * nu)
    elif case is CmcCase.HYPERBOLIC_COSH:
        if disc <= tol.case_band:
            raise DegenerateFamily(f"cosh branch needs b1^2 + b nu > 0, got {disc:.3e}")
        S = math.sqrt(disc)
        beta = math.sqrt(-nu)  # beta^2 = -nu, so w'' = -S beta^2 cosh = S nu cosh
        wave = _wave(beta, cosh, sinh, lambda ch: k.b1 - S * ch, -S * beta, S * nu)
    elif case is CmcCase.HYPERBOLIC_SINH:
        if disc >= -tol.case_band:
            raise DegenerateFamily(f"sinh branch needs b1^2 + b nu < 0, got {disc:.3e}")
        S = math.sqrt(-disc)
        beta = math.sqrt(-nu)
        wave = _wave(beta, sinh, cosh, lambda sh: k.b1 - S * sh, -S * beta, S * nu)
    else:  # pragma: no cover
        raise ValueError(f"unhandled case {case}")

    def evaluate(u, order):
        w, *dw = wave(u, order)
        v = (nu * nu * k.b3 + w * w) / denom
        if not order:
            return (v,), w
        dv = 2.0 * w * dw[0] / denom
        if order == 1:
            return (v, dv), w
        return (v, dv, 2.0 * (dw[0] * dw[0] + w * dw[1]) / denom), w

    # the family's sqrt(Delta) is w / nu
    return evaluate, arch(_ARCH_FLOOR * (abs(k.b1) + S) / abs(nu), lambda w: w / nu), math.sqrt(abs(nu))


def cmc_U(
    space: BcvSpace,
    m: float,
    a: float,
    H: float,
    c: float,
    u_window: tuple[float, float] = (-10.0, 10.0),
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[SmoothFunction, CmcCase]:
    """Metric profile U of the CMC-H Bour family for integration constant c.

    U carries analytic first and second derivatives and a ``domain``
    attribute: the maximal subinterval of u_window where U^2 > 0,
    m^2 U^2 >= a^2, and the case's sqrt(Delta) branch is admissible.
    Phases are zero; shifted members compose with u -> u - u0.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    case = select_case(space, H, a, c, tol)
    evaluate, excluded, freq = _build_case(space, m, a, H, c, case, tol)
    domain = _family_domain(m, a, evaluate, excluded, u_window, tol, freq)
    U = _u_from_squared(evaluate)
    U.domain = domain
    return U, case


def _check_range(name: str, value: float, bound: float):
    if not abs(value) < bound:
        raise ParameterOutOfRange(
            f"|{name}| = {abs(value)} must be < {bound} for this space"
        )


def minimal_U(
    space: BcvSpace,
    m: float,
    a: float,
    c: float,
    u_window: tuple[float, float] = (-10.0, 10.0),
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[SmoothFunction, SpaceClass]:
    """Metric profile of the helicoidal minimal surfaces: the H = 0 member of cmc_U.

    Returns cmc_U(space, m, a, 0, c)'s profile with classify(space).  At
    H = 0 select_case picks EuclideanMinimal in R^3, SpaceFormGeneric in S^3,
    Oscillatory in S^2 x R and SU(2), HyperbolicCosh in H^2 x R and the
    SL(2,R) cover, and CriticalKappa in Nil3.  The stated parameter range of
    each class is checked first (ParameterOutOfRange).  In S^3 the family has
    mean 1 + (1-2 a tau)^2 and amplitude 2 sqrt((1-2 a tau)^2 - tau^2 c^2)
    over 4 m^2 tau^2, in sin(2 |tau| u); the form commonly quoted with mean
    1 - a tau fails the minimal-surface equation (see tests).
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    kappa, tau = space.kappa, space.tau
    cls = classify(space)
    if cls is SpaceClass.SPHERE:
        if 1.0 - 2.0 * a * tau <= 0.0:
            raise ParameterOutOfRange(
                f"sphere family needs 1 - 2 a tau > 0, got {1 - 2 * a * tau}"
            )
        _check_range("c", c, abs(1.0 / tau - 2.0 * a))
    elif cls is SpaceClass.SPHERE_PRODUCT:
        _check_range("c", c, math.sqrt(kappa))
    elif cls is SpaceClass.SU2:
        _check_range("c", c, abs(4.0 * tau * tau - kappa) / math.sqrt(kappa))
    return cmc_U(space, m, a, 0.0, c, u_window, tol)[0], cls


def _eq_principal_pieces(space: BcvSpace, seed: BourSeed, u, tol: Tolerances, xp=SCALAR, jet=None):
    """(U, U', m^2 U^2, Delta, sqrt(Delta), den, xi1^2, B) at a float u with
    xp = SCALAR, or at a 1-D array of u with an ``ArrayOps``; ``jet``, if
    given, is (U, U') there."""
    if jet is None:
        jet = (seed.U(u), seed.U.deriv(u)) if xp is SCALAR else seed.U.values(u)
    Uv, dU = jet
    m2U2, d, sd, _, den, xi1sq = chart_terms(space, seed.m, seed.a, Uv, u, tol, xp)
    if xp.fails(d == 0.0):
        raise NegativeDiscriminant(f"Delta vanishes at u={u}")
    B = 2.0 * (1.0 - 2.0 * seed.a * space.tau + sd) / den
    return Uv, dU, m2U2, d, sd, den, xi1sq, B


def _residual(space: BcvSpace, seed: BourSeed, H: float, u, tol: Tolerances, xp=SCALAR):
    kappa, tau = space.kappa, space.tau
    m = seed.m
    # at an array, U, U' and U'' in one evaluation (one jet call of a closed form)
    jet = None if xp is SCALAR else seed.U.jet_columns(u)
    Uv, dU, m2U2, d, sd, den, xi1sq, B = _eq_principal_pieces(
        space, seed, u, tol, xp, None if jet is None else jet[:2]
    )
    d2U = seed.U.second(u) if jet is None else jet[2]
    rad = xi1sq - m ** 4 * B * B * Uv * Uv * dU * dU / d
    negative = rad < 0.0
    if xp.fails(negative & (rad < -tol.radicand_clamp)):
        raise NegativeRadicand(f"mean-curvature radicand {rad:.6e} < 0 at u={u}")
    lhs = H * xp.sqrt(xp.where(negative, 0.0, rad))
    # (U U' / sqrt(D))' = (U'^2 + U U'')/sqrt(D) - (4 tau^2-kappa) m^2 U^2 U'^2 / D^(3/2)
    dterm = (dU * dU + Uv * d2U) / sd - (4.0 * tau * tau - kappa) * m * m * Uv * Uv * dU * dU / (
        d * sd
    )
    rhs = 2.0 - B - m * m * B * dterm
    return lhs - rhs


def cmc_residual(
    space: BcvSpace,
    seed: BourSeed,
    H: float,
    u,
    tol: Tolerances = DEFAULT_TOL,
):
    """LHS - RHS of the constant-mean-curvature equation at u.

    Zero along exact CMC-H families.  U'' comes from the seed's profile
    (analytic for all closed-form families).  At a float u, or the column at
    a 1-D array of u, one array pass over U, U' and U'' evaluated once
    (``jet_columns``, one jet call of a closed form): every element is the
    float call's value bit for bit, or NaN where the float call raises a
    BcvHelixError.  The elements the array pass fails, or whose value is
    not finite, are evaluated again as floats, so any other error
    propagates.
    """
    if not isinstance(u, np.ndarray):
        return _residual(space, seed, H, u, tol)
    ops = ArrayOps(u.size)
    with np.errstate(all="ignore"):
        out = _residual(space, seed, H, u, tol, ops)
    redo = ops.failed | ~np.isfinite(out)
    return float_rows(out, redo, lambda v: _residual(space, seed, H, v, tol), u)


def first_integral_check(
    space: BcvSpace,
    seed: BourSeed,
    H: float,
    c: float,
    u: float,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """y from the coordinate transform minus y from the first integral.

    The transform sets x = m U and
    y = sqrt( (x^2-a^2)((1+sqrt(D))^2 - 4 tau^2 x^2)/(1 - 2 a tau + sqrt(D))^2
              - x^2 x'^2 / D ),
    while integrating y' = H x x'/sqrt(D) gives (H x^2 + c)/(2 sqrt(D)) in
    the space-form case and (H sqrt(D) + c)/(4 tau^2 - kappa) otherwise.
    Zero along exact families wherever the integrated y is nonnegative.
    """
    kappa, tau = space.kappa, space.tau
    m, a = seed.m, seed.a
    Uv, dU, m2U2, d, sd, den, xi1sq, B = _eq_principal_pieces(space, seed, u, tol)
    x = m * Uv
    dx = m * dU
    B0 = 1.0 - 2.0 * a * tau + sd
    rad = (x * x - a * a) * den / (B0 * B0) - x * x * dx * dx / d
    if rad < 0.0:
        if rad < -tol.radicand_clamp:
            raise NegativeRadicand(f"first-integral radicand {rad:.6e} < 0 at u={u}")
        rad = 0.0
    y_tc = math.sqrt(rad)
    if abs(4.0 * tau * tau - kappa) <= tol.case_band:
        y_sol = (H * x * x + c) / (2.0 * sd)
    else:
        y_sol = (H * sd + c) / (4.0 * tau * tau - kappa)
    return y_tc - y_sol


def z_ode_residual(
    space: BcvSpace,
    seed: BourSeed,
    H: float,
    c: float,
    u: float,
) -> float:
    """Space-form branch check: z = (m U)^2 satisfies
    z'^2 = -(H^2 + 4 tau^2) z^2 + 2 c1 z + c2."""
    a = seed.a
    k = cmc_constants(space, a, H, c)
    m2 = seed.m * seed.m
    Uv = seed.U(u)
    dU = seed.U.deriv(u)
    z = m2 * Uv * Uv
    dz = 2.0 * m2 * Uv * dU
    lam = H * H + 4.0 * space.tau * space.tau
    return dz * dz - (-lam * z * z + 2.0 * k.c1 * z + k.c2)


def sqrt_delta_ode_residual(
    space: BcvSpace,
    seed: BourSeed,
    H: float,
    c: float,
    u: float,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Non-space-form branch check:
    (sqrt(D))'^2 = -(H^2+kappa) D + 2 b1 sqrt(D) + b along the family."""
    kappa, tau = space.kappa, space.tau
    m, a = seed.m, seed.a
    k = cmc_constants(space, a, H, c)
    Uv, dU, _, d, sd, _, _, _ = _eq_principal_pieces(space, seed, u, tol)
    dsd = (4.0 * tau * tau - kappa) * m * m * Uv * dU / sd
    nu = H * H + kappa
    return dsd * dsd - (-nu * d + 2.0 * k.b1 * sd + k.b)
