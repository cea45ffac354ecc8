"""Reference closed forms of the natural chart, written apart from the library.

The library evaluates Delta and the radius in one place,
``bcvhelix.bour.chart_terms``.  The tests check that path against the
paper's special cases, re-derived here in their own reduced shape:

- the Euclidean (kappa = tau = 0) integrands, which the general ones must
  reproduce bit for bit (acceptance C8);
- the rotation-surface (a = 0) chart, which must agree pointwise with
  ``build_chart`` at (m = n, a = 0).
"""

import math

from bcvhelix import (
    DEFAULT_TOL,
    BcvSpace,
    BourSeed,
    CumulativeQuadrature,
    DegenerateRadius,
    DomainError,
    NaturalChart,
    NegativeDiscriminant,
    NegativeRadicand,
    SmoothFunction,
    Tolerances,
    domain_of_validity,
)


# Euclidean (kappa = tau = 0) specialization.  With B = Delta = 1 the general
# integrands of bcvhelix.bour reduce to these expressions bit-for-bit
# (power-of-two factors only), which acceptance C8 pins.

def euclidean_xi1(seed: BourSeed, u: float) -> float:
    Uv = seed.U(u)
    num = seed.m * seed.m * Uv * Uv - seed.a * seed.a
    if num < 0:
        raise NegativeRadicand(f"m^2 U^2 - a^2 = {num:.6e} < 0 at u={u}")
    return math.sqrt(num)


def _euclidean_rad(seed: BourSeed, u: float, tol: Tolerances) -> tuple:
    Uv = seed.U(u)
    dU = seed.U.deriv(u)
    xi1sq = seed.m * seed.m * Uv * Uv - seed.a * seed.a
    sub = (seed.m * seed.m * Uv * dU) ** 2
    rad = xi1sq - sub
    band = max(tol.radicand_clamp, 4e-15 * (xi1sq + abs(sub)))
    if rad < band:
        if rad < -band:
            raise NegativeRadicand(f"radicand = {rad:.6e} < 0 at u={u}")
        rad = 0.0
    return Uv, xi1sq, rad


def euclidean_xi2_integrand(seed: BourSeed, u: float, tol: Tolerances = DEFAULT_TOL) -> float:
    Uv, xi1sq, rad = _euclidean_rad(seed, u, tol)
    return seed.m * Uv / xi1sq * math.sqrt(rad)


def euclidean_theta0_integrand(seed: BourSeed, u: float, tol: Tolerances = DEFAULT_TOL) -> float:
    Uv, xi1sq, rad = _euclidean_rad(seed, u, tol)
    return -seed.a / (seed.m * Uv * xi1sq) * math.sqrt(rad)


def rotation_chart(
    space: BcvSpace,
    n: float,
    U,
    u_domain: tuple[float, float],
    tol: Tolerances = DEFAULT_TOL,
) -> NaturalChart:
    """Rotational member via the a = 0 closed forms.

    Uses the dedicated rotation-surface formulas

        xi1 = 2 n U / sqrt(2 (1 + sqrt(D)) - kappa n^2 U^2),
        D = 1 + (4 tau^2 - kappa) n^2 U^2,

    with the xi2 and theta0 integrands written in the same reduced shape;
    agrees pointwise with build_chart at (m = n, a = 0).
    """
    seed = BourSeed(SmoothFunction.wrap(U), n, 0.0, u_domain)
    nn = seed.m
    u_valid = domain_of_validity(space, seed, tol)
    lo, hi = u_domain
    u0 = 0.5 * (lo + hi)
    kappa, tau = space.kappa, space.tau

    def pieces(u: float):
        Uv = seed.U(u)
        dU = seed.U.deriv(u)
        n2U2 = nn * nn * Uv * Uv
        d = 1.0 + (4.0 * tau * tau - kappa) * n2U2
        if d < 0.0:
            if d < -tol.radicand_clamp:
                raise NegativeDiscriminant(f"Delta = {d:.6e} < 0 at u={u}")
            d = 0.0
        sd = math.sqrt(d)
        den = 2.0 * (1.0 + sd) - kappa * n2U2
        if den <= 0.0:
            raise DomainError(f"rotation-chart denominator {den:.6e} <= 0 at u={u}")
        return Uv, dU, n2U2, d, sd, den

    def xi1_fn(u: float) -> float:
        Uv, dU, n2U2, d, sd, den = pieces(u)
        return 2.0 * nn * Uv / math.sqrt(den)

    def dxi1_fn(u: float) -> float:
        Uv, dU, n2U2, d, sd, den = pieces(u)
        xi1sq = 4.0 * n2U2 / den
        if xi1sq == 0.0 or sd == 0.0:
            raise DegenerateRadius(f"xi1' singular at u={u}")
        B = 1.0 + 0.25 * kappa * xi1sq
        return nn * nn * B * B * Uv * dU / (sd * math.sqrt(xi1sq))

    def xi2_f(u: float) -> float:
        Uv, dU, n2U2, d, sd, den = pieces(u)
        if d == 0.0:
            raise NegativeDiscriminant(f"Delta vanishes at u={u}")
        one = 1.0 + sd
        rad = one * one / den - nn * nn * one ** 4 * dU * dU / (d * den * den)
        if rad < 0.0:
            if rad < -tol.radicand_clamp:
                raise NegativeRadicand(f"rotation xi2 radicand {rad:.6e} at u={u}")
            rad = 0.0
        return math.sqrt(rad)

    def th0_f(u: float) -> float:
        Uv, dU, n2U2, d, sd, den = pieces(u)
        if d == 0.0:
            raise NegativeDiscriminant(f"Delta vanishes at u={u}")
        one = 1.0 + sd
        rad = 1.0 / den - nn * nn * one * one * dU * dU / (d * den * den)
        if rad < 0.0:
            if rad < -tol.radicand_clamp:
                raise NegativeRadicand(f"rotation theta radicand {rad:.6e} at u={u}")
            rad = 0.0
        return 2.0 * tau * math.sqrt(rad)

    return NaturalChart(
        space=space,
        seed=seed,
        u_valid=u_valid,
        u0=u0,
        _xi1_fn=xi1_fn,
        _dxi1_fn=dxi1_fn,
        _xi2_quad=CumulativeQuadrature(xi2_f, u0, u_valid[0], u_valid[1], tol.quad_abs),
        _theta0_quad=CumulativeQuadrature(th0_f, u0, u_valid[0], u_valid[1], tol.quad_abs),
        _xi2_integrand=xi2_f,
    )
