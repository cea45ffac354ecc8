import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bcvhelix import (
    DomainError,
    HelicoidalAction,
    InconsistentCurve,
    ProfileCurve,
    arclength_residual,
    diff_central,
    geodesic_curvature,
    induced_metric,
    mean_curvature_reduced,
    normal_derivative_log_omega,
    orbital_metric,
    sigma_angle,
    volume_omega,
)
from conftest import NIL, R3


def catenoid_curve(d=1.0, a=0.0, span=(-2.0, 2.0), n=4001):
    """Euclidean catenoid profile: xi1 = sqrt(u^2+d^2), xi2 = d asinh(u/d)."""
    act = HelicoidalAction(R3, a)
    return act, ProfileCurve(
        act,
        lambda u: math.sqrt(u * u + d * d),
        lambda u: d * math.asinh(u / d),
        lambda u: u / math.sqrt(u * u + d * d),
        lambda u: d / math.sqrt(u * u + d * d),
        span,
        n=n,
    )


def vertical_line_curve(space, R=1.0, a=0.0, n=801):
    """xi1 = R with unit-speed vertical motion in the orbit metric."""
    act = HelicoidalAction(space, a)
    B = space.B(R * R)
    w = a * B - space.tau * R * R
    speed = math.sqrt(R * R + w * w) / R  # dxi2 making the curve unit speed
    return act, ProfileCurve(
        act,
        lambda u: R,
        lambda u: speed * u,
        lambda u: 0.0,
        lambda u: speed,
        (-1.0, 1.0),
        n=n,
    )


def nil_catenoid_curve(n=6001):
    act = HelicoidalAction(NIL, 0.5)
    return act, ProfileCurve(
        act,
        lambda u: math.sqrt(u * u + 1.0),
        lambda u: 0.5 * (u + math.atan(u)),
        lambda u: u / math.sqrt(u * u + 1.0),
        lambda u: 0.5 * (1.0 + 1.0 / (1.0 + u * u)),
        (-2.5, 2.5),
        n=n,
    )


def random_wiggle_curve(space, a, rng, span=(-1.5, 1.5), n=4001):
    """Analytic xi1 with xi2 solved from the arc-length condition."""
    from bcvhelix import CumulativeQuadrature

    r_cap = 1.4 if space.kappa >= 0 else 0.65 * space.max_radius
    rho0 = rng.uniform(0.55, min(1.1, r_cap - 0.3))
    rho1 = rng.uniform(0.05, 0.2)
    freq = rng.uniform(0.4, 1.1)
    phase = rng.uniform(0.0, 2 * math.pi)
    act = HelicoidalAction(space, a)

    xi1 = lambda u: rho0 + rho1 * math.sin(freq * u + phase)
    dxi1 = lambda u: rho1 * freq * math.cos(freq * u + phase)

    def dxi2(u):
        r = xi1(u)
        B = space.B(r * r)
        w = a * B - space.tau * r * r
        c2 = (dxi1(u) / B) ** 2
        return math.sqrt((1.0 - c2) * (r * r + w * w)) / r

    xi2 = CumulativeQuadrature(dxi2, 0.0, span[0] - 1e-9, span[1] + 1e-9)
    return act, ProfileCurve(act, xi1, xi2, dxi1, dxi2, span, n=n)


class TestOrbitalMetric:
    def test_flat_rotation(self):
        act = HelicoidalAction(R3, 0.0)
        assert orbital_metric(act, 3.0) == (1.0, 1.0)

    def test_nil_cancellation(self):
        act = HelicoidalAction(NIL, 0.5)
        g11, g22 = orbital_metric(act, 1.0)
        assert g11 == 1.0 and abs(g22 - 1.0) < 1e-15

    def test_flat_helicoidal(self):
        act = HelicoidalAction(R3, 1.0)
        g11, g22 = orbital_metric(act, 2.0)
        assert g11 == 1.0 and abs(g22 - 0.8) < 1e-15


class TestVolumeOmega:
    def test_rotational_radius(self):
        act = HelicoidalAction(R3, 0.0)
        for r in (0.3, 1.0, 2.5):
            assert abs(volume_omega(act, r) - r) < 1e-15

    def test_axis_limit_with_pitch(self):
        act = HelicoidalAction(R3, 1.0)
        assert abs(volume_omega(act, 1e-8) - 1.0) < 1e-8

    def test_nil_value(self):
        act = HelicoidalAction(NIL, 0.5)
        assert abs(volume_omega(act, 1.0) - 1.0) < 1e-15


class TestInducedMetric:
    def test_rotational_catenoid(self):
        act, curve = catenoid_curve()
        for u in (-1.5, 0.0, 0.9):
            E, F, G = induced_metric(act, curve, u)
            assert F == 0.0
            assert abs(G - curve.xi1(u) ** 2) < 1e-14

    def test_nil_catenoid_at_axis_radius(self):
        act, curve = nil_catenoid_curve()
        E, F, G = induced_metric(act, curve, 0.0)  # xi1 = 1 here
        assert abs(E - 1.0) < 1e-12 and abs(F) < 1e-12 and abs(G - 1.0) < 1e-12

    def test_det_equals_omega_squared(self):
        rng = np.random.default_rng(23)
        for space in (R3, NIL):
            act, curve = random_wiggle_curve(space, 0.4, rng)
            for u in np.linspace(-1.2, 1.2, 7):
                E, F, G = induced_metric(act, curve, u)
                om = volume_omega(act, curve.xi1(u))
                assert abs(E * G - F * F - om * om) < 1e-10


class TestArclength:
    def test_catenoid_residual(self):
        act, curve = catenoid_curve()
        for u in np.linspace(-1.9, 1.9, 11):
            assert abs(arclength_residual(act, curve, u)) < 1e-10

    def test_vertical_line(self):
        act, curve = vertical_line_curve(R3, R=1.4)
        assert abs(arclength_residual(act, curve, 0.3)) < 1e-14

    def test_doubled_speed_positive(self):
        act, curve = catenoid_curve()
        bad = ProfileCurve.__new__(ProfileCurve)  # bypass validation on purpose
        bad.__dict__.update(curve.__dict__)
        fns = curve._fns
        bad._fns = (fns[0], fns[1], fns[2], lambda u: 2.0 * fns[3](u))
        res = arclength_residual(act, bad, 0.5)
        assert res > 0.0

    def test_rejects_non_arclength(self):
        act = HelicoidalAction(R3, 0.0)
        with pytest.raises(InconsistentCurve):
            ProfileCurve(
                act,
                lambda u: 1.0 + u * u,
                lambda u: u,
                lambda u: 2 * u,
                lambda u: 1.0,
                (-1.0, 1.0),
                n=51,
            )


class TestDomain:
    def test_curve_evaluates_where_its_domain_admits(self):
        # up to 1e-12 past either end of u_range, read at u itself (xi2 =
        # speed * u here, so a read clamped into u_range would show)
        act, curve = vertical_line_curve(R3, R=1.4)
        us = [e + d for e in curve.u_range for d in (-2e-12, -5e-13, 0.0, 5e-13, 2e-12)]
        evaluates = []
        for u in us:
            try:
                assert curve.xi2(u) == curve._fns[1](u) and curve.domain.read(u) == u
                evaluates.append(True)
            except DomainError:
                evaluates.append(False)
        assert evaluates == [curve.domain.admits(u) for u in us]
        assert 0 < sum(evaluates) < len(us)
        assert curve.xi2(curve.u_range[1] + 5e-13) != curve.xi2(curve.u_range[1])


class TestSigma:
    def test_vertical(self):
        act, curve = vertical_line_curve(R3, R=2.0)
        assert abs(sigma_angle(act, curve, 0.0) - math.pi / 2) < 1e-12

    def test_horizontal(self):
        act = HelicoidalAction(R3, 0.0)
        curve = ProfileCurve(
            act, lambda u: 2.0 + u, lambda u: 0.0,
            lambda u: 1.0, lambda u: 0.0, (-1.0, 1.0), n=101,
        )
        assert abs(sigma_angle(act, curve, 0.2)) < 1e-12

    def test_catenoid_waist(self):
        act, curve = catenoid_curve()
        assert abs(sigma_angle(act, curve, 0.0) - math.pi / 2) < 1e-12

    def test_continuity(self):
        rng = np.random.default_rng(31)
        act, curve = random_wiggle_curve(R3, 0.5, rng)
        sig = [sigma_angle(act, curve, u) for u in np.linspace(-1.4, 1.4, 301)]
        jumps = np.abs(np.diff(sig))
        assert np.max(jumps) < 0.2  # no 2 pi wraps


class TestGeodesicCurvature:
    def test_radial_line(self):
        act = HelicoidalAction(R3, 0.0)
        curve = ProfileCurve(
            act, lambda u: 1.0 + u, lambda u: 0.0,
            lambda u: 1.0, lambda u: 0.0, (-0.5, 2.0), n=501,
        )
        assert abs(geodesic_curvature(act, curve, 0.4)) < 1e-10

    def test_vertical_line_rotational(self):
        act, curve = vertical_line_curve(R3, R=1.5)
        assert abs(geodesic_curvature(act, curve, 0.0)) < 1e-10

    def test_shooting_oracle(self):
        # integrate a geodesic of the (kappa=tau=0, a=1) orbit metric and
        # confirm the closed-form geodesic curvature vanishes along it
        act = HelicoidalAction(R3, 1.0)

        def g22(q1):
            return q1 * q1 / (q1 * q1 + 1.0)

        def dg22(q1):
            return diff_central(g22, q1, order=1, h=1e-5)

        def rhs(_, y):
            q1, q2, p1, p2 = y
            return [
                p1,
                p2,
                0.5 * dg22(q1) * p2 * p2,
                -dg22(q1) / g22(q1) * p1 * p2,
            ]

        alpha = 0.7
        y0 = [1.5, 0.0, math.cos(alpha), math.sin(alpha) / math.sqrt(g22(1.5))]
        sol = solve_ivp(rhs, (-1.0, 1.0), y0, rtol=1e-12, atol=1e-14, dense_output=True)
        assert sol.success
        q1, q2, p1, p2 = (lambda u, k=k: float(sol.sol(u)[k]) for k in range(4))
        curve = ProfileCurve(act, q1, q2, p1, p2, (-0.95, 0.95), n=1201)
        for u in np.linspace(-0.8, 0.8, 9):
            assert abs(geodesic_curvature(act, curve, u)) < 1e-6


class TestMeanCurvatureReduced:
    def test_cylinder(self):
        for R in (0.5, 1.0, 2.0):
            act, curve = vertical_line_curve(R3, R=R)
            H = mean_curvature_reduced(act, curve, 0.0)
            assert abs(H - 1.0 / R) < 1e-10  # trace convention calibration

    def test_nil_catenoid_minimal(self):
        act, curve = nil_catenoid_curve()
        for u in np.linspace(-2.0, 2.0, 11):
            assert abs(mean_curvature_reduced(act, curve, u)) < 1e-8

    def test_euclidean_catenoid_minimal(self):
        act, curve = catenoid_curve(n=6001)
        for u in np.linspace(-1.8, 1.8, 11):
            assert abs(mean_curvature_reduced(act, curve, u)) < 1e-8

    def test_matches_definitional_form(self):
        # H must equal k_g - D_n ln(omega) assembled from its two halves
        rng = np.random.default_rng(41)
        for space in (R3, NIL):
            for a in (0.0, 0.45):
                act, curve = random_wiggle_curve(space, a, rng)
                for u in np.linspace(-1.1, 1.1, 7):
                    h1 = mean_curvature_reduced(act, curve, u)
                    h2 = geodesic_curvature(act, curve, u) - normal_derivative_log_omega(
                        act, curve, u
                    )
                    assert abs(h1 - h2) < 1e-6
