import math
import sys

import numpy as np
import pytest

import bcvhelix

from bcvhelix import (
    BcvSpace,
    BourSeed,
    EmptyDomain,
    HelicoidalAction,
    SmoothFunction,
    build_chart,
    delta,
    domain_of_validity,
    natural_from_helicoidal,
    scaling_factor,
    theta0_integrand,
    volume_omega,
    xi1_from_seed,
    xi2_integrand,
)
from bcvhelix import bour
from bcvhelix.cmc import cmc_U
from conftest import (
    H2XR,
    NIL,
    R3,
    SPHERE,
    catenoid_profile,
    nil_catenoid_profile,
)
from reference_charts import (
    euclidean_theta0_integrand,
    euclidean_xi1,
    euclidean_xi2_integrand,
    rotation_chart,
)


def nil_seed(a=0.5, m=1.0, span=(-3.3, 3.3)):
    return BourSeed(nil_catenoid_profile(), m, a, span)


def scherk_profile(a=0.5, c=0.8):
    dd = a * a + c * c
    return SmoothFunction(
        lambda u: math.sqrt(u * u + dd),
        lambda u: u / math.sqrt(u * u + dd),
        lambda u: dd / (u * u + dd) ** 1.5,
    )


class TestDelta:
    def test_euclidean_is_one(self):
        seed = BourSeed(catenoid_profile(), 1.0, 0.3, (-2, 2))
        for u in (-1.7, 0.0, 0.4):
            assert delta(R3, seed, u) == 1.0

    def test_nil_equals_u_squared(self):
        seed = nil_seed()
        U = seed.U
        for u in (-2.0, 0.1, 1.3):
            assert abs(delta(NIL, seed, u) - U(u) ** 2) < 1e-14

    def test_sphere_constant(self):
        seed = BourSeed(catenoid_profile(2.0), 1.0, 0.4, (-1, 1))
        vals = {delta(SPHERE, seed, u) for u in (-0.8, 0.0, 0.9)}
        expected = (1 - 2 * 0.4 * 0.5) ** 2
        assert all(abs(v - expected) < 1e-15 for v in vals)


class TestXi1:
    def test_euclidean_reduction(self):
        seed = BourSeed(catenoid_profile(), 1.0, 0.5, (-2, 2))
        for u in (-1.5, 0.0, 0.7):
            assert xi1_from_seed(R3, seed, u) == math.sqrt(u * u + 1 - 0.25)

    def test_nil_catenoid(self):
        seed = nil_seed()
        for u in (-2.5, 0.0, 1.1):
            assert abs(xi1_from_seed(NIL, seed, u) - math.sqrt(u * u + 1)) < 1e-14

    def test_nil_general_pitch(self):
        for a in (0.0, 0.25, 0.75):
            seed = nil_seed(a=a)
            for u in (-1.0, 0.6, 2.0):
                expected = math.sqrt(
                    math.sqrt(u ** 4 + 4 * u * u + 8 * (1 - a)) + 2 * (a - 1)
                )
                assert abs(xi1_from_seed(NIL, seed, u) - expected) < 1e-13


class TestXi2Theta:
    def test_catenoid_closed_form(self, catenoid_chart):
        for u in np.linspace(-2.4, 2.4, 17):
            assert abs(catenoid_chart.xi2(u) - math.asinh(u)) < 1e-10

    def test_nil_closed_forms(self, nil_catenoid_chart):
        c = nil_catenoid_chart
        for u in np.linspace(-3.0, 3.0, 25):
            assert abs(c.xi2(u) - 0.5 * (u + math.atan(u))) < 1e-8
            th_exact = -math.atan(u) + math.sqrt(2) * math.atan(u / math.sqrt(2))
            assert abs(c.theta0(u) - th_exact) < 1e-8

    def test_array_columns_are_scalar_values_bitwise(self):
        # a fresh chart per path, so neither reads cells the other filled;
        # the ends of u_valid and points 1e-13 beyond them are clamped
        lo, hi = nil_seed().u_domain
        scalar, column = build_chart(NIL, nil_seed()), build_chart(NIL, nil_seed())
        vlo, vhi = column.u_valid
        us = np.concatenate([np.linspace(hi, lo, 37), [vlo, vhi, vlo - 1e-13, vhi + 1e-13]])
        us = np.clip(us, vlo - 1e-13, vhi + 1e-13)
        for name in ("xi2", "theta0"):
            values = getattr(column, name)(us)
            expected = [getattr(scalar, name)(u) for u in us.tolist()]
            assert values.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()

    def test_every_component_reads_the_clamped_abscissa(self):
        # within 1e-12 beyond u_valid a chart point is built from one
        # abscissa, the end of u_valid, for every component and derivative
        chart = build_chart(NIL, nil_seed())
        for end, beyond in zip(chart.u_valid, (-5e-13, 5e-13)):
            for name in ("xi1", "dxi1", "xi2", "dxi2", "theta0"):
                f = getattr(chart, name)
                assert f(end + beyond) == f(end), name
            for name in ("xi1", "xi2", "theta0"):
                column = getattr(chart, name)(np.array([end, end + beyond]))
                assert column[0] == column[1], name

    def test_domain_is_the_domain_check(self):
        # the chart evaluates exactly where its domain admits u, and reads
        # each such u where the domain says, clamped into u_valid
        chart = build_chart(NIL, nil_seed())
        us = np.array([e + d for e in chart.u_valid for d in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12)])
        evaluates = []
        for u in us.tolist():
            try:
                chart.xi1(u)
                evaluates.append(True)
            except bcvhelix.DomainError:
                evaluates.append(False)
        admits = chart.domain.admits
        assert admits(us).tolist() == evaluates == [admits(u) for u in us.tolist()]
        assert 0 < sum(evaluates) < len(us)
        inside = us[admits(us)]
        assert chart.clamped(inside).tolist() == [chart.domain.read(u) for u in inside.tolist()]
        assert chart.clamped(inside).tolist() == np.clip(inside, *chart.u_valid).tolist()

    def test_helicoid_degenerate_radicand(self, helicoid_chart):
        for u in (-2.0, -0.5, 0.3, 1.7):
            assert helicoid_chart.xi2(u) == 0.0
            assert helicoid_chart.theta0(u) == 0.0
            assert abs(helicoid_chart.xi1(u) - abs(u)) < 1e-14

    def test_rotational_theta0_vanishes(self, catenoid_chart):
        for u in (-2.0, 0.4, 1.9):
            assert catenoid_chart.theta0(u) == 0.0

    def test_scherk_closed_forms(self):
        a, c = 0.5, 0.8
        seed = BourSeed(scherk_profile(a, c), 1.0, a, (-3.2, 3.2))
        chart = build_chart(R3, seed)
        d = math.sqrt(a * a + c * c)
        for u in np.linspace(-3.0, 3.0, 13):
            xi2_exact = c * math.asinh(u / d) + a * math.atan(
                a * u / (c * math.sqrt(u * u + a * a + c * c))
            )
            th_exact = -math.atan(a * u / (c * math.sqrt(u * u + a * a + c * c)))
            assert abs(chart.xi1(u) - math.sqrt(u * u + c * c)) < 1e-13
            assert abs(chart.xi2(u) - xi2_exact) < 1e-8
            assert abs(chart.theta0(u) - th_exact) < 1e-8


class TestEuclideanBitReduction:
    def test_xi1_bit_for_bit(self):
        seed = BourSeed(catenoid_profile(), 1.0, 0.5, (-2, 2))
        for u in np.linspace(-1.9, 1.9, 23):
            assert xi1_from_seed(R3, seed, u) == euclidean_xi1(seed, u)

    def test_integrands_bit_for_bit(self):
        a, m = 0.45, 1.0
        seed = BourSeed(catenoid_profile(1.2), m, a, (-2, 2))
        for u in np.linspace(-1.9, 1.9, 23):
            assert xi2_integrand(R3, seed, u) == euclidean_xi2_integrand(seed, u)
            assert theta0_integrand(R3, seed, u) == euclidean_theta0_integrand(seed, u)

    def test_delta_and_b_exact(self):
        seed = BourSeed(catenoid_profile(), 1.0, 0.3, (-2, 2))
        for u in (-1.0, 0.2, 1.5):
            assert delta(R3, seed, u) == 1.0
            xi1 = xi1_from_seed(R3, seed, u)
            assert scaling_factor(R3, xi1 * xi1) == 1.0


class TestDomainOfValidity:
    def test_helicoid_full_domain(self):
        seed = BourSeed(catenoid_profile(), 1.0, 1.0, (-2.0, 2.0))
        lo, hi = domain_of_validity(R3, seed)
        assert lo == -2.0 and hi == 2.0

    def test_subcritical_pitch_full_domain(self):
        seed = BourSeed(catenoid_profile(2.0), 1.0, 1.0, (-3.0, 3.0))
        assert domain_of_validity(R3, seed) == (-3.0, 3.0)

    def test_empty_when_radius_imaginary(self):
        seed = BourSeed(catenoid_profile(), 1.0, 5.0, (-1.0, 1.0))
        with pytest.raises(EmptyDomain):
            domain_of_validity(R3, seed)

    def test_interior_cut(self):
        # m = 2 shrinks the radicand domain of the catenoid profile
        seed = BourSeed(catenoid_profile(), 2.0, 0.0, (-2.0, 2.0))
        lo, hi = domain_of_validity(R3, seed)
        edge = math.sqrt(4.0 / 12.0)  # radicand 4 + 4u^2 - 16u^2 >= 0
        assert abs(hi - edge) < 1e-8 and abs(lo + edge) < 1e-8

    def test_negative_m_normalized(self):
        seed = BourSeed(catenoid_profile(), -1.0, 0.5, (-1, 1))
        assert seed.m == 1.0


class TestEqM:
    def test_identity_along_charts(self, nil_catenoid_chart, catenoid_chart):
        for chart, space in ((nil_catenoid_chart, NIL), (catenoid_chart, R3)):
            m, a, tau = chart.m, chart.a, space.tau
            for u in np.linspace(-1.8, 1.8, 13):
                xi1 = chart.xi1(u)
                B = scaling_factor(space, xi1 * xi1)
                lhs = B * chart.U(u) * m
                rhs = math.sqrt(xi1 * xi1 + (a * B - tau * xi1 * xi1) ** 2)
                assert abs(lhs - rhs) < 1e-8


class TestNaturalFromHelicoidal:
    def test_round_trip_recovers_profile(self, nil_catenoid_chart):
        act = HelicoidalAction(NIL, 0.5)
        curve = nil_catenoid_chart.profile_curve(n=2001, u_range=(-2.5, 2.5))
        U_rec, _ = natural_from_helicoidal(act, curve)
        for u in np.linspace(-2.2, 2.2, 15):
            assert abs(U_rec(u) - nil_catenoid_chart.U(u)) < 1e-8

    def test_round_trip_scales_with_m(self):
        # omega = m U along every member, so the recovered profile of an
        # m != 1 chart is m times the generating one
        m = 1.2
        chart = build_chart(NIL, BourSeed(nil_catenoid_profile(), m, 0.5, (-2.4, 2.4)))
        act = HelicoidalAction(NIL, 0.5)
        curve = chart.profile_curve(n=1501, u_range=(-2.0, 2.0))
        U_rec, _ = natural_from_helicoidal(act, curve)
        for u in np.linspace(-1.8, 1.8, 11):
            assert abs(U_rec(u) - m * chart.U(u)) < 1e-8

    def test_rotational_shift_vanishes(self, catenoid_chart):
        act = HelicoidalAction(R3, 0.0)
        curve = catenoid_chart.profile_curve(n=1001, u_range=(-2.0, 2.0))
        _, t_shift = natural_from_helicoidal(act, curve)
        for u in (-1.5, 0.0, 1.1):
            assert t_shift(u) == 0.0

    def test_identity_member_regenerates_surface(self, nil_catenoid_chart):
        act = HelicoidalAction(NIL, 0.5)
        curve = nil_catenoid_chart.profile_curve(n=2001, u_range=(-2.5, 2.5))
        U_rec, _ = natural_from_helicoidal(act, curve)
        seed = BourSeed(U_rec, 1.0, 0.5, (-2.4, 2.4))
        chart2 = build_chart(NIL, seed)
        off = nil_catenoid_chart.xi2(0.1) - chart2.xi2(0.1)
        for u in np.linspace(-2.0, 2.0, 11):
            assert abs(chart2.xi1(u) - nil_catenoid_chart.xi1(u)) < 1e-7
            assert abs(nil_catenoid_chart.xi2(u) - chart2.xi2(u) - off) < 1e-7


class TestRotationChart:
    @pytest.mark.parametrize("space", [R3, NIL, SPHERE, H2XR])
    def test_agrees_with_generic_path(self, space):
        U = catenoid_profile(1.5)
        n = 0.8
        span = (-1.5, 1.5)
        rc = rotation_chart(space, n, U, span)
        bc = build_chart(space, BourSeed(U, n, 0.0, span))
        for u in np.linspace(-1.4, 1.4, 11):
            assert abs(rc.xi1(u) - bc.xi1(u)) < 1e-10
            assert abs(rc.xi2(u) - bc.xi2(u)) < 1e-10
            assert abs(rc.theta0(u) - bc.theta0(u)) < 1e-10

    def test_sphere_radius_specialization(self):
        U = catenoid_profile(1.0)
        n = 0.6
        rc = rotation_chart(SPHERE, n, U, (-1.0, 1.0))
        tau = SPHERE.tau
        for u in (-0.8, 0.0, 0.5):
            Uv = U(u)
            expected = n * Uv / math.sqrt(1 - tau * tau * n * n * Uv * Uv)
            assert abs(rc.xi1(u) - expected) < 1e-12

    def test_tau_zero_theta_is_linear(self):
        U = catenoid_profile(1.0)
        rc = rotation_chart(H2XR, 0.7, U, (-1.0, 1.0))
        for u in (-0.7, 0.2, 0.9):
            assert rc.theta0(u) == 0.0
            assert rc.theta(u, 1.4) == 1.4 / 0.7


class TestBourFamilyIsometry:
    def test_same_first_form_for_members(self):
        # two family members over a shared parameter rectangle measure the
        # same induced metric (full isometry check lives in the oracle tests)
        U = nil_catenoid_profile()
        charts = [
            build_chart(NIL, BourSeed(U, m, a, (-2.2, 2.2)))
            for m, a in ((1.0, 0.5), (1.0, 0.25), (1.2, 0.5))
        ]
        for u in np.linspace(-1.8, 1.8, 7):
            vals = []
            for chart in charts:
                act = HelicoidalAction(NIL, chart.a)
                xi1 = chart.xi1(u)
                B = scaling_factor(NIL, xi1 * xi1)
                om = volume_omega(act, xi1)
                vals.append(om / chart.m)  # omega = m U along every member
            assert max(vals) - min(vals) < 1e-12


class TestConcurrentEvaluation:
    def test_threaded_chart_reads_identical(self, nil_catenoid_chart):
        # charts are immutable after construction: concurrent evaluation must
        # return the same values as a fresh serial sweep
        from concurrent.futures import ThreadPoolExecutor

        us = list(np.linspace(-2.9, 2.9, 240))
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(nil_catenoid_chart.xi2, us))
        fresh = build_chart(
            NIL, BourSeed(nil_catenoid_profile(), 1.0, 0.5, (-3.3, 3.3))
        )
        serial = [fresh.xi2(u) for u in us]
        assert threaded == serial


    def test_threads_race_the_first_fill_of_a_fresh_chart(self):
        # xi2 and theta0 share their cells' first growth and one lock: eight
        # threads reading both, interleaved, on a chart nobody has read yet
        from concurrent.futures import ThreadPoolExecutor

        us = list(np.linspace(-2.9, 2.9, 97))
        seed = BourSeed(nil_catenoid_profile(), 1.0, 0.5, (-3.3, 3.3))
        fresh = build_chart(NIL, seed)
        serial = [(fresh.xi2(u), fresh.theta0(u)) for u in us]
        chart = build_chart(NIL, seed)
        reads = [
            (name, k)
            for k in range(len(us))
            for name in (("xi2", "theta0") if k % 2 else ("theta0", "xi2"))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(getattr(chart, name), us[k]) for name, k in reads]
                got = {read: f.result(timeout=60) for read, f in zip(reads, futures)}
        finally:
            sys.setswitchinterval(interval)
        threaded = [(got["xi2", k], got["theta0", k]) for k in range(len(us))]
        assert threaded == serial


class TestEqMProperty:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.floats(0.85, 1.15),
        a=st.floats(-0.8, 0.8),
        u=st.floats(-1.5, 1.5),
    )
    def test_radius_identity(self, m, a, u):
        # m B U = sqrt(xi1^2 + (a B - tau xi1^2)^2) along every chart
        seed = BourSeed(nil_catenoid_profile(), m, a, (-2.0, 2.0))
        xi1 = xi1_from_seed(NIL, seed, u)
        B = scaling_factor(NIL, xi1 * xi1)
        lhs = seed.m * B * seed.U(u)
        rhs = math.sqrt(xi1 * xi1 + (a * B - NIL.tau * xi1 * xi1) ** 2)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)


class TestErrorPaths:
    def test_negative_discriminant(self):
        # kappa > 4 tau^2 with large U drives Delta below zero
        space = BcvSpace(4.0, 0.1)
        seed = BourSeed(catenoid_profile(3.0), 1.0, 0.0, (-1, 1))
        with pytest.raises(bcvhelix.NegativeDiscriminant):
            delta(space, seed, 0.0)

    def test_negative_radicand_raises(self):
        seed = BourSeed(catenoid_profile(), 2.0, 0.0, (-2, 2))
        with pytest.raises(bcvhelix.NegativeRadicand):
            xi2_integrand(R3, seed, 1.5)  # outside |u| < sqrt(1/3)

    def test_validity_scan_propagates_bugs(self):
        # a programming error in U is not an invalid point: the scan must not
        # silently cut the domain at the first abscissa that hits it
        def U(u):
            if u > 0.5:
                raise TypeError("bug in U")
            return math.sqrt(u * u + 1.0)

        seed = BourSeed(SmoothFunction(U, lambda u: u / U(u)), 1.0, 0.0, (-1.0, 1.0))
        with pytest.raises(TypeError):
            domain_of_validity(R3, seed)

    def test_build_chart_empty_domain(self):
        seed = BourSeed(catenoid_profile(), 1.0, 5.0, (-1, 1))
        with pytest.raises(EmptyDomain):
            build_chart(R3, seed)

    def test_chart_rejects_out_of_validity_evaluation(self):
        seed = BourSeed(catenoid_profile(), 2.0, 0.0, (-2.0, 2.0))
        chart = build_chart(R3, seed)
        with pytest.raises(bcvhelix.DomainError):
            chart.xi2(1.0)
        for query in (chart.xi2, chart.theta0):
            with pytest.raises(bcvhelix.DomainError, match="u=1.0 outside"):
                query(np.array([0.0, 0.1, 1.0, -0.2]))


class TestOscillatoryChart:
    """The oscillatory CMC member (kappa, tau, H, a, c, m) = (1, 0, 1, 0.5, -1, 1)
    on [-3.5, 3.5]: its anchor u0 is a double root of m^2 U^2 - a^2, where the
    xi2/theta0 integrands carry rounding noise of size ~1e-16/(u - u0)^4."""

    # values before the rounding stop, when each antiderivative took
    # 168,270 (theta0) and 93,442 (xi2) K15 panels
    BEFORE = {
        ("theta0", -0.5): 0.22507846174205837,
        ("theta0", 0.5): -0.22507846728668865,
        ("xi2", -0.5): -0.1454322580456226,
        ("xi2", 0.5): 0.1454322608903986,
    }

    def test_rounding_noise_does_not_drive_refinement(self, monkeypatch):
        calls = {"theta0": 0, "xi2": 0}

        def counted(name, f):
            def g(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return g

        monkeypatch.setattr(bour, "theta0_integrand", counted("theta0", theta0_integrand))
        monkeypatch.setattr(bour, "xi2_integrand", counted("xi2", xi2_integrand))
        space = BcvSpace(1.0, 0.0)
        U, _ = cmc_U(space, 1.0, 0.5, 1.0, -1.0, u_window=(-3.5, 3.5))
        chart = build_chart(space, BourSeed(U, 1.0, 0.5, tuple(U.domain)))
        for name in calls:
            quad = getattr(chart, f"_{name}_quad")
            for u in chart.u_valid:
                quad(u)
            assert calls[name] <= 15 * 2000, f"{name}: {calls[name] // 15} K15 panels"
            # the quadrature's summed estimate over both sides: below u0 the
            # shift comes mostly from one leaf on the noisy edge of the
            # radicand clamp band, whose own estimate is smaller than it
            # (the cells' own estimates, read from the flat tables)
            estimate = sum(
                err
                for side in (quad._left, quad._right)
                for err in side.table.cell_err[: side.filled].tolist()
            )
            for shift in (-0.5, 0.5):
                value = getattr(chart, name)(chart.u0 + shift)
                assert abs(value - self.BEFORE[name, shift]) <= estimate
        assert chart._theta0_quad.rounding_stops > 0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _separate(chart, u):
    """(theta0, xi1, xi2) at u as three separate queries, in that order."""
    return chart.theta0(u), chart.xi1(u), chart.xi2(u)


class TestStackedProfile:
    """NaturalChart.profile at an array of u reads xi2 and theta0 in one
    stacked read: each column is its own query's, bit for bit, and the
    first error raised is the one the three queries raise in order."""

    @pytest.fixture(scope="class")
    def chart(self):
        return build_chart(NIL, nil_seed(a=0.25))

    @staticmethod
    def inputs(chart):
        lo, hi = chart.u_valid
        u0 = chart.u0
        right = np.linspace(u0, hi, 23)[1:]
        chart.xi2(np.array([lo, hi]))  # grows the tables whose leaf edges are read
        edges = [
            sign * side.table.lo
            for quad in (chart._xi2_quad, chart._theta0_quad)
            for side, sign in ((quad._right, 1.0), (quad._left, -1.0))
        ]
        rng = np.random.default_rng(3)
        spread = rng.uniform(lo, hi, 40)
        return {
            "all at u0": np.full(5, u0),
            "right of u0 only": right,
            "left of u0 only": 2.0 * u0 - right,
            "lo and hi": np.array([lo, hi]),
            "leaf edges": np.concatenate(edges),
            "past the last leaf": np.array([hi, hi + 5e-13, lo - 5e-13, lo]),
            "repeats, unsorted": np.concatenate([spread, spread[::-3], [u0, hi, u0]]),
        }

    def test_columns_are_the_separate_queries_bitwise(self, chart):
        for name, u in self.inputs(chart).items():
            stacked = chart.profile(u)
            for got, want in zip(stacked, _separate(chart, u)):
                assert _bits(got) == _bits(want), name

    def test_every_u_at_u0_on_a_fresh_chart(self):
        # no side of u0 is reached: nothing is grown or read, and the
        # columns are the separate queries'
        chart = build_chart(NIL, nil_seed(a=0.25))
        u = np.full(3, chart.u0)
        assert _bits(np.stack(chart.profile(u))) == _bits(np.stack(_separate(chart, u)))
        assert chart._xi2_quad._cells.tables is None

    def test_float_u_is_the_three_float_queries(self, chart):
        for u in (chart.u0, chart.u0 + 0.3, chart.u_valid[0]):
            assert _bits(chart.profile(u)) == _bits(_separate(chart, u))

    @staticmethod
    def faulty_chart(theta0_fault=None, xi2_fault=None, xi1_refusal=None):
        """A chart on [-1, 1] with u0 = 0 whose theta0 and xi2 integrands
        refuse the nodes the faults mark, and whose xi1 refuses the u
        ``xi1_refusal`` marks; each refusal is a DomainError naming it."""

        def integrand(name, fault):
            def f(x):
                if fault is not None and fault(x):
                    raise bcvhelix.DomainError(f"{name} integrand refused at x={x}")
                return math.cos(x)

            return f

        scalars = (integrand("xi2", xi2_fault), integrand("theta0", theta0_fault))

        def batch(xs):
            values = np.array([[math.cos(x) for x in xs.tolist()]] * 2)
            failed = np.array([[fault is not None and fault(x) for x in xs.tolist()]
                               for fault in (xi2_fault, theta0_fault)])
            return values, failed

        def xi1(u):
            refused = np.zeros(np.shape(u), dtype=bool) if xi1_refusal is None else xi1_refusal(u)
            if np.any(refused):
                raise bcvhelix.DomainError(f"xi1 refused at u={np.asarray(u)[refused][0]}")
            return 1.0 + 0.0 * u

        xi2_quad, theta0_quad = bour.CumulativeQuadrature.components(
            bour.Integrand(batch, scalars), 0.0, -1.0, 1.0
        )
        seed = BourSeed(lambda u: 1.0, 1.0, 0.0, (-1.0, 1.0))
        return bour.NaturalChart(NIL, seed, (-1.0, 1.0), 0.0, xi1, None, xi2_quad, theta0_quad, scalars[0])

    @pytest.mark.parametrize(
        "faults, u, first",
        [
            # a theta0 cell fault right of u0 and a xi1 refusal: theta0's
            ({"theta0_fault": lambda x: x > 0.5, "xi1_refusal": lambda u: np.asarray(u) > 0.7},
             [0.0, 0.8, -0.3], "theta0 integrand"),
            # theta0 faults on both sides: the right side's
            ({"theta0_fault": lambda x: abs(x) > 0.5}, [-0.9, 0.8], "theta0 integrand refused at x=0.5"),
            # xi1 refuses and xi2 faults: xi1's
            ({"xi2_fault": lambda x: x > 0.5, "xi1_refusal": lambda u: np.asarray(u) > 0.7},
             [0.8, 0.2], "xi1 refused at u=0.8"),
            # a xi2 cell fault left of u0 only: xi2's
            ({"xi2_fault": lambda x: x < -0.5}, [0.3, -0.8], "xi2 integrand refused at x=-0.5"),
            # a u outside the domain comes before every fault
            ({"theta0_fault": lambda x: x > 0.5}, [0.8, 1.5, -3.0], "u=1.5 outside chart validity"),
        ],
    )
    def test_first_error_is_the_separate_queries(self, faults, u, first):
        chart = self.faulty_chart(**faults)
        u = np.array(u)
        with pytest.raises(bcvhelix.BcvHelixError) as separate:
            _separate(chart, u)
        with pytest.raises(bcvhelix.BcvHelixError) as stacked:
            chart.profile(u)
        assert type(stacked.value) is type(separate.value)
        assert str(stacked.value) == str(separate.value)
        assert str(stacked.value).startswith(first)
