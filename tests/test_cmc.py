import math

import numpy as np
import pytest

from bcvhelix import (
    BcvSpace,
    BourSeed,
    CmcCase,
    HelicoidalAction,
    ParameterOutOfRange,
    SmoothFunction,
    SpaceClass,
    build_chart,
    cmc_U,
    cmc_constants,
    cmc_residual,
    first_integral_check,
    mean_curvature_reduced,
    minimal_U,
    select_case,
    sqrt_delta_ode_residual,
    z_ode_residual,
)
from bcvhelix import cmc
from bcvhelix.cmc import _family_domain
from bcvhelix.numerics import DEFAULT_TOL, elementwise
from conftest import H2XR, NIL, R3, S2XR, SPHERE, SU2_SPACE

# representative (space, H, a, c, m) per solution case; all verified to have
# a nonnegative first integral on their domain
CMC_REPS = [
    (R3, 0.0, 0.7, 0.8, 1.3, CmcCase.EUCLIDEAN_MINIMAL),
    (SPHERE, 1.0, 0.5, 0.0, 1.0, CmcCase.SPACE_FORM_GENERIC),
    (BcvSpace(-1.0, 0.0), 1.0, 0.5, -2.0, 1.0, CmcCase.CRITICAL_KAPPA),
    (BcvSpace(1.0, 0.0), 1.0, 0.5, -1.0, 1.0, CmcCase.OSCILLATORY),
    (BcvSpace(-4.0, 0.0), 1.0, 0.5, 1.0, 1.0, CmcCase.HYPERBOLIC_COSH),
]

MINIMAL_REPS = [
    (R3, 0.6, 1.0, 1.0, SpaceClass.EUCLIDEAN),
    (SPHERE, 0.5, 0.5, 1.0, SpaceClass.SPHERE),
    (BcvSpace(1.0, 0.0), 0.3, 0.5, 1.0, SpaceClass.SPHERE_PRODUCT),
    (BcvSpace(-1.0, 0.0), 0.4, 0.5, 1.0, SpaceClass.HYPERBOLIC_PRODUCT),
    (NIL, 0.5, 1.0, 1.0, SpaceClass.HEISENBERG),
    (SU2_SPACE, 0.3, 0.5, 1.0, SpaceClass.SU2),
    (BcvSpace(-1.0, 0.5), 0.2, 0.4, 1.0, SpaceClass.SL2R_COVER),
    (BcvSpace(1.0, -0.5), 0.5, 0.5, 1.0, SpaceClass.SPHERE),  # tau < 0
]

# the cmc_U case that select_case picks at H = 0, per space class
MINIMAL_CASE = {
    SpaceClass.EUCLIDEAN: CmcCase.EUCLIDEAN_MINIMAL,
    SpaceClass.SPHERE: CmcCase.SPACE_FORM_GENERIC,
    SpaceClass.SPHERE_PRODUCT: CmcCase.OSCILLATORY,
    SpaceClass.SU2: CmcCase.OSCILLATORY,
    SpaceClass.HYPERBOLIC_PRODUCT: CmcCase.HYPERBOLIC_COSH,
    SpaceClass.SL2R_COVER: CmcCase.HYPERBOLIC_COSH,
    SpaceClass.HEISENBERG: CmcCase.CRITICAL_KAPPA,
}


def interior_points(U, n=50, inset=0.02):
    lo, hi = U.domain
    pad = (hi - lo) * inset
    return np.linspace(lo + pad, hi - pad, n)


class TestConstants:
    def test_euclidean_cmc_values(self):
        k = cmc_constants(R3, 0.0, 1.0, 0.0)
        assert k.c1 == 2.0 and k.c2 == 0.0
        assert k.b1 == 0.0 and k.b == 0.0 and k.b3 == -1.0
        assert k.b2 is None

    def test_nil_minimal_values(self):
        k = cmc_constants(NIL, 0.5, 0.0, 1.0)
        assert k.b1 == 1.0
        assert k.b == -2.0
        assert k.b2 == 1.0
        assert k.b3 == 0.0

    def test_critical_b1_variants_agree(self):
        # 2 a tau H^2 + 4 tau^2 - c H == 4 tau^2 - 2 a kappa tau - c H at kappa = -H^2
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, tau, H, c = rng.uniform(-2, 2, size=4)
            space = BcvSpace(-H * H, tau)
            table = cmc_constants(space, a, H, c).b1
            proof = 2 * a * tau * H * H + 4 * tau * tau - c * H
            assert abs(table - proof) < 1e-13 * max(1.0, abs(table))


class TestSelectCase:
    @pytest.mark.parametrize(
        "space,H,expected",
        [
            (R3, 0.0, CmcCase.EUCLIDEAN_MINIMAL),
            (SPHERE, 1.0, CmcCase.SPACE_FORM_GENERIC),
            (R3, 1.0, CmcCase.SPACE_FORM_GENERIC),
            (BcvSpace(-1.0, 0.0), 1.0, CmcCase.CRITICAL_KAPPA),
            (BcvSpace(1.0, 0.0), 1.0, CmcCase.OSCILLATORY),
            (BcvSpace(-4.0, 0.0), 1.0, CmcCase.HYPERBOLIC_COSH),
            (NIL, 0.0, CmcCase.CRITICAL_KAPPA),
        ],
    )
    def test_dispatch(self, space, H, expected):
        assert select_case(space, H) is expected

    def test_hyperbolic_always_cosh(self):
        # the sinh sub-branch needs b1^2 + b (H^2+kappa) < 0, which no real
        # (a, c) achieves: the quadratic in c has leading coefficient -kappa
        # and discriminant 4 (H^2+kappa)(4 tau^2-kappa)^2 < 0
        rng = np.random.default_rng(5)
        found = set()
        for _ in range(4000):
            kappa = -rng.uniform(0.05, 30.0)
            tau = rng.uniform(-3, 3)
            if abs(kappa - 4 * tau * tau) < 1e-8:
                continue
            H = rng.uniform(-1, 1) * math.sqrt(-kappa) * 0.999
            a, c = rng.uniform(-10, 10, size=2)
            found.add(select_case(BcvSpace(kappa, tau), H, a, c))
        assert found == {CmcCase.HYPERBOLIC_COSH}


class TestCmcU:
    def test_case1_formula(self):
        U, case = cmc_U(R3, 1.5, 0.4, 0.0, 0.6)
        assert case is CmcCase.EUCLIDEAN_MINIMAL
        for u in (-1.0, 0.0, 2.0):
            assert abs(U(u) ** 2 - (u * u + 0.16 + 0.09) / 2.25) < 1e-14

    def test_flat_nonzero_h_profile_form(self):
        # Euclidean CMC profile: U^2 = (2 - cH + 2 sqrt(1-cH-a^2 H^2) sin(Hu))/(m^2 H^2)
        m, a, H, c = 1.2, 0.4, 0.8, 0.3
        U, case = cmc_U(R3, m, a, H, c)
        assert case is CmcCase.SPACE_FORM_GENERIC
        for u in np.linspace(-2, 2, 9):
            expected = (
                2 - c * H + 2 * math.sqrt(1 - c * H - a * a * H * H) * math.sin(H * u)
            ) / (m * m * H * H)
            assert abs(U(u) ** 2 - expected) < 1e-13

    def test_case3_numerator_variants_agree(self):
        # (b1 u^2/2 + b2)^2 + a^2 H^2 + 4 a tau - 1 with kappa = -H^2 equals
        # the generic-constant form with b3 = 4 a tau - a^2 kappa - 1
        space = BcvSpace(-1.0, 0.25)
        a, H, c = 0.3, 1.0, -1.5
        k = cmc_constants(space, a, H, c)
        assert abs(k.b3 - (a * a * H * H + 4 * a * space.tau - 1.0)) < 1e-15

    def test_analytic_derivatives_consistent(self):
        for space, H, a, c, m, _ in CMC_REPS:
            U, _ = cmc_U(space, m, a, H, c)
            lo, hi = U.domain
            for u in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
                h = 1e-5
                fd1 = (U(u + h) - U(u - h)) / (2 * h)
                assert abs(U.deriv(u) - fd1) < 1e-8 * max(1, abs(fd1))
                fd2 = (U.deriv(u + h) - U.deriv(u - h)) / (2 * h)
                assert abs(U.second(u) - fd2) < 1e-7 * max(1, abs(fd2))


class TestMinimalU:
    def test_euclidean_formula(self):
        U, cls = minimal_U(R3, 1.0, 0.5, 1.2)
        assert cls is SpaceClass.EUCLIDEAN
        assert abs(U(1.0) ** 2 - (1.0 + 0.25 + 0.36)) < 1e-14

    def test_nil_formula(self):
        U, cls = minimal_U(NIL, 1.0, 0.3, 0.7)
        assert cls is SpaceClass.HEISENBERG
        tau = 0.5
        for u in (-1.0, 0.4, 2.2):
            w = 2 * tau * tau * u * u + 1 - 2 * 0.3 * tau + 0.49 / (8 * tau * tau)
            expected = (w * w + 4 * 0.3 * tau - 1) / (4 * tau * tau)
            assert abs(U(u) ** 2 - expected) < 1e-13

    def test_nil_helicoidal_catenoid_member(self):
        U, _ = minimal_U(NIL, 1.0, 0.5, 1.0)
        for u in (-2.0, -0.3, 0.0, 1.7):
            assert abs(U(u) - 0.5 * (u * u + 2.0)) < 1e-14

    @pytest.mark.parametrize(
        "space,a,c",
        [
            (SPHERE, 0.5, 1.5),       # |c| < |1/tau - 2a| = 1
            (S2XR, 0.3, 1.5),         # |c| < sqrt(kappa)
            (SU2_SPACE, 0.3, 0.75),   # |c| < |4 tau^2 - kappa|/sqrt(kappa)
        ],
    )
    def test_constraint_violation(self, space, a, c):
        with pytest.raises(ParameterOutOfRange):
            minimal_U(space, 1.0, a, c)

    def test_sphere_branch_assumption(self):
        with pytest.raises(ParameterOutOfRange):
            minimal_U(SPHERE, 1.0, 1.5, 0.1)  # 1 - 2 a tau < 0

    def test_sphere_tau_sign_flip(self):
        # (tau, a) -> (-tau, -a) is an orientation flip: the profile is the same
        U_neg, _ = minimal_U(BcvSpace(1.0, -0.5), 1.0, 0.3, 0.4)
        U_pos, _ = minimal_U(SPHERE, 1.0, -0.3, 0.4)
        assert U_neg.domain == U_pos.domain
        for u in interior_points(U_neg, n=15):
            assert U_neg(u) == U_pos(u)


class TestFamilyDomain:
    # _family_domain's evaluate(u, order) takes a float or, elementwise, a
    # 1-D array, and returns ((U^2, ...), w)
    def test_scan_propagates_bugs(self):
        @elementwise
        def U2(u):
            if u > 0.5:
                raise TypeError("bug in U^2")
            return 1.0 + u * u

        with pytest.raises(TypeError, match="bug in U"):
            _family_domain(1.0, 0.0, lambda u, order: ((U2(u),), None), None, (-1.0, 1.0), DEFAULT_TOL)

    def test_math_failure_bounds_domain(self):
        # math.sqrt's ValueError past u = 0.5 is a mathematical failure
        U2 = elementwise(lambda u: math.sqrt(0.5 - u))
        lo, hi = _family_domain(
            1.0, 0.0, lambda u, order: ((U2(u),), None), None, (-1.0, 1.0), DEFAULT_TOL
        )
        assert lo == -1.0 and 0.5 - DEFAULT_TOL.bisect <= hi < 0.5

    @pytest.mark.parametrize(
        "space,a,c", [(NIL, 0.5, 1.0), (S2XR, 0.3, 0.5)], ids=["whole-window", "arch"]
    )
    def test_one_u2_evaluation_per_grid_point(self, monkeypatch, space, a, c):
        # the anchor search and the outward walk share the grid's verdicts,
        # so U^2 is evaluated once per grid point and per bisection step; the
        # Nil3 family is valid on the whole window, the S^2 x R one on one arch.
        # Counted in abscissae: the grid alone is 4097 of them
        points = []
        build = cmc._build_case

        def counting_build(*args):
            evaluate, *rest = build(*args)

            def counted(u, order):
                points.append(np.size(u))
                return evaluate(u, order)

            return (counted, *rest)

        monkeypatch.setattr(cmc, "_build_case", counting_build)
        window = (-3.5, 3.5)
        U, _ = cmc_U(space, 1.0, a, 0.0, c, u_window=window)
        assert (U.domain == window) == (space is NIL)
        step = (window[1] - window[0]) / 4096
        bisections = 2 * math.ceil(math.log2(step / DEFAULT_TOL.bisect))
        assert 4097 <= sum(points) <= 4097 + bisections


class TestOneTranscendentalPerAbscissa:
    # each closed form evaluates its sin/cos or cosh/sinh pair once per
    # abscissa: U and U' together, U'' alone, and the scan's admissibility
    # margin, which reads U^2 and the sqrt(Delta) term from one evaluation
    CASES = [
        (S2XR, 0.3, 0.5, CmcCase.OSCILLATORY, "sin", "cos"),
        (H2XR, 0.2, 0.3, CmcCase.HYPERBOLIC_COSH, "cosh", "sinh"),
        (SPHERE, 0.2, 0.4, CmcCase.SPACE_FORM_GENERIC, "sin", "cos"),
    ]

    @staticmethod
    def _count(monkeypatch):
        counts = {}
        for name in ("sin", "cos", "sinh", "cosh"):
            fn = getattr(cmc, name)

            def counted(x, fn=fn, name=name):
                counts[name] = counts.get(name, 0) + np.size(x)
                return fn(x)

            monkeypatch.setattr(cmc, name, counted)
        return counts

    @pytest.mark.parametrize("space,a,c,case,p,q", CASES, ids=[c[3].value for c in CASES])
    def test_counts(self, monkeypatch, space, a, c, case, p, q):
        counts = self._count(monkeypatch)
        window = (-3.5, 3.5)
        U, got = cmc_U(space, 1.0, a, 0.0, c, u_window=window)
        assert got is case
        us = np.linspace(*U.domain, 1001)[1:-1]
        n = us.size
        for column in (U.values, U.second_column):
            counts.clear()
            column(us)
            assert counts == {p: n, q: n}
        evaluate, excluded, freq = cmc._build_case(space, 1.0, a, 0.0, c, case, DEFAULT_TOL)
        grid = np.linspace(*window, 4097)
        counts.clear()
        margins = cmc._margin(1.0, a, evaluate, excluded, DEFAULT_TOL, grid)
        assert counts == {p: grid.size}
        assert (margins > -math.inf).any()

    def test_overflow_in_every_derivative(self):
        # past beta u = 710.48 math.cosh overflows: each float call raises
        # math's OverflowError, and each array call is NaN at that abscissa
        U, case = cmc_U(H2XR, 1.0, 0.2, 0.0, 0.3, u_window=(-3.5, 3.5))
        assert case is CmcCase.HYPERBOLIC_COSH
        u = 2000.0
        with pytest.raises(OverflowError):
            math.cosh(math.sqrt(0.75) * u)
        for f in (U, U.deriv, U.second):
            with pytest.raises(OverflowError, match="^math range error$"):
                f(u)
        us = np.array([0.5, u])
        columns = (U.column(us), *U.values(us), U.second_column(us))
        for column, f in zip(columns, (U, U, U.deriv, U.second)):
            assert column[0] == f(0.5) and np.isnan(column[1])


class TestResiduals:
    @pytest.mark.parametrize("space,H,a,c,m,case", CMC_REPS)
    def test_cmc_families_solve_the_equation(self, space, H, a, c, m, case):
        U, got = cmc_U(space, m, a, H, c, u_window=(-3.5, 3.5))
        assert got is case
        seed = BourSeed(U, m, a, U.domain)
        worst = max(abs(cmc_residual(space, seed, H, u)) for u in interior_points(U))
        assert worst < 1e-8

    @pytest.mark.parametrize("space,a,c,m,cls", MINIMAL_REPS)
    def test_minimal_families_solve_the_equation(self, space, a, c, m, cls):
        U, got = minimal_U(space, m, a, c)
        assert got is cls
        seed = BourSeed(U, m, a, U.domain)
        worst = max(abs(cmc_residual(space, seed, 0.0, u)) for u in interior_points(U))
        assert worst < 1e-8

    def test_perturbed_profile_detected(self):
        # note: u -> u + shift closes the Heisenberg minimal family, so a
        # linear perturbation must target a family without that absorption
        U, _ = minimal_U(R3, 1.0, 0.6, 1.0)
        bad = SmoothFunction(
            lambda u: U(u) + 0.01 * u,
            lambda u: U.deriv(u) + 0.01,
            lambda u: U.second(u),
        )
        seed = BourSeed(bad, 1.0, 0.6, (-2.0, 2.0))
        worst = max(
            abs(cmc_residual(R3, seed, 0.0, u)) for u in np.linspace(-1.8, 1.8, 25)
        )
        assert worst > 1e-3

    def test_misquoted_sphere_minimal_fails(self):
        # a variant often quoted with mean 1 - a tau instead of
        # 1 + (1 - 2 a tau)^2 (and half the amplitude) is not a solution
        tau, a, c, m = 0.5, 0.25, 0.4, 1.0
        amp = math.sqrt((1 - 2 * a * tau) ** 2 - tau * tau * c * c)
        den = 4 * m * m * tau * tau
        U2 = lambda u: (1 - a * tau + amp * math.sin(2 * tau * u)) / den
        dU2 = lambda u: amp * 2 * tau * math.cos(2 * tau * u) / den
        d2U2 = lambda u: -amp * 4 * tau * tau * math.sin(2 * tau * u) / den
        U = SmoothFunction(
            lambda u: math.sqrt(U2(u)),
            lambda u: dU2(u) / (2 * math.sqrt(U2(u))),
            lambda u: (d2U2(u) - dU2(u) ** 2 / (2 * U2(u))) / (2 * math.sqrt(U2(u))),
        )
        seed = BourSeed(U, m, a, (-1.5, 1.5))
        worst = max(
            abs(cmc_residual(SPHERE, seed, 0.0, u)) for u in np.linspace(-1.4, 1.4, 15)
        )
        assert worst > 1e-2


class TestFirstIntegral:
    def test_euclidean_minimal_value(self):
        # in the flat rotational case y from the transform equals c/2
        m, a, c = 1.0, 0.5, 0.8
        U, _ = cmc_U(R3, m, a, 0.0, c)
        seed = BourSeed(U, m, a, (-3, 3))
        for u in np.linspace(-2.5, 2.5, 11):
            assert abs(first_integral_check(R3, seed, 0.0, c, u)) < 1e-8

    def test_nil_helicoidal_catenoid(self):
        U, _ = minimal_U(NIL, 1.0, 0.5, 1.0)
        seed = BourSeed(U, 1.0, 0.5, (-3, 3))
        for u in np.linspace(-3.0, 3.0, 21):
            assert abs(first_integral_check(NIL, seed, 0.0, 1.0, u)) < 1e-8

    @pytest.mark.parametrize("space,H,a,c,m,case", CMC_REPS)
    def test_along_all_reps(self, space, H, a, c, m, case):
        U, _ = cmc_U(space, m, a, H, c, u_window=(-3.5, 3.5))
        seed = BourSeed(U, m, a, U.domain)
        for u in interior_points(U, n=25):
            assert abs(first_integral_check(space, seed, H, c, u)) < 1e-8

    @pytest.mark.parametrize("space,H,a,c,m,case", CMC_REPS)
    def test_ode_residuals(self, space, H, a, c, m, case):
        U, _ = cmc_U(space, m, a, H, c, u_window=(-3.5, 3.5))
        seed = BourSeed(U, m, a, U.domain)
        space_form = abs(space.kappa - 4 * space.tau ** 2) <= 1e-9
        for u in interior_points(U, n=25):
            if space_form:
                assert abs(z_ode_residual(space, seed, H, c, u)) < 1e-8
            else:
                assert abs(sqrt_delta_ode_residual(space, seed, H, c, u)) < 1e-8


class TestReductionAgreement:
    @pytest.mark.parametrize(
        "space,H,a,c,m",
        [
            (NIL, 0.0, 0.5, 1.0, 1.0),
            (R3, 0.8, 0.4, 0.3, 1.2),
            (BcvSpace(-4.0, 0.0), 1.0, 0.5, 1.0, 1.0),
        ],
    )
    def test_chart_profile_has_curvature_H(self, space, H, a, c, m):
        U, _ = cmc_U(space, m, a, H, c, u_window=(-2.5, 2.5))
        lo, hi = U.domain
        pad = 0.12 * (hi - lo)
        seed = BourSeed(U, m, a, (lo, hi))
        chart = build_chart(space, seed)
        curve = chart.profile_curve(n=6001, u_range=(lo + pad, hi - pad))
        act = HelicoidalAction(space, a)
        for u in np.linspace(lo + 2 * pad, hi - 2 * pad, 9):
            assert abs(abs(mean_curvature_reduced(act, curve, u)) - abs(H)) < 1e-6


class TestConstantTableCrossChecks:
    def test_unsquared_c2_variant_is_not_a_solution(self):
        # c2 = -c^2 - 4 a^2 (1 - a tau): dropping the square breaks the
        # family whenever a tau != 0 (the first-integral expansion gives
        # -c^2 - 4 a^2 (1 - 2 a tau + a^2 tau^2))
        tau, a, H, c, m = 0.5, 0.5, 1.0, 0.0, 1.0
        space = SPHERE
        lam = H * H + 4 * tau * tau
        c1 = 1 + (1 - 2 * a * tau) ** 2 - c * H
        c2_bad = -c * c - 4 * a * a * (1 - a * tau)
        amp = math.sqrt(c1 * c1 + c2_bad * lam)
        rl = math.sqrt(lam)
        U2 = lambda u: (c1 + amp * math.sin(rl * u)) / (m * m * lam)
        dU2 = lambda u: amp * rl * math.cos(rl * u) / (m * m * lam)
        d2U2 = lambda u: -amp * math.sin(rl * u) / (m * m)
        U = SmoothFunction(
            lambda u: math.sqrt(U2(u)),
            lambda u: dU2(u) / (2 * math.sqrt(U2(u))),
            lambda u: (d2U2(u) - dU2(u) ** 2 / (2 * U2(u))) / (2 * math.sqrt(U2(u))),
        )
        seed = BourSeed(U, m, a, (-0.4, 0.4))
        worst = max(
            abs(cmc_residual(space, seed, H, u)) for u in np.linspace(-0.35, 0.35, 9)
        )
        assert worst > 1e-2

    def test_residual_matches_pure_fd_evaluation(self):
        # the analytic residual must agree with one assembled from nothing
        # but finite differences of U and of the U U'/sqrt(Delta) quotient
        space, H, a, c, m = SPHERE, 1.0, 0.5, 0.0, 1.0
        U, _ = cmc_U(space, m, a, H, c)

        # evaluate on an off-family profile so the residual is nonzero
        bad = SmoothFunction(
            lambda u: U(u) + 0.05 * math.sin(2 * u),
            lambda u: U.deriv(u) + 0.1 * math.cos(2 * u),
            lambda u: U.second(u) - 0.2 * math.sin(2 * u),
        )
        seed = BourSeed(bad, m, a, (-0.5, 0.5))
        for u in (-0.3, 0.0, 0.25):
            analytic = cmc_residual(space, seed, H, u)
            numeric = resid_fd_for(bad, space, m, a, H, u)
            assert abs(analytic - numeric) < 1e-4 * max(1.0, abs(analytic))


def resid_fd_for(U, space, m, a, H, u):
    """CMC-equation residual from finite differences of U alone."""
    kappa, tau = space.kappa, space.tau
    h = 1e-6

    def sd_of(v):
        Uv = U(v)
        return math.sqrt(
            (1 - 2 * a * tau) ** 2
            + (m * m * Uv * Uv - a * a) * (4 * tau * tau - kappa)
        )

    def quotient(v):
        dU = (U(v + h) - U(v - h)) / (2 * h)
        return U(v) * dU / sd_of(v)

    dterm = (quotient(u + 1e-5) - quotient(u - 1e-5)) / 2e-5
    Uv = U(u)
    dU = (U(u + h) - U(u - h)) / (2 * h)
    m2U2 = m * m * Uv * Uv
    sd = sd_of(u)
    den = (1 + sd) ** 2 - 4 * tau * tau * m2U2
    B = 2 * (1 - 2 * a * tau + sd) / den
    rad = 4 * (m2U2 - a * a) / den - m ** 4 * B * B * Uv * Uv * dU * dU / (sd * sd)
    return H * math.sqrt(max(rad, 0.0)) - (2 - B - m * m * B * dterm)


class TestMinimalCmcConsistency:
    @pytest.mark.parametrize(
        "space,expected_case",
        [
            (NIL, CmcCase.CRITICAL_KAPPA),          # H^2 + kappa = 0
            (S2XR, CmcCase.OSCILLATORY),            # H^2 + kappa > 0
            (BcvSpace(-1.0, 0.0), CmcCase.HYPERBOLIC_COSH),
        ],
    )
    def test_h_zero_family_is_minimal(self, space, expected_case):
        # both routes at H = 0 satisfy the same residual; that they are one
        # profile is asserted by test_minimal_U_is_the_h_zero_member
        m, a, c = 1.0, 0.3, 0.6
        U1, case = cmc_U(space, m, a, 0.0, c, u_window=(-3.0, 3.0))
        assert case is expected_case
        seed1 = BourSeed(U1, m, a, U1.domain)
        for u in interior_points(U1, n=25):
            assert abs(cmc_residual(space, seed1, 0.0, u)) < 1e-8
        U2, _ = minimal_U(space, m, a, c, u_window=(-3.0, 3.0))
        seed2 = BourSeed(U2, m, a, U2.domain)
        for u in interior_points(U2, n=25):
            assert abs(cmc_residual(space, seed2, 0.0, u)) < 1e-8

    @pytest.mark.parametrize("space,a,c,m,cls", MINIMAL_REPS)
    def test_minimal_U_is_the_h_zero_member(self, space, a, c, m, cls):
        U_min, got = minimal_U(space, m, a, c, u_window=(-3.5, 3.5))
        U_cmc, case = cmc_U(space, m, a, 0.0, c, u_window=(-3.5, 3.5))
        assert got is cls and case is MINIMAL_CASE[cls]
        assert U_min.domain == U_cmc.domain
        for u in interior_points(U_min):
            assert U_min(u) == U_cmc(u)
            assert U_min.deriv(u) == U_cmc.deriv(u)
            assert U_min.second(u) == U_cmc.second(u)
