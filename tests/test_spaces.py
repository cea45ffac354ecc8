import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcvhelix import (
    DEFAULT_TOL,
    BcvSpace,
    DomainError,
    SpaceClass,
    christoffels,
    classify,
    diff_central,
    inverse_metric,
    killing_basis,
    killing_residual,
    metric_cartesian,
    metric_cylindrical,
    orthonormal_frame,
    scaling_factor,
)
from conftest import FIVE_SPACES, NIL, R3, SPHERE

CHRISTOFFEL_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "data" / "christoffel_reference.json").read_text()
)


def random_domain_point(rng, space):
    """A point safely inside the metric domain (and away from the axis)."""
    r_cap = 1.5 if space.kappa >= 0 else 0.8 * space.max_radius
    r = rng.uniform(0.1, r_cap)
    th = rng.uniform(0, 2 * math.pi)
    return np.array([r * math.cos(th), r * math.sin(th), rng.uniform(-2, 2)])


def fd_christoffels(space, p, h=1e-4):
    """Gamma^k_ij from central differences of the metric (one Richardson
    level) and its numerical inverse: an independent reference for the
    closed-form symbols, free of their algebra.  Its stencil reads the
    metric at p +- h e_l, so it needs the domain to reach that far."""
    x0 = np.asarray(p, dtype=float)
    # dg[..., l, i, j] = d_l g_ij, the three axis offsets x0 + s e_l at once
    dg = diff_central(lambda s: metric_cartesian(space, x0[..., None, :] + s * np.eye(3)), 0.0, 1, h)
    g_inv = np.linalg.inv(metric_cartesian(space, x0))
    term = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, term)


class TestScalingFactor:
    def test_flat(self):
        assert scaling_factor(BcvSpace(0.0, 0.7), 5.0) == 1.0

    def test_substitution(self):
        assert scaling_factor(BcvSpace(1.0, 0.0), 4.0) == 2.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            scaling_factor(BcvSpace(-1.0, 0.0), 4.5)

    def test_negative_rsq(self):
        with pytest.raises(ValueError):
            scaling_factor(R3, -1.0)


class TestMetricCartesian:
    def test_identity_at_origin(self):
        for space in FIVE_SPACES:
            assert np.allclose(metric_cartesian(space, (0, 0, 0)), np.eye(3), atol=0)

    def test_heisenberg_point(self):
        g = metric_cartesian(NIL, (1.0, 0.0, 0.0))
        expected = np.array([[1, 0, 0], [0, 1.25, -0.5], [0, -0.5, 1]])
        assert np.allclose(g, expected, atol=1e-15)

    def test_positive_definite_random(self):
        rng = np.random.default_rng(7)
        for space in FIVE_SPACES:
            for _ in range(100):
                p = random_domain_point(rng, space)
                eigs = np.linalg.eigvalsh(metric_cartesian(space, p))
                assert np.all(eigs > 0)


class TestMetricCylindrical:
    def test_euclidean(self):
        g = metric_cylindrical(R3, (2.0, 0.0, 0.0))
        assert np.allclose(g, np.diag([1.0, 4.0, 1.0]), atol=0)

    def test_heisenberg_values(self):
        g = metric_cylindrical(NIL, (1.0, 0.2, -0.4))
        assert g[0, 0] == 1.0
        assert abs(g[1, 1] - 1.25) < 1e-15
        assert abs(g[1, 2] + 0.5) < 1e-15
        assert g[2, 2] == 1.0

    def test_pullback_agreement(self):
        # jacobian of (r, th, z) -> (x, y, z) pulls the cartesian metric back
        rng = np.random.default_rng(11)
        for space in FIVE_SPACES:
            for _ in range(100):
                r_cap = 1.5 if space.kappa >= 0 else 0.8 * space.max_radius
                r = rng.uniform(1e-3, r_cap)
                th = rng.uniform(0, 2 * math.pi)
                z = rng.uniform(-1, 1)
                J = np.array(
                    [
                        [math.cos(th), -r * math.sin(th), 0.0],
                        [math.sin(th), r * math.cos(th), 0.0],
                        [0.0, 0.0, 1.0],
                    ]
                )
                g_cart = metric_cartesian(space, (r * math.cos(th), r * math.sin(th), z))
                g_cyl = metric_cylindrical(space, (r, th, z))
                assert np.max(np.abs(J.T @ g_cart @ J - g_cyl)) < 1e-12

    def test_axis_degenerate_but_defined(self):
        g = metric_cylindrical(NIL, (0.0, 0.0, 0.0))
        assert g[1, 1] == 0.0  # flagged by singularity; callers keep r >= r_min


class TestFrameAndKilling:
    def test_frame_at_origin(self):
        assert np.allclose(orthonormal_frame(SPHERE, (0, 0, 0)), np.eye(3), atol=0)

    def test_frame_values(self):
        E = orthonormal_frame(BcvSpace(1.0, 0.5), (2.0, 0.0, 0.0))
        assert np.allclose(E, [[2, 0, 0], [0, 2, 1], [0, 0, 1]], atol=0)

    def test_orthonormality_random(self):
        rng = np.random.default_rng(3)
        for space in FIVE_SPACES:
            for _ in range(100):
                p = random_domain_point(rng, space)
                E = orthonormal_frame(space, p)
                g = metric_cartesian(space, p)
                assert np.max(np.abs(E @ g @ E.T - np.eye(3))) < 1e-12

    def test_killing_at_origin(self):
        X = killing_basis(SPHERE, (0, 0, 0))
        assert np.allclose(X[2], 0.0, atol=0)          # rotational field dies at axis
        assert np.allclose(X[0], [1, 0, 0], atol=0)
        assert np.allclose(X[3], [0, 0, 1], atol=0)

    def test_vertical_field_everywhere(self):
        rng = np.random.default_rng(5)
        for space in FIVE_SPACES:
            p = random_domain_point(rng, space)
            assert np.allclose(killing_basis(space, p)[3], [0, 0, 1], atol=0)

    def test_killing_equation(self):
        rng = np.random.default_rng(13)
        for space in FIVE_SPACES:
            for _ in range(5):
                p = random_domain_point(rng, space)
                for k in range(4):
                    assert killing_residual(space, p, k) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(-1.5, 3.0),
        tau=st.floats(-1.0, 1.0),
        r=st.floats(0.05, 1.0),
        th=st.floats(0, 6.28),
        z=st.floats(-1, 1),
    )
    def test_frame_orthonormality_property(self, kappa, tau, r, th, z):
        space = BcvSpace(kappa, tau)
        if space.kappa < 0:
            r = min(r, 0.7 * space.max_radius)
        p = (r * math.cos(th), r * math.sin(th), z)
        E = orthonormal_frame(space, p)
        g = metric_cartesian(space, p)
        assert np.max(np.abs(E @ g @ E.T - np.eye(3))) < 1e-12


class TestChristoffels:
    def test_flat_vanishes(self):
        gamma = christoffels(R3, (0.4, -0.8, 0.3))
        assert np.max(np.abs(gamma)) < 1e-10

    def test_symmetry_exact(self):
        gamma = christoffels(NIL, (0.5, 0.2, -0.1))
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_metric_compatibility(self):
        # nabla_l g_ij = d_l g_ij - G^k_li g_kj - G^k_lj g_ik = 0
        rng = np.random.default_rng(17)
        h = 1e-4
        for space in FIVE_SPACES:
            for _ in range(5):
                p = random_domain_point(rng, space)
                gamma = christoffels(space, p)
                g = metric_cartesian(space, p)
                dg = np.empty((3, 3, 3))
                for axis in range(3):
                    e = np.zeros(3)
                    e[axis] = 1.0
                    d1 = (metric_cartesian(space, p + h * e) - metric_cartesian(space, p - h * e)) / (2 * h)
                    d2 = (metric_cartesian(space, p + 0.5 * h * e) - metric_cartesian(space, p - 0.5 * h * e)) / h
                    dg[axis] = (4 * d2 - d1) / 3
                nabla = (
                    dg
                    - np.einsum("kli,kj->lij", gamma, g)
                    - np.einsum("klj,ik->lij", gamma, g)
                )
                assert np.max(np.abs(nabla)) < 1e-8

    def test_boundary_guard(self):
        # the symbols read the metric at the point only: DomainError where
        # B < domain_margin there, finite values 1e-6 inside the B = 0 circle
        space = BcvSpace(-1.0, 0.0)
        r_edge = space.max_radius
        r_out = math.sqrt(4.0 * (1.0 - 0.5 * DEFAULT_TOL.domain_margin))  # B = margin / 2
        for r in (r_out, r_edge):
            with pytest.raises(DomainError):
                christoffels(space, (r, 0.0, 0.0))
            with pytest.raises(DomainError):
                christoffels(space, np.array([[0.5, 0.0, 0.0], [0.0, r, 0.0]]))
        gamma = christoffels(space, (r_edge - 1e-6, 0.0, 0.0))
        assert np.all(np.isfinite(gamma)) and np.max(np.abs(gamma)) > 1e5

    def test_matches_finite_differences(self):
        # the finite-difference symbols are within their stencil error of the
        # exact ones: rounding of about eps / h = 2.2e-12 per metric
        # derivative at h = 1e-4, summed over three of them and through the
        # inverse metric (largest measured difference 9.3e-12, on SL2R)
        rng = np.random.default_rng(23)
        for space in FIVE_SPACES:
            points = np.array([random_domain_point(rng, space) for _ in range(20)])
            exact = christoffels(space, points)
            assert exact.shape == (20, 3, 3, 3)
            assert np.max(np.abs(exact - fd_christoffels(space, points))) < 3e-11
            for p, gamma in zip(points, exact):
                assert np.array_equal(christoffels(space, p), gamma)

    @pytest.mark.parametrize(
        "ref", CHRISTOFFEL_REFERENCE["spaces"], ids=lambda ref: ref["class"]
    )
    def test_matches_50_digit_reference(self, ref):
        # tools/christoffel_reference.py: mpmath derivatives and inverse of
        # the metric.  B = 1 + kappa r^2 / 4 is rounded relative to 1, so
        # near the kappa < 0 edge its relative error, and the symbols', grows
        # as eps / B; the error is at most 1e-15 max(1, |Gamma|) / min(1, B)
        # (largest measured: 1.8e-16 of that, 1e-6 inside the SL2R edge)
        space = BcvSpace(ref["kappa"], ref["tau"])
        assert classify(space).value == ref["class"]
        for point in ref["points"]:
            p = np.array(point["p"])
            want = np.array(point["gamma"], dtype=float)
            B = scaling_factor(space, p[0] ** 2 + p[1] ** 2)
            bound = 1e-15 * max(1.0, np.max(np.abs(want))) / min(1.0, B)
            assert np.max(np.abs(christoffels(space, p) - want)) <= bound, point["p"]


class TestInverseMetric:
    def test_inverts_the_metric(self):
        rng = np.random.default_rng(29)
        for space in FIVE_SPACES:
            points = np.array([random_domain_point(rng, space) for _ in range(20)])
            g_inv = inverse_metric(space, points)
            assert np.max(np.abs(g_inv @ metric_cartesian(space, points) - np.eye(3))) < 1e-14
            assert np.max(np.abs(g_inv - np.linalg.inv(metric_cartesian(space, points)))) < 1e-14

    def test_frame_product(self):
        p = (0.3, -1.1, 0.4)
        E = orthonormal_frame(SPHERE, p)
        assert np.max(np.abs(inverse_metric(SPHERE, p) - E.T @ E)) < 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            inverse_metric(BcvSpace(-1.0, 0.0), (2.0, 0.0, 0.0))


class TestClassify:
    @pytest.mark.parametrize(
        "kappa,tau,label",
        [
            (0.0, 0.0, SpaceClass.EUCLIDEAN),
            (0.0, 0.5, SpaceClass.HEISENBERG),
            (0.0, -0.3, SpaceClass.HEISENBERG),
            (1.0, 0.5, SpaceClass.SPHERE),
            (4.0, 1.0, SpaceClass.SPHERE),
            (1.5, 0.0, SpaceClass.SPHERE_PRODUCT),
            (-0.75, 0.0, SpaceClass.HYPERBOLIC_PRODUCT),
            (2.0, 0.5, SpaceClass.SU2),
            (-1.0, 0.35, SpaceClass.SL2R_COVER),
        ],
    )
    def test_labels(self, kappa, tau, label):
        assert classify(BcvSpace(kappa, tau)) is label

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BcvSpace(math.nan, 0.0)
