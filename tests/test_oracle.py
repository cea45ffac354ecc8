import dataclasses
import gc
import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

from bcvhelix import (
    BcvHelixError,
    BcvSpace,
    BourSeed,
    DegenerateImmersion,
    DomainError,
    EmptyDomain,
    HelicoidalAction,
    ProfileCurve,
    ProfileDomain,
    QuadratureFailure,
    SmoothFunction,
    StencilOutOfDomain,
    SurfaceChart,
    build_chart,
    christoffels,
    first_form_grid,
    first_form_numeric,
    gauss_intrinsic,
    gauss_numeric,
    induced_metric,
    inverse_metric,
    isometry_deviation,
    isometry_matrix,
    local_geometry,
    mean_curvature_extrinsic,
    mean_curvature_reduced,
    metric_cartesian,
    minimal_U,
    sample_mesh,
    shared_grid,
)
from bcvhelix import cli, oracle
from bcvhelix.bour import NaturalChart
from bcvhelix.numerics import DEFAULT_TOL, diff_central, richardson, stencil_misfit
from conftest import NIL, R3, SU2_SPACE, catenoid_profile, nil_catenoid_profile
from test_kernel_parity import FAILING, FAMILIES, _charts
from test_orbit import random_wiggle_curve, vertical_line_curve

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def reference_reads(chart, u, t, ts):
    """The chart point at the offset (s, dt) from the vertex (u, t) of a row
    along ts, for the halving references below.  A read that moves no point
    raises StencilOutOfDomain, as the oracle's settle rules: a nonzero s
    whose abscissa the chart reads at u itself, or a nonzero dt that leaves
    some t of the row unchanged."""
    ts = np.asarray(ts, dtype=float)

    def point(s, dt):
        if (s != 0.0 and chart.domain.read(u + s) == u) or (dt != 0.0 and np.any(ts + dt == ts)):
            raise StencilOutOfDomain(f"the read ({s}, {dt}) moves no point")
        return chart.point(u + s if s else u, t + dt if dt else t)

    return point


def reference_tangents(chart, u, t, tol, ts):
    """(P, psi_u, psi_t): the reads of the vertex (u, t) of a row along ts (t
    alone if None) and its tangents, by scalar stencils that halve their
    step on every error (``richardson`` with h_min)."""
    P = reference_reads(chart, u, t, [t] if ts is None else ts)
    psi_u = richardson(lambda s: (P(s, 0.0) - P(-s, 0.0)) / (2.0 * s), tol.fd_first, tol.fd_min)
    psi_t = richardson(lambda s: (P(0.0, s) - P(0.0, -s)) / (2.0 * s), tol.fd_first, tol.fd_min)
    return P, psi_u, psi_t


def reference_first_form(space, chart, u, t, tol=DEFAULT_TOL, ts=None):
    """Loop-form reference of the oracle's first order: one vertex, scalar stencils."""
    P, psi_u, psi_t = reference_tangents(chart, u, t, tol, ts)
    g = metric_cartesian(space, P(0.0, 0.0), tol)
    return psi_u, psi_t, g, (psi_u @ g @ psi_u, psi_u @ g @ psi_t, psi_t @ g @ psi_t)


def reference_geometry(space, chart, u, t, tol=DEFAULT_TOL, ts=None):
    """Loop-form reference of one vertex of ``local_geometry``: (E, F, G, L, M, N,
    H, K) and the unit normal, up to the orientation sign.  Every stencil is
    measured before the metric, so a stencil that cannot fit raises
    StencilOutOfDomain before an error of the vertex."""
    P, psi_u, psi_t = reference_tangents(chart, u, t, tol, ts)
    fc = P(0.0, 0.0)
    psi_uu = richardson(lambda s: (P(s, 0.0) - 2.0 * fc + P(-s, 0.0)) / (s * s), tol.fd_second, tol.fd_min)
    psi_tt = richardson(lambda s: (P(0.0, s) - 2.0 * fc + P(0.0, -s)) / (s * s), tol.fd_second, tol.fd_min)
    psi_ut = richardson(
        lambda h: (P(h, h) - P(h, -h) - P(-h, h) + P(-h, -h)) / (4.0 * h * h),
        tol.fd_second,
        tol.fd_min,
    )
    g = metric_cartesian(space, fc, tol)
    E, F, G = psi_u @ g @ psi_u, psi_u @ g @ psi_t, psi_t @ g @ psi_t
    v = inverse_metric(space, fc, tol) @ np.cross(psi_u, psi_t)
    n = v / math.sqrt(v @ g @ v)
    gn = g @ n
    Cn = (gn @ christoffels(space, fc, tol=tol).reshape(3, 9)).reshape(3, 3)  # gn_k Gamma^k_ij
    L, M, N = (
        float(dd @ gn + da @ Cn @ db)
        for da, db, dd in ((psi_u, psi_u, psi_uu), (psi_u, psi_t, psi_ut), (psi_t, psi_t, psi_tt))
    )
    det = E * G - F * F
    return (E, F, G, L, M, N, (G * L - 2.0 * F * M + E * N) / det, (L * N - M * M) / det), n


FIELDS = ("points", "normal", "E", "F", "G", "L", "M", "N", "H", "K")


def assert_row_is(batch, i, row):
    """Row i of an array ``local_geometry`` is the one-row call, bit for bit,
    with errors of the same class and message on the same vertices."""
    for name in FIELDS:
        assert np.array_equal(getattr(batch, name)[i], getattr(row, name), equal_nan=True), name
    assert [(type(e), str(e)) for e in batch.errors[i]] == [(type(e), str(e)) for e in row.errors]


def oriented_sign(space, chart, tol=DEFAULT_TOL):
    """The chart's orientation sign, as the first ``local_geometry`` call on
    it settles it: a call with no row measures only the probe."""
    local_geometry(space, chart, np.empty(0), [0.0], tol)
    return chart._orient


COMPONENTS = ("xi1", "xi2", "theta0")


def count_chart_queries(monkeypatch):
    """(arrays, points, floats): from now on, the NaturalChart component
    queries at an array of u and their points, and those at a float u, each
    by component.  ``profile`` at an array reads xi2 and theta0 in one
    stacked read, which counts as one query of each, and xi1 through its
    own method."""
    arrays, points, floats = Counter(), Counter(), Counter()

    def count(name, u):
        if isinstance(u, np.ndarray):
            arrays[name] += 1
            points[name] += u.size
        else:
            floats[name] += 1

    for name in COMPONENTS:

        def counted(self, u, real=getattr(NaturalChart, name), name=name):
            count(name, u)
            return real(self, u)

        monkeypatch.setattr(NaturalChart, name, counted)

    def profile(self, u, real=NaturalChart.profile):
        if isinstance(u, np.ndarray):
            count("xi2", u)
            count("theta0", u)
        return real(self, u)

    monkeypatch.setattr(NaturalChart, "profile", profile)
    return arrays, points, floats


def cylinder_across_domain_edge():
    # a cylinder of radius 1.2 in H2 x R (metric domain r < 2), sheared by
    # x -> x + 0.86 + 0.1 z: row u is a circle about x = 0.86 + 0.1 u that
    # reaches r = 2.06 + 0.1 u at t = 0, so the vertices near t = 0 lie
    # outside the domain, in a band that widens with u
    space = BcvSpace(-1.0, 0.0)
    act, curve = vertical_line_curve(space, R=1.2)
    sc = SurfaceChart.from_profile(act, curve)
    embed = sc.embed

    def sheared(theta0, xi1, xi2, t):
        p = embed(theta0, xi1, xi2, t)
        p[..., 0] += 0.86 + 0.1 * p[..., 2]
        return p

    sc.embed = sheared
    return space, sc


def su2_minimal_chart():
    U, _ = minimal_U(SU2_SPACE, 1.0, 0.3, 0.5, u_window=(-3.5, 3.5))
    return build_chart(SU2_SPACE, BourSeed(U, 1.0, 0.3, tuple(U.domain)))


class TestEmbed:
    def test_helicoid_points(self, helicoid_chart):
        sc = SurfaceChart.from_natural(helicoid_chart)
        for u, t in [(0.5, 0.0), (1.2, 1.1), (2.0, -2.3)]:
            x, y, z = sc.point(u, t)
            assert abs(x - u * math.cos(t)) < 1e-13
            assert abs(y - u * math.sin(t)) < 1e-13
            assert abs(z - t) < 1e-13  # pitch a = d = 1: z = a t

    def test_catenoid_waist(self, catenoid_chart):
        sc = SurfaceChart.from_natural(catenoid_chart)
        x, y, z = sc.point(0.0, 0.0)
        assert abs(x - 1.0) < 1e-14 and abs(y) < 1e-14 and abs(z) < 1e-14

    def test_nil_catenoid_axis_circle(self, nil_catenoid_chart):
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        for t in (-1.0, 0.2, 2.4):
            x, y, z = sc.point(0.0, t)
            assert abs(x - math.cos(t)) < 1e-13
            assert abs(y - math.sin(t)) < 1e-13
            assert abs(z - 0.5 * t) < 1e-13


class TestFirstForm:
    def test_natural_charts_measure_du2_U2dt2(
        self, catenoid_chart, nil_catenoid_chart
    ):
        for chart, space in ((catenoid_chart, R3), (nil_catenoid_chart, NIL)):
            sc = SurfaceChart.from_natural(chart)
            for u in (-1.7, 0.0, 1.3):
                for t in (-2.0, 0.5):
                    E, F, G = first_form_numeric(space, sc, u, t)
                    Uv = chart.U(u)
                    assert abs(E - 1.0) < 1e-6
                    assert abs(F) < 1e-6
                    assert abs(G - Uv * Uv) < 1e-6

    def test_raw_chart_matches_induced_metric(self):
        rng = np.random.default_rng(19)
        act, curve = random_wiggle_curve(NIL, 0.35, rng)
        sc = SurfaceChart.from_profile(act, curve)
        for u in (-1.0, 0.2, 1.1):
            E, F, G = first_form_numeric(NIL, sc, u, 0.7)
            Ei, Fi, Gi = induced_metric(act, curve, u)
            assert abs(E - Ei) < 1e-6 and abs(F - Fi) < 1e-6 and abs(G - Gi) < 1e-6


def shipped_helicoid():
    """(job, surface) of the a = 1 member of the shipped catenoid profile:
    xi1 = |u| meets the axis at u = 0."""
    cfg = json.loads((CONFIG_DIR / "catenoid_to_helicoid.json").read_text())
    job = cli.parse_config(cfg, "deform")
    chart = cli.make_chart(job, *cli.resolve_profile(job), a=1.0)[0]
    return job, cli._surface(job, chart)


class TestDegenerateFirstForm:
    """first_form_grid, local_geometry and the orientation probe share one
    degeneracy rule: a vertex where EG - F^2 <= 0 holds DegenerateImmersion."""

    def test_first_form_grid_raises_on_the_axis_row(self):
        job, sc = shipped_helicoid()
        ts = np.linspace(*job.t_range, 5)
        with pytest.raises(DegenerateImmersion) as raised:
            first_form_grid(job.space, sc, [-0.5, 0.0, 0.5], ts, job.tol)
        assert str(raised.value) == f"EG - F^2 = 0.000000e+00 <= 0 at (u=0.0, t={ts[0]})"
        # the rows off the axis measure, and local_geometry flags the same row
        assert np.isfinite(first_form_grid(job.space, sc, [-0.5, 0.5], ts, job.tol)).all()
        geo = local_geometry(job.space, sc, np.array([-0.5, 0.0, 0.5]), ts, job.tol)
        assert [{type(e) for e in row} for row in geo.errors] == [{type(None)}, {DegenerateImmersion}, {type(None)}]
        assert [str(e) for e in geo.errors[1]] == [
            f"EG - F^2 = 0.000000e+00 <= 0 at (u=0.0, t={t})" for t in ts.tolist()
        ]

    def test_orientation_probe_skips_a_degenerate_vertex(self, helicoid_chart, monkeypatch):
        # the probe's first candidate row sits on the axis, where the first
        # form degenerates: it walks on to a candidate whose vertex holds no
        # error
        sc = SurfaceChart.from_natural(helicoid_chart, u_range=(-1.0, 1.0))
        fitted, measured = [], []

        def fit(chart, *sets, real=oracle._fit):
            fitted.append(sets)
            return real(chart, *sets)

        def first_order(space, at, tol, real=oracle._first_order):
            values, errors = real(space, at, tol)
            measured.append((at, errors))
            return values, errors

        monkeypatch.setattr(oracle, "_fit", fit)
        monkeypatch.setattr(oracle, "_first_order", first_order)
        sign = oriented_sign(R3, sc)
        # the probe's candidates are one fitted row set beside the call's
        (_, probe), = fitted
        (errors,) = [errors for at, errors in measured if at is probe]
        assert probe.us[0] == 0.0 and isinstance(errors[0], DegenerateImmersion)
        assert len(errors) > 1 and None in errors[1:]
        assert sign == _orientation_by_reference(R3, sc, DEFAULT_TOL)


class TestMeanCurvatureExtrinsic:
    def test_cylinder_calibration(self):
        for R in (0.5, 1.0, 2.0):
            act, curve = vertical_line_curve(R3, R=R)
            sc = SurfaceChart.from_profile(act, curve)
            h = mean_curvature_extrinsic(R3, sc, 0.0, 0.4)
            assert abs(abs(h) - 1.0 / R) < 1e-5

    def test_minimal_surfaces(self, catenoid_chart, helicoid_chart):
        for chart, rng_u in ((catenoid_chart, (-2.0, 2.0)), (helicoid_chart, (0.3, 2.2))):
            sc = SurfaceChart.from_natural(chart, u_range=rng_u)
            for u in np.linspace(rng_u[0] + 0.1, rng_u[1] - 0.1, 5):
                assert abs(mean_curvature_extrinsic(R3, sc, u, 0.9)) < 1e-5

    def test_nil_catenoid_minimal(self, nil_catenoid_chart):
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        for u in (-2.4, -1.0, 0.0, 1.5, 2.7):
            assert abs(mean_curvature_extrinsic(NIL, sc, u, 0.6)) < 1e-4

    def test_helicoidal_invariance(self, nil_catenoid_chart):
        # H is constant along helices; the spread is the finite-difference
        # noise floor of the extrinsic evaluation
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        vals = [mean_curvature_extrinsic(NIL, sc, 0.8, t) for t in (-2.0, 0.0, 1.4)]
        assert max(vals) - min(vals) < 2e-6

    def test_normal_well_defined(self, nil_catenoid_chart):
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        tol = DEFAULT_TOL
        for u, t in [(-1.5, 0.3), (0.4, -1.0), (2.0, 2.0)]:
            psi_u = diff_central(lambda v: sc.point(v, t), u, 1, tol.fd_first, tol.fd_min)
            psi_t = diff_central(lambda s: sc.point(u, s), t, 1, tol.fd_first, tol.fd_min)
            g = metric_cartesian(NIL, sc.point(u, t))
            n = local_geometry(NIL, sc, u, [t]).normal[0]
            assert abs(n @ g @ psi_u) < 1e-10
            assert abs(n @ g @ psi_t) < 1e-10
            assert abs(n @ g @ n - 1.0) < 1e-10

    def test_matches_reduction_theorem(self):
        rng = np.random.default_rng(59)
        act, curve = random_wiggle_curve(NIL, 0.3, rng)
        sc = SurfaceChart.from_profile(act, curve)
        us = np.linspace(-1.2, 1.2, 7)
        h_red = [mean_curvature_reduced(act, curve, u) for u in us]
        h_ext = [mean_curvature_extrinsic(NIL, sc, u, 0.5) for u in us]
        i_ref = int(np.argmax(np.abs(h_red)))
        sign = 1.0 if h_red[i_ref] * h_ext[i_ref] >= 0 else -1.0
        for hr, he in zip(h_red, h_ext):
            assert abs(hr - sign * he) < 1e-5


class TestLocalGeometry:
    @pytest.mark.parametrize("which", ["nil-catenoid", "su2-minimal"])
    def test_row_matches_one_point_calls(self, which, nil_catenoid_chart):
        space, chart = (
            (NIL, nil_catenoid_chart) if which == "nil-catenoid" else (SU2_SPACE, su2_minimal_chart())
        )
        sc = SurfaceChart.from_natural(chart)
        lo, hi = chart.u_valid
        ts = np.linspace(-math.pi, math.pi, 7)
        names = ("E", "F", "G", "L", "M", "N", "H", "K")
        us = np.linspace(lo, hi, 5)[1:-1]
        batch = local_geometry(space, sc, us, ts)
        assert batch.H.shape == (len(us), len(ts)) and batch.points.shape == (len(us), len(ts), 3)
        for i, u in enumerate(us):
            geo = local_geometry(space, sc, u, ts)
            assert not any(geo.errors)
            assert_row_is(batch, i, geo)
            for k, t in enumerate(ts):
                assert abs(geo.H[k] - mean_curvature_extrinsic(space, sc, u, t)) <= 1e-15
                one = first_form_numeric(space, sc, u, t)
                for name, value in zip(names, one):
                    assert abs(getattr(geo, name)[k] - value) <= 1e-15 * max(1.0, abs(value))
                ref, n_ref = reference_geometry(space, sc, u, t)
                sign = 1.0 if geo.normal[k] @ n_ref > 0 else -1.0
                assert np.max(np.abs(geo.normal[k] - sign * n_ref)) <= 1e-15
                for name, value in zip(names, ref):
                    if name in ("L", "M", "N", "H"):
                        value *= sign
                    assert abs(getattr(geo, name)[k] - value) <= 1e-15 * max(1.0, abs(value))

    def test_rows_at_validity_edges_fail_alone(self, nil_catenoid_chart):
        # the stencil cannot fit at u_valid's ends: those rows hold the one-row
        # error on every vertex, and the rows between are the one-row calls
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        us = np.linspace(*nil_catenoid_chart.u_valid, 9)
        ts = np.linspace(-math.pi, math.pi, 5)
        batch = local_geometry(NIL, sc, us, ts)
        for i, u in enumerate(us):
            if i in (0, len(us) - 1):
                with pytest.raises(StencilOutOfDomain) as one:
                    local_geometry(NIL, sc, u, ts)
                assert [(type(e), str(e)) for e in batch.errors[i]] == [
                    (StencilOutOfDomain, str(one.value))
                ] * len(ts)
                for name in FIELDS:
                    assert np.all(np.isnan(getattr(batch, name)[i])), name
            else:
                assert_row_is(batch, i, local_geometry(NIL, sc, u, ts))
        assert all(e.__traceback__ is None for row in batch.errors for e in row if e is not None)
        with pytest.raises(StencilOutOfDomain, match="cannot fit"):
            batch.checked()
        assert local_geometry(NIL, sc, us[1:-1], ts).checked().H.shape == (7, 5)

    def test_one_christoffel_call_per_mesh(self, nil_catenoid_chart, monkeypatch):
        # the rows that fit are measured in one kernel call; the edge rows
        # fail at their u-stencil, before the Christoffels
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        local_geometry(NIL, sc, 0.0, [0.0])  # the chart's orientation, once
        calls = []

        def counted(space, p, *args, **kwargs):
            calls.append(np.shape(p))
            return christoffels(space, p, *args, **kwargs)

        monkeypatch.setattr(oracle, "christoffels", counted)
        mesh = sample_mesh(NIL, sc, 11, 6)
        assert calls == [(9 * 6, 3)]
        assert mesh.diagnostic_failures == {"StencilOutOfDomain": 12}

    def test_one_chart_evaluation_per_row_and_abscissa(self, monkeypatch):
        # the deform frame of the shipped heisenberg_minimal config at a = 0.25:
        # xi1, xi2 and theta0 are each evaluated once per row and stencil
        # abscissa, 9 for the second-order stencils and 5 for the first form,
        # in one array query per component for the whole batch
        cfg = json.loads((CONFIG_DIR / "heisenberg_minimal.json").read_text())
        job = cli.parse_config(cfg, "deform")
        chart = cli.make_chart(job, *cli.resolve_profile(job), a=0.25)[0]
        calls, points, floats = count_chart_queries(monkeypatch)
        sc = SurfaceChart.from_natural(chart, t_range=job.t_range)
        us = np.linspace(*sc.u_range, job.nu)[1:-1]
        ts = np.linspace(*job.t_range, job.nt)
        local_geometry(job.space, sc, us, ts, job.tol)  # the chart's orientation, once
        for measure, rows, abscissae in (
            (lambda: local_geometry(job.space, sc, us, ts, job.tol).checked(), us, 9),
            (lambda: first_form_grid(job.space, sc, np.linspace(us[0], us[-1], 21), ts[::5], job.tol), range(21), 5),
        ):
            calls.clear()
            points.clear()
            measure()
            assert points == {name: len(rows) * abscissae for name in ("xi1", "xi2", "theta0")}
            assert max(calls.values()) == 1 and not floats

    def test_fresh_chart_is_one_array_query_per_component(self, monkeypatch):
        # on a chart not yet oriented, the orientation probe's 7 candidate
        # rows join the call's query: one array query per component over
        # the 9 abscissae of each row and candidate, and no float query
        arrays, points, floats = count_chart_queries(monkeypatch)
        job, sc = settle_chart("shipped-heisenberg_minimal")  # its methods are the counted ones
        us, ts = np.linspace(*sc.u_range, job.nu)[1:-1], np.linspace(*job.t_range, job.nt)
        for counter in (arrays, points, floats):
            counter.clear()
        local_geometry(job.space, sc, us, ts, job.tol).checked()
        assert sc._orient is not None and not floats
        assert arrays == {name: 1 for name in COMPONENTS}
        assert points == {name: (len(us) + len(oracle._PROBE)) * 9 for name in COMPONENTS}

    def test_small_mesh_makes_no_float_query(self, monkeypatch):
        # a 9-row mesh on a fresh chart: its vertices and its curvature
        # rows, the probe included, are one array query
        arrays, _, floats = count_chart_queries(monkeypatch)
        job, sc = settle_chart("shipped-heisenberg_minimal")
        arrays.clear()
        floats.clear()
        mesh = sample_mesh(job.space, sc, 9, job.nt, job.tol)
        assert np.isfinite(mesh.h_ext).any()
        assert not floats and arrays == {name: 1 for name in COMPONENTS}

    def test_interior_row_that_cannot_be_evaluated_fails_alone(self, nil_catenoid_chart):
        # xi1 refuses every u near one interior row, u itself first: only
        # that row leaves the batch, holding the chart's own error, which a
        # one-row call and first_form_grid raise; every other row is the
        # halving reference
        us = np.linspace(-1.0, 1.0, 21)
        bad = 7
        chart = nil_catenoid_chart

        def xi1(u):
            near = np.abs(np.asarray(u) - us[bad]) < 1e-3
            if near.any():
                raise DomainError(f"xi1 refused at u={np.asarray(u)[near][0]}")
            return chart.xi1(u)

        sc = SurfaceChart(NIL, xi1, chart.xi2, chart.theta0, chart.m, chart.a, (-1.0, 1.0),
                          (-math.pi, math.pi))
        ts = np.linspace(-math.pi, math.pi, 6)
        batch = local_geometry(NIL, sc, us, ts)
        refusal = (DomainError, f"xi1 refused at u={us[bad]}")
        assert_row_holds(batch, bad, *refusal)
        for i, u in enumerate(us.tolist()):
            if i != bad:
                assert assert_row_is_reference(NIL, sc, batch, i, u, ts)
        assert_refused_alone(NIL, sc, us[bad], ts, *refusal)
        assert all(e.__traceback__ is None for e in batch.errors[bad])
        # the mesh drops that row only, its other vertices are the chart's
        # points, and its other rows measure without a failure
        mesh = sample_mesh(NIL, sc, len(us), len(ts))
        assert mesh.dropped_rows == [bad] and mesh.diagnostic_failures == {}
        assert np.array_equal(mesh.us, us)
        for i, u in enumerate(us):
            row = mesh.vertices[i * len(ts) : (i + 1) * len(ts)]
            if i == bad:
                assert np.isnan(row).all()
            else:
                assert np.array_equal(row, sc.point(u, ts))

    def test_extrinsic_K_is_gauss_curvature_in_R3(self, catenoid_chart):
        # flat ambient: det of the shape operator is the intrinsic curvature
        sc = SurfaceChart.from_natural(catenoid_chart)
        for u in (-1.2, 0.0, 0.9):
            geo = local_geometry(R3, sc, u, [-2.0, 0.5, 3.0])
            assert np.max(np.abs(geo.K - gauss_intrinsic(catenoid_chart.U, u))) < 1e-6

    def test_vertex_errors_stay_isolated(self):
        # the vertices outside the metric domain fail alone, from the metric
        # on; the Christoffels refuse exactly the points the metric refuses
        space, sc = cylinder_across_domain_edge()
        ts = np.linspace(-math.pi, math.pi, 25)
        geo = local_geometry(space, sc, 0.1, ts)
        expected = []
        for t in ts:
            p = sc.point(0.1, t)
            try:
                christoffels(space, p)
                expected.append(False)
            except DomainError:
                with pytest.raises(DomainError):
                    metric_cartesian(space, p)
                expected.append(True)
            else:
                metric_cartesian(space, p)
        expected = np.array(expected)
        assert expected[12] and not expected[[0, 3, 9, 15, 21, 24]].any()
        assert np.array_equal(np.isnan(geo.H), expected)
        assert all(isinstance(e, DomainError) == bad for e, bad in zip(geo.errors, expected))
        assert np.array_equal(np.isnan(geo.E), expected) and np.array_equal(np.isnan(geo.G), expected)
        for k in np.flatnonzero(~expected):
            assert geo.H[k] == mean_curvature_extrinsic(space, sc, 0.1, ts[k])

    def test_vertex_errors_stay_isolated_across_rows(self):
        # several rows in one call: each failing vertex is NaN on its own, with
        # the values and errors of its one-row call
        space, sc = cylinder_across_domain_edge()
        ts = np.linspace(-math.pi, math.pi, 25)
        us = np.array([-0.5, 0.1, 0.3, 0.7])
        batch = local_geometry(space, sc, us, ts)
        for i, u in enumerate(us):
            row = local_geometry(space, sc, u, ts)
            assert_row_is(batch, i, row)
            assert np.array_equal(np.isnan(batch.H[i]), [e is not None for e in row.errors])
        assert np.array_equal(np.isnan(batch.E), np.isnan(batch.H))
        # each row has failing and measured vertices, and the rows differ
        failed = np.isnan(batch.H).sum(axis=1)
        assert (failed > 0).all() and (failed < len(ts)).all() and len(set(failed.tolist())) > 1
        # stored errors were never raised: no traceback keeps the call's frames
        stored = [e for row in batch.errors for e in row if e is not None]
        assert stored and all(e.__traceback__ is None for e in stored)

    def test_ambient_functions_run_once_per_kernel_call(self, monkeypatch):
        # the vertices outside the metric domain are decided once, by the
        # rule of spaces: each ambient function runs once per kernel call,
        # over the other vertices, and each outside vertex holds the error
        # that metric_cartesian raises at that point alone
        space, sc = cylinder_across_domain_edge()
        calls = Counter()
        for name in ("metric_cartesian", "inverse_metric", "christoffels"):

            def counted(space, p, *args, real=getattr(oracle, name), name=name, **kwargs):
                calls[name] += 1
                return real(space, p, *args, **kwargs)

            monkeypatch.setattr(oracle, name, counted)
        ts = np.linspace(-math.pi, math.pi, 25)
        us = np.array([-0.5, 0.1, 0.3, 0.7])
        # the probe (first order and normal), then the call's rows
        geo = local_geometry(space, sc, us, ts)
        assert calls == {"metric_cartesian": 2, "inverse_metric": 2, "christoffels": 1}
        calls.clear()
        geo = local_geometry(space, sc, us, ts)
        assert calls == {"metric_cartesian": 1, "inverse_metric": 1, "christoffels": 1}
        outside = [
            (p, exc)
            for points, errors in zip(geo.points, geo.errors)
            for p, exc in zip(points, errors)
            if isinstance(exc, DomainError)
        ]
        assert len(outside) == np.isnan(geo.E).sum() > 0
        for p, exc in outside:
            with pytest.raises(DomainError) as alone:
                metric_cartesian(space, p)
            assert str(exc) == str(alone.value)
        calls.clear()
        with pytest.raises(DomainError) as raised:
            first_form_grid(space, sc, us, ts)
        assert calls == {"metric_cartesian": 1} and str(raised.value) == str(outside[0][1])

    def test_stored_errors_leave_no_cyclic_garbage(self, nil_catenoid_chart):
        # a stored error that was raised keeps the kernel's frames, and every
        # array of the call, alive in a reference cycle
        space, sc = cylinder_across_domain_edge()
        ts = np.linspace(-math.pi, math.pi, 25)
        natural = SurfaceChart.from_natural(nil_catenoid_chart)
        local_geometry(space, sc, 0.1, ts)
        sample_mesh(NIL, natural, 9, 5)  # warm both charts
        gc.collect()
        gc.disable()
        try:
            geo = local_geometry(space, sc, 0.1, ts)
            assert any(geo.errors)
            del geo
            assert gc.collect() == 0
            mesh = sample_mesh(NIL, natural, 9, 5)
            assert mesh.diagnostic_failures == {"StencilOutOfDomain": 10}
            del mesh
            assert gc.collect() == 0
        finally:
            gc.enable()


def assert_row_holds(batch, i, kind, message):
    """Row i of an array ``local_geometry`` holds the error ``kind(message)``
    on every vertex, with NaN fields."""
    assert [(type(e), str(e)) for e in batch.errors[i]] == [(kind, message)] * batch.H.shape[1]
    for name in FIELDS:
        assert np.all(np.isnan(getattr(batch, name)[i])), name


def assert_row_is_one_row_call(space, chart, batch, i, u, ts, tol=DEFAULT_TOL) -> bool:
    """Row i of an array ``local_geometry`` is the one-row call at u: its
    values and errors, or, where that raises, the same error on every vertex
    and NaN fields.  True where the row fits."""
    try:
        row = local_geometry(space, chart, u, ts, tol)
    except BcvHelixError as one:
        assert_row_holds(batch, i, type(one), str(one))
        return False
    assert_row_is(batch, i, row)
    return True


def assert_row_is_reference(space, chart, batch, i, u, ts, tol=DEFAULT_TOL) -> bool:
    """Row i of an array ``local_geometry`` is ``reference_geometry`` at each
    of its vertices, with the row's ts: the normal and the fields within
    1e-15, up to the orientation sign, or the error the reference raises,
    of the same class and message, and NaN fields.  True where the row fits."""
    names = ("E", "F", "G", "L", "M", "N", "H", "K")
    fits = True
    for k, t in enumerate(ts.tolist()):
        error = batch.errors[i][k]
        try:
            ref, n_ref = reference_geometry(space, chart, u, t, tol, ts)
        except BcvHelixError as exc:
            assert (type(error), str(error)) == (type(exc), str(exc))
            assert np.isnan(batch.H[i, k])
            fits = fits and not isinstance(exc, StencilOutOfDomain)
            continue
        assert error is None
        sign = 1.0 if batch.normal[i, k] @ n_ref > 0 else -1.0
        assert np.max(np.abs(batch.normal[i, k] - sign * n_ref)) <= 1e-15
        for name, value in zip(names, ref):
            if name in ("L", "M", "N", "H"):
                value *= sign
            assert abs(getattr(batch, name)[i, k] - value) <= 1e-15 * max(1.0, abs(value)), name
    return fits


def assert_refused_alone(space, chart, u, ts, kind, message, tol=DEFAULT_TOL):
    """The one row u, where the chart refuses an abscissa, raises the error
    ``kind(message)`` in a one-row ``local_geometry`` and in
    ``first_form_grid``."""
    for measure in (local_geometry, first_form_grid):
        with pytest.raises(kind) as raised:
            measure(space, chart, u if measure is local_geometry else [u], ts, tol)
        assert (type(raised.value), str(raised.value)) == (kind, message)


def edge_rows(u_valid, tol=DEFAULT_TOL):
    """Rows at offsets from both ends of u_valid where a settled stencil
    step and the halving reference could part: on the end, inside the 1e-12
    band, at fd_min and at shared_grid's 1e-6 margin, and 2e-12 and 5e-13
    on either side of a step (a stencil that reaches past the end lands
    beyond or inside the band), plus a few interior rows."""
    near = [0.0, 1e-13, 1e-9, tol.fd_min, 1e-6]
    for h in (tol.fd_first, tol.fd_first / 2**5, tol.fd_first / 2**9, tol.fd_second):
        near += [h + d for d in (-2e-12, -5e-13, 5e-13, 2e-12)]
    lo, hi = u_valid
    inner = np.linspace(lo, hi, 7)[1:-1]
    return np.concatenate([[lo + d for d in near], inner, [hi - d for d in near]])


def settle_chart(which, orient=None):
    """(job, surface) of a deform frame of a shipped config at a = 0.25, or
    of a benchmark family; the surface spans the chart's u_valid and has
    the normal's sign ``orient``."""
    if which == "shipped-heisenberg_minimal":
        cfg = json.loads((CONFIG_DIR / "heisenberg_minimal.json").read_text())
        job = cli.parse_config(cfg, "deform")
        chart = cli.make_chart(job, *cli.resolve_profile(job), a=0.25)[0]
    else:
        (config, pitches), = [p.values for p in FAMILIES if p.id == which]
        job, _, (chart,) = _charts(config, pitches[:1])
    return job, cli._surface(job, chart, orient)


SETTLE_CHARTS = ["shipped-heisenberg_minimal", "verify-cmc-space-form-generic", "verify-minimal-SU2"]


def settled_kinds(chart, us, ts, tol):
    """The rows of us that ``_settle`` (order 2) puts at every default
    step, those it shrinks somewhere, and those it gives no step, as masks."""
    steps, fits = oracle._settle(chart, us, ts, tol, 2)
    default = np.all([h == getattr(tol, oracle._STENCILS[name][0]) for name, h in steps.items()], axis=0)
    return fits & default, fits & ~default, ~fits


class TestSettle:
    """Rows whose default stencils leave the chart's domain are settled from
    its domain predicate, without a chart query, and measured in batches
    that equal the halving references and the one-row calls."""

    @pytest.mark.parametrize(
        "which, fd_min, far_t",
        [(which, None, None) for which in SETTLE_CHARTS]
        + [(SETTLE_CHARTS[0], 1e-300, None), (SETTLE_CHARTS[0], 1e-300, 2e4)],
    )
    def test_edge_rows_equal_one_row_calls(self, which, fd_min, far_t):
        # with fd_min = 1e-300 the stencils shrink until a u-offset lands in
        # the 1e-12 band, where the chart reads u back at the end of
        # u_valid, or a t-offset rounds away at t = 2e4
        job, sc = settle_chart(which)
        us, ts = edge_rows(sc.u_range, job.tol), np.linspace(*job.t_range, 5)
        tol = job.tol if fd_min is None else dataclasses.replace(job.tol, fd_min=fd_min)
        if far_t is not None:
            ts = np.append(ts, far_t)
        # rows at the default steps, rows at shrunk steps, and rows with none
        assert all(kind.any() for kind in settled_kinds(sc, us, ts, tol))
        batch = local_geometry(job.space, sc, us, ts, tol)
        fits = [
            assert_row_is_reference(job.space, sc, batch, i, u, ts, tol)
            for i, u in enumerate(us.tolist())
        ]
        assert 0 < fits.count(False) < len(us)
        assert fits == [
            assert_row_is_one_row_call(job.space, sc, batch, i, u, ts, tol)
            for i, u in enumerate(us.tolist())
        ]

    @pytest.mark.parametrize("which", SETTLE_CHARTS)
    def test_edge_rows_equal_one_row_first_forms(self, which):
        # the halving reference of the first form, bit for bit, in a batch
        # and in one-row calls; a row where it cannot fit raises the same
        # error in first_form_grid
        job, sc = settle_chart(which)
        us, ts = edge_rows(sc.u_range, job.tol), np.linspace(*job.t_range, 5)
        fitting, want = [], []
        for u in us.tolist():
            try:
                forms = [reference_first_form(job.space, sc, u, t, job.tol, ts)[3] for t in ts.tolist()]
            except StencilOutOfDomain as one:
                with pytest.raises(StencilOutOfDomain) as alone:
                    first_form_grid(job.space, sc, [u], ts, job.tol)
                assert str(alone.value) == str(one)
                continue
            fitting.append(u)
            want.append(forms)
        assert 0 < len(fitting) < len(us)
        grid = first_form_grid(job.space, sc, np.array(fitting), ts, job.tol)
        assert grid.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        for u, row in zip(fitting, grid):
            alone = first_form_grid(job.space, sc, [u], ts, job.tol)[0]
            assert alone.view(np.int64).tolist() == row.view(np.int64).tolist()

    @pytest.mark.parametrize("with_domain", [True, False])
    def test_profile_chart_edge_rows_equal_one_row_calls(self, with_domain):
        # a profile curve's chart reads u itself up to 1e-12 past its range:
        # with the curve's domain its edge rows are settled from it and
        # equal the halving reference; with a domain that admits every u
        # they are measured at the default steps, and the rows whose
        # stencils the curve refuses hold the curve's own error
        act, curve = random_wiggle_curve(NIL, 0.35, np.random.default_rng(19))
        sc = SurfaceChart.from_profile(act, curve)
        if not with_domain:
            sc.domain = ProfileDomain()
        us, ts = edge_rows(sc.u_range), np.linspace(-math.pi, math.pi, 5)
        at_default, shrunk, none = settled_kinds(sc, us, ts, DEFAULT_TOL)
        assert (shrunk.any() and none.any()) if with_domain else at_default.all()
        assert at_default.any()
        batch = local_geometry(NIL, sc, us, ts)
        fits = [assert_row_is_one_row_call(NIL, sc, batch, i, u, ts) for i, u in enumerate(us.tolist())]
        assert 0 < fits.count(False) < len(us)
        lo, hi = sc.u_range
        if with_domain:
            assert fits == [assert_row_is_reference(NIL, sc, batch, i, u, ts) for i, u in enumerate(us.tolist())]
            failure = "StencilOutOfDomain"
        else:
            # the end row lo first reads below the curve at u = lo - fd_first
            refusal = (DomainError, f"u={lo - DEFAULT_TOL.fd_first} outside curve domain [{lo}, {hi}]")
            assert us[0] == lo
            assert_row_holds(batch, 0, *refusal)
            assert_refused_alone(NIL, sc, lo, ts, *refusal)
            assert {type(batch.errors[i][0]) for i, fit in enumerate(fits) if not fit} == {DomainError}
            failure = "DomainError"
        # the mesh's end rows hold that error on every vertex
        mesh = sample_mesh(NIL, sc, 9, len(ts))
        assert mesh.dropped_rows == [] and mesh.diagnostic_failures == {failure: 2 * len(ts)}

    def test_shipped_frame_measures_no_row_alone(self, monkeypatch):
        # the deform frame of the shipped heisenberg_minimal config at a =
        # 0.25: its mesh and its first-form grid make no chart query that
        # raises, and every row set is measured as a fitted batch
        job, sc = settle_chart("shipped-heisenberg_minimal")
        oriented_sign(job.space, sc, job.tol)  # the chart's orientation, once
        raised, built, fitted = Counter(), [], []
        for name in ("xi1", "xi2", "theta0"):

            def counted(self, u, real=getattr(NaturalChart, name), name=name):
                try:
                    return real(self, u)
                except BcvHelixError:
                    raised[name] += 1
                    raise

            monkeypatch.setattr(NaturalChart, name, counted)

        class Recorded(oracle._RowPoints):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def fit(chart, *sets, real=oracle._fit):
            fitted.extend(sets)
            return real(chart, *sets)

        monkeypatch.setattr(oracle, "_RowPoints", Recorded)
        monkeypatch.setattr(oracle, "_fit", fit)
        mesh = sample_mesh(job.space, sc, job.nu, job.nt, job.tol)
        grid = first_form_grid(job.space, sc, *shared_grid(sc, sc), job.tol)
        assert not raised
        assert built and all(any(at is set_ for set_ in fitted) for at in built)
        # the mesh's end rows have no step; the shared grid's end rows fit
        # with a shrunk u-stencil
        assert mesh.diagnostic_failures == {"StencilOutOfDomain": 2 * job.nt}
        assert np.isfinite(grid).all()

    def test_shared_grid_is_one_kernel_pass(self, monkeypatch):
        # the shared first-form grid of the shipped heisenberg_minimal
        # frame: its end rows settle to a shrunk u-step and the others to
        # the default, and all rows are one _RowPoints and one measure call
        job, sc = settle_chart("shipped-heisenberg_minimal")
        us, ts = shared_grid(sc, sc)
        built, measured = [], []

        class Recorded(oracle._RowPoints):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def counted(*args, real=oracle._first_order):
            measured.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_RowPoints", Recorded)
        monkeypatch.setattr(oracle, "_first_order", counted)
        grid = first_form_grid(job.space, sc, us, ts, job.tol)
        assert len(built) == 1 and len(measured) == 1
        steps, fits = oracle._settle(sc, us, ts, job.tol, 1)
        assert fits.all() and len(set(steps["u"].tolist())) == 2
        for u, row in zip(us.tolist(), grid):
            alone = first_form_grid(job.space, sc, [u], ts, job.tol)[0]
            assert alone.view(np.int64).tolist() == row.view(np.int64).tolist()

    def test_refusal_inside_the_domain_holds_the_charts_error(self, nil_catenoid_chart):
        # xi1 refuses u near one interior row, near an abscissa of an edge
        # row's settled u-stencil and near an abscissa of another row's
        # second-order stencils, while the chart keeps its domain
        # predicate: each of those rows holds xi1's own error, which a
        # one-row call raises and sample_mesh counts
        chart, tol = nil_catenoid_chart, DEFAULT_TOL
        lo, hi = chart.u_valid
        ts = np.linspace(-math.pi, math.pi, 5)
        edge = hi - 1e-6
        us = np.concatenate([np.linspace(lo, hi, 11), [lo + 1e-6, edge]])
        natural = SurfaceChart.from_natural(chart)
        steps, fits = oracle._settle(natural, np.array([edge]), ts, tol, 2)
        step = float(steps["u"][0])
        assert fits[0] and step < tol.fd_first
        refused = np.array([us[4], edge - step, us[6] + tol.fd_second])

        def xi1(u):
            near = (np.abs(np.subtract.outer(np.asarray(u), refused)) < 1e-9).any(axis=-1)
            if near.any():
                raise DomainError(f"xi1 refused at u={np.asarray(u)[near][0]}")
            return chart.xi1(u)

        sc = SurfaceChart(NIL, xi1, chart.xi2, chart.theta0, chart.m, chart.a, chart.u_valid,
                          (-math.pi, math.pi), domain=chart.domain)
        batch = local_geometry(NIL, sc, us, ts, tol)
        fits = [assert_row_is_one_row_call(NIL, sc, batch, i, u, ts, tol) for i, u in enumerate(us.tolist())]
        # the ends of u_valid have no step; the refused rows hold xi1's
        # error, at the first abscissa of theirs it refuses
        assert [i for i, fit in enumerate(fits) if not fit] == [0, 4, 6, 10, 12]
        for i in (1, 2, 3, 5, 7, 8, 9, 11):
            assert assert_row_is_reference(NIL, sc, batch, i, us[i], ts, tol)
        for i in (0, 10):
            assert_row_holds(batch, i, StencilOutOfDomain, str(stencil_misfit(tol.fd_min)))
        for i, at in ((4, us[4]), (6, us[6] + tol.fd_second), (12, edge - step)):
            refusal = (DomainError, f"xi1 refused at u={float(at)}")
            assert_row_holds(batch, i, *refusal)
            if i != 6:
                assert_refused_alone(NIL, sc, us[i], ts, *refusal, tol)
        # first_form_grid reads no second-order stencil: row 6 fits there
        assert np.isfinite(first_form_grid(NIL, sc, [us[6]], ts, tol)).all()
        mesh = sample_mesh(NIL, sc, 11, len(ts), tol)
        assert mesh.dropped_rows == [4]
        assert mesh.diagnostic_failures == {"DomainError": len(ts), "StencilOutOfDomain": 2 * len(ts)}


class TestGauss:
    def test_intrinsic_constant(self):
        assert gauss_intrinsic(SmoothFunction(lambda u: 2.0, lambda u: 0.0, lambda u: 0.0), 0.3) == 0.0

    def test_intrinsic_cosine(self):
        U = SmoothFunction(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u))
        assert abs(gauss_intrinsic(U, 0.4) - 1.0) < 1e-14

    def test_intrinsic_catenoid(self):
        d = 1.3
        U = catenoid_profile(d)
        for u in (-1.0, 0.0, 0.8):
            expected = -d * d / (u * u + d * d) ** 2
            assert abs(gauss_intrinsic(U, u) - expected) < 1e-14

    def test_numeric_plane(self):
        act = HelicoidalAction(R3, 0.0)
        curve = ProfileCurve(
            act, lambda u: u + 3.0, lambda u: 0.0,
            lambda u: 1.0, lambda u: 0.0, (-1.0, 1.0), n=101,
        )
        sc = SurfaceChart.from_profile(act, curve)
        assert abs(gauss_numeric(R3, sc, 0.0, 0.5)) < 1e-6

    def test_numeric_catenoid_waist(self, catenoid_chart):
        sc = SurfaceChart.from_natural(catenoid_chart)
        assert abs(gauss_numeric(R3, sc, 0.0, 0.4) + 1.0) < 1e-4

    def test_numeric_keeps_the_error_class_of_its_stencil(self, nil_catenoid_chart):
        # a vertex of the 5 x 5 stencil that fails raises its own class, with
        # the stencil's place: a degenerate vertex off the centre, and a
        # chart's own quadrature failure
        job, sc = shipped_helicoid()
        h = job.tol.brioschi_step
        with pytest.raises(DegenerateImmersion) as raised:
            gauss_numeric(job.space, sc, h, 0.3, job.tol)
        assert str(raised.value) == (
            f"Brioschi stencil at (u={h}, t=0.3): EG - F^2 = 0.000000e+00 <= 0 at (u=0.0, t={0.3 - 2 * h})"
        )
        chart = nil_catenoid_chart

        def xi2(u):
            if np.any(np.asarray(u) > 1.0):
                raise QuadratureFailure("xi2 did not converge")
            return chart.xi2(u)

        sc = SurfaceChart(NIL, chart.xi1, xi2, chart.theta0, chart.m, chart.a, chart.u_valid,
                          (-math.pi, math.pi), domain=chart.domain)
        assert abs(gauss_numeric(NIL, sc, 0.5, 0.3) - gauss_intrinsic(chart.U, 0.5)) < 1e-4
        with pytest.raises(QuadratureFailure, match=r"^Brioschi stencil at \(u=1.0, t=0.3\): xi2 did not converge$"):
            gauss_numeric(NIL, sc, 1.0, 0.3)

    def test_numeric_matches_intrinsic(self, nil_catenoid_chart):
        sc = SurfaceChart.from_natural(nil_catenoid_chart)
        for u in (-1.8, -0.4, 0.9, 2.2):
            kn = gauss_numeric(NIL, sc, u, 0.3)
            ki = gauss_intrinsic(nil_catenoid_chart.U, u)
            assert abs(kn - ki) < 1e-4


class TestIsometryDeviation:
    def test_same_chart_is_zero(self, catenoid_chart):
        sc = SurfaceChart.from_natural(catenoid_chart)
        assert isometry_deviation(R3, sc, sc, grid=(7, 5)) == 0.0

    def test_catenoid_vs_helicoid(self, catenoid_chart, helicoid_chart):
        a = SurfaceChart.from_natural(catenoid_chart, u_range=(0.3, 2.2))
        b = SurfaceChart.from_natural(helicoid_chart, u_range=(0.3, 2.2))
        assert isometry_deviation(R3, a, b, grid=(9, 5)) < 1e-6

    def test_nil_family_members(self):
        U = nil_catenoid_profile()
        charts = [
            SurfaceChart.from_natural(build_chart(NIL, BourSeed(U, 1.0, a, (-2.2, 2.2))))
            for a in (0.5, 0.25)
        ]
        assert isometry_deviation(NIL, charts[0], charts[1], grid=(9, 5)) < 1e-6

    def test_equals_max_of_first_form_grids(self):
        U = nil_catenoid_profile()
        a, b = (
            SurfaceChart.from_natural(build_chart(NIL, BourSeed(U, 1.0, pitch, (-2.2, 2.2))))
            for pitch in (0.5, 0.125)
        )
        us, ts = shared_grid(a, b, (9, 5))
        grid_a, grid_b = first_form_grid(NIL, a, us, ts), first_form_grid(NIL, b, us, ts)
        assert isometry_deviation(NIL, a, b, grid=(9, 5)) == np.max(np.abs(grid_a - grid_b))
        # rows 0 and 8 sit at the shared_grid margins, where the stencil shrinks
        for chart, grid in ((a, grid_a), (b, grid_b)):
            for i, u in enumerate(us):
                for j, t in enumerate(ts):
                    assert tuple(grid[i, j]) == reference_first_form(NIL, chart, u, t)[3]


class TestIsometryMatrix:
    def test_pairs_measured_once_per_chart_and_grid(self, monkeypatch):
        # three members of one Bour family share one grid: each chart's
        # first form is measured once, and each entry is its own pair's
        U = nil_catenoid_profile()
        charts = [
            SurfaceChart.from_natural(build_chart(NIL, BourSeed(U, 1.0, a, (-2.2, 2.2))))
            for a in (0.5, 0.25, 0.0)
        ]
        calls = []
        real = oracle.first_form_grid

        def counted(space, chart, us, ts, tol):
            calls.append(charts.index(chart))
            return real(space, chart, us, ts, tol)

        monkeypatch.setattr(oracle, "first_form_grid", counted)
        matrix, errors = isometry_matrix(NIL, charts, grid=(9, 5))
        assert calls == [0, 1, 2] and errors == {}
        monkeypatch.undo()
        for i in range(3):
            assert matrix[i][i] == 0.0
            for j in range(3):
                if i != j:
                    assert matrix[i][j] == isometry_deviation(NIL, charts[i], charts[j], grid=(9, 5)) < 1e-6

    def test_unmeasurable_pairs_hold_none_and_their_error(self, catenoid_chart, helicoid_chart):
        # the helicoid's first form degenerates on the axis row u = 0 of the
        # shared grid; a chart whose u-range misses the others shares none
        full = dict(u_range=(-1.0, 1.0))
        charts = [
            SurfaceChart.from_natural(catenoid_chart, **full),
            SurfaceChart.from_natural(helicoid_chart, **full),
            SurfaceChart.from_natural(catenoid_chart, u_range=(1.5, 2.0)),
        ]
        matrix, errors = isometry_matrix(R3, charts, grid=(9, 5))
        assert matrix == [[0.0, None, None], [None, 0.0, None], [None, None, 0.0]]
        assert {pair: type(exc) for pair, exc in errors.items()} == {
            (0, 1): DegenerateImmersion, (0, 2): EmptyDomain, (1, 2): EmptyDomain
        }
        assert str(errors[0, 1]).startswith("EG - F^2 = 0.000000e+00 <= 0 at (u=0.0, ")
        assert all(exc.__traceback__ is None for exc in errors.values())
        # the two-chart case raises its pair's error
        with pytest.raises(DegenerateImmersion, match="EG - F\\^2"):
            isometry_deviation(R3, charts[0], charts[1], grid=(9, 5))

    def test_shared_grid_margin_follows_fd_min(self, catenoid_chart):
        # max(1e-6, the last u-step above fd_min)
        sc = SurfaceChart.from_natural(catenoid_chart, u_range=(-1.0, 1.0))
        for fd_min, margin in ((DEFAULT_TOL.fd_min, 1e-6), (1e-6, DEFAULT_TOL.fd_first / 2**8)):
            us, _ = shared_grid(sc, sc, (9, 5), dataclasses.replace(DEFAULT_TOL, fd_min=fd_min))
            assert (us[0], us[-1]) == (-1.0 + margin, 1.0 - margin)


class TestSampleMesh:
    def test_two_by_two(self, helicoid_chart):
        sc = SurfaceChart.from_natural(helicoid_chart, u_range=(0.5, 1.5), t_range=(0.0, 1.0))
        mesh = sample_mesh(R3, sc, 2, 2, with_curvature=False)
        assert mesh.vertex_count == 4
        assert mesh.vertices.shape == (4, 3)
        assert not np.any(np.isnan(mesh.vertices))
        corners = {(round(v[0], 6), round(v[1], 6)) for v in mesh.vertices}
        assert len(corners) == 4

    def test_catenoid_mesh_minimal(self, catenoid_chart):
        sc = SurfaceChart.from_natural(catenoid_chart, u_range=(-2.0, 2.0))
        mesh = sample_mesh(R3, sc, 21, 21)
        assert mesh.dropped_rows == []
        assert np.nanmax(np.abs(mesh.h_ext)) < 1e-4
        # the first form measured on the mesh's grid is (1, 0, U^2)
        geo = local_geometry(R3, sc, mesh.us, mesh.ts)
        ok = np.array([[exc is None for exc in row] for row in geo.errors])
        Usq = np.array([catenoid_chart.U(u) ** 2 for u in mesh.us])[:, None]
        dev = np.maximum.reduce([np.abs(geo.E - 1.0), np.abs(geo.F), np.abs(geo.G - Usq)])
        assert np.max(dev[ok]) < 1e-6

    def test_chart_and_mesh_carry_no_metric_profile(self, catenoid_chart):
        # the oracle measures the embedding only: U stays with the construction
        sc = SurfaceChart.from_natural(catenoid_chart)
        assert not hasattr(sc, "U")
        mesh = sample_mesh(R3, sc, 2, 2, with_curvature=False)
        assert {f.name for f in dataclasses.fields(mesh)} == {
            "nu", "nt", "us", "ts", "vertices", "h_ext", "dropped_rows", "diagnostic_failures", "first_forms"
        }

    def test_invalid_rows_dropped(self):
        # m = 2 cuts the catenoid-profile chart to |u| < sqrt(1/3): rows
        # outside the validity interval must be dropped, not clamped
        seed = BourSeed(catenoid_profile(), 2.0, 0.0, (-2.0, 2.0))
        chart = build_chart(R3, seed)
        sc = SurfaceChart.from_natural(chart, u_range=(-1.0, 1.0))
        mesh = sample_mesh(R3, sc, 9, 4, with_curvature=False)
        assert len(mesh.dropped_rows) > 0
        assert mesh.vertex_count == 36

    @pytest.mark.parametrize("with_curvature", [True, False])
    def test_grids_are_first_form_grid_in_the_same_query(self, with_curvature, monkeypatch):
        # the mesh's first forms are first_form_grid's, bit for bit, or its
        # error, untraced: on grids of both frames of a sweep whose a = 1
        # chart refuses every u but u0 (xi1 = 0 there), and keeps only the
        # middle row of its own mesh
        job = cli.parse_config(
            {"space": {"kappa": 0.0, "tau": 0.0}, "grid": {"nu": 17, "nt": 9},
             "seed": {"family": "explicit", "U": "2 - u*u", "dU": "-2*u", "m": 0.5, "a": 1.0, "u_range": [-1.0, 1.0]}},
            "export",
        )
        U, meta = cli.resolve_profile(job)
        narrow, wide = (cli.make_chart(job, U, meta, a=a)[0] for a in (1.0, 0.5))
        grids = [
            (np.linspace(0.5 * narrow.u_valid[0], 0.5 * narrow.u_valid[1], 5), np.linspace(-3.0, 3.0, 3)),
            shared_grid(*(SurfaceChart.from_natural(c, t_range=job.t_range) for c in (wide, wide)), (9, 5)),
        ]
        reads, real = [], oracle._fit_rows
        monkeypatch.setattr(oracle, "_fit_rows", lambda *args: reads.append(args) or real(*args))
        for chart in (narrow, wide):
            reads.clear()
            sc = SurfaceChart.from_natural(chart, t_range=job.t_range)
            mesh = sample_mesh(job.space, sc, job.nu, job.nt, job.tol, with_curvature=with_curvature, grids=grids)
            assert len(reads) == 1 or chart is narrow  # a refused batch is split
            alone = SurfaceChart.from_natural(chart, t_range=job.t_range)
            for grid, form in zip(grids, mesh.first_forms):
                try:
                    want = first_form_grid(job.space, alone, *grid, job.tol)
                except BcvHelixError as exc:
                    assert (type(form), str(form)) == (type(exc), str(exc)) and form.__traceback__ is None
                else:
                    assert np.array_equal(form, want) and form.dtype == want.dtype
        monkeypatch.undo()
        # the narrow chart's mesh keeps its middle row, at u0, and its own
        # grid holds the chart's refusal
        narrow_mesh = sample_mesh(job.space, SurfaceChart.from_natural(narrow, t_range=job.t_range),
                                  job.nu, job.nt, job.tol, grids=grids[:1])
        assert narrow_mesh.dropped_rows == [i for i in range(17) if i != 8]
        assert narrow_mesh.diagnostic_failures == {"DegenerateRadius": 9}
        assert str(narrow_mesh.first_forms[0]) == "xi1 = 0 at u=-4.999747034162283e-07: theta integrand singular"

    def test_validation(self, catenoid_chart):
        sc = SurfaceChart.from_natural(catenoid_chart)
        with pytest.raises(ValueError):
            sample_mesh(R3, sc, 1, 5)


def _orientation_by_reference(space, chart, tol):
    """The orientation sign as found by measuring each candidate vertex with
    ``reference_geometry``, all stencils included: the reference for
    ``oracle._orientation``."""
    lo, hi = chart.u_range
    t_ref = 0.5 * (chart.t_range[0] + chart.t_range[1])
    for frac in (0.5, 0.35, 0.65, 0.25, 0.75, 0.45, 0.55):
        u = lo + (hi - lo) * frac
        try:
            with np.errstate(invalid="ignore", divide="ignore"):  # a degenerate normal is NaN
                _, n = reference_geometry(space, chart, u, t_ref, tol)
        except BcvHelixError:
            continue
        p = chart.point(u, t_ref)
        if not np.all(np.isfinite(n)):
            continue
        r = math.hypot(p[0], p[1])
        if r < tol.r_min:
            continue
        e_r = np.array([p[0] / r, p[1] / r, 0.0])
        pairing = float(n @ metric_cartesian(space, p, tol) @ e_r)
        if abs(pairing) > 1e-8:
            return 1.0 if pairing >= 0 else -1.0
    return 1.0


@pytest.mark.parametrize("config, pitches", FAMILIES + FAILING)
def test_orientation_matches_row_kernel(config, pitches):
    # the orientation probe measures only the point and the normal of rows
    # whose order-2 stencils settle and evaluate; its sign is the halving
    # reference's on every family: the chart, the chart over the seed's
    # whole window (candidate rows outside the validity) and its mirror
    # image u -> -u (the other sign)
    job, _, charts = _charts(config, pitches)
    signs = []
    for chart in charts:
        lo, hi = chart.u_valid
        mirror = SurfaceChart.raw(
            chart.space, lambda u: chart.xi1(-u), lambda u: chart.xi2(-u), chart.a, (-hi, -lo),
            job.t_range,
        )
        for surface in (cli._surface(job, chart), SurfaceChart.from_natural(chart, u_range=job.u_range), mirror):
            want = _orientation_by_reference(chart.space, surface, job.tol)
            assert oriented_sign(chart.space, surface, job.tol) == want
            signs.append(want)
    assert set(signs) == {-1.0, 1.0}


@pytest.mark.parametrize("which", SETTLE_CHARTS)
def test_a_given_sign_runs_no_probe_and_flips_only_the_signed_fields(which, monkeypatch):
    # a chart built with the sign the probe finds measures every field bit
    # for bit as the probed chart; with the other sign, only the normal and
    # the second form (L, M, N, H) change sign
    job, probed = settle_chart(which)
    us, ts = np.linspace(*probed.u_range, 9)[1:-1], np.linspace(*job.t_range, 5)
    want = local_geometry(job.space, probed, us, ts, job.tol)
    sign = probed._orient
    monkeypatch.setattr(oracle, "_orientation", lambda *args: pytest.fail("probe ran"))
    for orient in (sign, -sign):
        _, chart = settle_chart(which, orient)
        got = local_geometry(job.space, chart, us, ts, job.tol)
        flip = orient * sign
        for name in FIELDS:
            scale = flip if name in ("normal", "L", "M", "N", "H") else 1.0
            assert np.array_equal(getattr(got, name), scale * getattr(want, name), equal_nan=True), name
        assert [[(type(e), str(e)) for e in row] for row in got.errors] == [
            [(type(e), str(e)) for e in row] for row in want.errors
        ]


def test_orient_is_a_sign_or_none(catenoid_chart):
    for orient in (None, 1.0, -1.0):
        assert SurfaceChart.from_natural(catenoid_chart, orient=orient)._orient == orient
    with pytest.raises(ValueError, match="orient"):
        SurfaceChart.from_natural(catenoid_chart, orient=0.5)
