"""Independent extrinsic verification of helicoidal charts.

Charts are embedded into the ambient space and differentiated numerically;
first and second fundamental forms come from the ambient metric and its
finite-difference Christoffels only -- no reduction-theorem or
transform-side algebra enters, so agreement is evidence, not tautology.
Measurements run one mesh row (fixed u) at a time through ``local_geometry``.

H is the trace of the shape operator (sum of principal curvatures), the
convention fixed by the Euclidean cylinder of radius R giving |H| = 1/R.
The normal is oriented toward the outward radial direction at a reference
point (falling back to continuity along u) and the sign is propagated, so
signed comparisons between two pipelines are made after matching the
orientation once per chart.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bour import NaturalChart
from .errors import (
    BcvHelixError,
    DegenerateImmersion,
    StencilOutOfDomain,
)
from .numerics import DEFAULT_TOL, SmoothFunction, Tolerances, richardson
from .orbit import HelicoidalAction, ProfileCurve
from .spaces import BcvSpace, christoffels, metric_cartesian

__all__ = [
    "SurfaceChart",
    "LocalGeometry",
    "MeshGrid",
    "local_geometry",
    "first_form_grid",
    "first_form_numeric",
    "mean_curvature_extrinsic",
    "gauss_intrinsic",
    "gauss_numeric",
    "shared_grid",
    "isometry_deviation",
    "sample_mesh",
]


class SurfaceChart:
    """A parametrized helicoidal surface (u, t) -> (xi1(u), theta(u,t),
    xi2(u) + a theta(u,t)) in cylindrical coordinates.

    Built either from a NaturalChart (theta = t/m + theta0(u)) or from a raw
    profile curve with pitch a (theta = t).  ``U`` is carried when known so
    intrinsic diagnostics can refer to the metric profile.
    """

    def __init__(
        self,
        space: BcvSpace,
        xi1: Callable[[float], float],
        xi2: Callable[[float], float],
        theta: Callable[[float, float], float],
        a: float,
        u_range: tuple[float, float],
        t_range: tuple[float, float],
        U: Optional[SmoothFunction] = None,
        source=None,
    ):
        self.space = space
        self.xi1 = xi1
        self.xi2 = xi2
        self.theta = theta
        self.a = a
        self.u_range = u_range
        self.t_range = t_range
        self.U = U
        self.source = source
        self._orient: Optional[float] = None

    @classmethod
    def from_natural(
        cls,
        chart: NaturalChart,
        t_range: tuple[float, float] = (-math.pi, math.pi),
        u_range: Optional[tuple[float, float]] = None,
    ) -> "SurfaceChart":
        return cls(
            chart.space,
            chart.xi1,
            chart.xi2,
            chart.theta,
            chart.a,
            u_range if u_range is not None else chart.u_valid,
            t_range,
            U=chart.U,
            source=chart,
        )

    @classmethod
    def from_profile(
        cls,
        act: HelicoidalAction,
        curve: ProfileCurve,
        t_range: tuple[float, float] = (-math.pi, math.pi),
        u_range: Optional[tuple[float, float]] = None,
    ) -> "SurfaceChart":
        return cls(
            act.space,
            curve.xi1,
            curve.xi2,
            lambda u, t: t,
            act.a,
            u_range if u_range is not None else curve.u_range,
            t_range,
            U=None,
            source=curve,
        )

    def point(self, u: float, t) -> np.ndarray:
        """Cartesian point at (u, t); an array t gives shape t.shape + (3,)."""
        th = self.theta(u, t)
        r = self.xi1(u)
        return np.stack([r * np.cos(th), r * np.sin(th), self.xi2(u) + self.a * th], axis=-1)


class _RowPoints:
    """Chart points of one mesh row u, with a cache local to one kernel call.

    Calling it with (v, dt) gives the (nt, 3) array of points at (v, ts + dt).
    The first request for an abscissa v evaluates the chart there once, for
    the row itself and every t-offset the default stencils use; other offsets
    (a stencil shrunk at a domain edge) are evaluated on request.
    """

    def __init__(self, chart: SurfaceChart, ts: np.ndarray, tol: Tolerances):
        self.chart = chart
        self.ts = ts
        self.offsets = (0.0,) + tuple(
            sign * step
            for h in (tol.fd_first, tol.fd_second)
            for step in (h, 0.5 * h)
            for sign in (1.0, -1.0)
        )
        self._cache: dict = {}

    def __call__(self, v: float, dt: float = 0.0) -> np.ndarray:
        rows = self._cache.get(v)
        if rows is None:
            ts = self.ts
            grid = np.stack([ts] + [ts + d for d in self.offsets[1:]])
            rows = dict(zip(self.offsets, self.chart.point(v, grid)))
            self._cache[v] = rows
        pts = rows.get(dt)
        return pts if pts is not None else self.chart.point(v, self.ts + dt)


def _quad_form(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . g_k . b_k for each row k; per row the same operations as a @ g @ b."""
    return np.matmul(np.matmul(a[:, None, :], g), b[:, :, None])[:, 0, 0]


def _pointwise(fn, pts: np.ndarray, errors: list, shape: tuple) -> np.ndarray:
    """fn over all points at once; if that raises, point by point, so only
    the points whose own evaluation fails get NaN and their error."""
    try:
        return fn(pts)
    except BcvHelixError:
        pass
    out = np.full((len(pts),) + shape, np.nan)
    for k in range(len(pts)):
        try:
            out[k] = fn(pts[k])
        except BcvHelixError as exc:
            if errors[k] is None:
                errors[k] = exc
    return out


def _first_order(space: BcvSpace, at: _RowPoints, u: float, tol: Tolerances, errors: list):
    """Tangents, metric and first form along the row: (psi_u, psi_t, g, E, F, G).

    The u-stencil shrinks for the whole row at once, so StencilOutOfDomain is
    raised for the row; a vertex outside the metric domain is NaN in ``errors``.
    """
    psi_u = richardson(lambda s: (at(u + s) - at(u - s)) / (2.0 * s), tol.fd_first, tol.fd_min)
    psi_t = richardson(lambda s: (at(u, s) - at(u, -s)) / (2.0 * s), tol.fd_first, tol.fd_min)
    g = _pointwise(lambda p: metric_cartesian(space, p, tol), at(u), errors, (3, 3))
    return (
        psi_u,
        psi_t,
        g,
        _quad_form(psi_u, g, psi_u),
        _quad_form(psi_u, g, psi_t),
        _quad_form(psi_t, g, psi_t),
    )


@dataclass(frozen=True)
class LocalGeometry:
    """Extrinsic geometry measured along one mesh row (u fixed, one entry per t).

    ``E, F, G`` and ``L, M, N`` are the first and second fundamental forms
    (the latter against the oriented unit ``normal``), ``H`` the trace and
    ``K`` the determinant of the shape operator.  ``K`` is extrinsic: the
    intrinsic Gaussian curvature adds the ambient sectional curvature of the
    tangent plane.  A vertex whose measurement failed holds NaN from the
    failing stage on, and ``errors`` holds its error (None elsewhere).
    """

    points: np.ndarray
    normal: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    H: np.ndarray
    K: np.ndarray
    errors: tuple

    def checked(self) -> "LocalGeometry":
        """This row, after raising the error of its first failed vertex, if any."""
        for exc in self.errors:
            if exc is not None:
                raise exc
        return self


def _geometry(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    ts: np.ndarray,
    tol: Tolerances,
    sign: float,
) -> LocalGeometry:
    at = _RowPoints(chart, ts, tol)
    errors: list = [None] * len(ts)
    psi_u, psi_t, g, E, F, G = _first_order(space, at, u, tol, errors)
    det = E * G - F * F
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.linalg.solve(g, np.cross(psi_u, psi_t)[:, :, None])[:, :, 0]
        norm_sq = _quad_form(v, g, v)
        n = sign * (v / np.sqrt(norm_sq)[:, None])
    for k in np.flatnonzero(det <= 0.0):
        if errors[k] is None:
            errors[k] = DegenerateImmersion(f"EG - F^2 = {det[k]:.6e} <= 0 at (u={u}, t={ts[k]})")
    for k in np.flatnonzero(~(np.isfinite(norm_sq) & (norm_sq > 0.0))):
        if errors[k] is None:
            errors[k] = DegenerateImmersion(f"normal degenerates at (u={u}, t={ts[k]})")
    fc = at(u)
    psi_uu = richardson(
        lambda s: (at(u + s) - 2.0 * fc + at(u - s)) / (s * s), tol.fd_second, tol.fd_min
    )
    psi_tt = richardson(
        lambda s: (at(u, s) - 2.0 * fc + at(u, -s)) / (s * s), tol.fd_second, tol.fd_min
    )
    psi_ut = richardson(
        lambda h: (at(u + h, h) - at(u + h, -h) - at(u - h, h) + at(u - h, -h)) / (4.0 * h * h),
        tol.fd_second,
        tol.fd_min,
    )
    gamma = _pointwise(lambda p: christoffels(space, p, tol=tol), fc, errors, (3, 3, 3))
    gn = np.matmul(g, n[:, :, None])

    def second_form(da: np.ndarray, db: np.ndarray, dd: np.ndarray) -> np.ndarray:
        nabla = dd + np.einsum("...kij,...i,...j->...k", gamma, da, db)
        return np.matmul(nabla[:, None, :], gn)[:, 0, 0]

    L = second_form(psi_u, psi_u, psi_uu)
    M = second_form(psi_u, psi_t, psi_ut)
    N = second_form(psi_t, psi_t, psi_tt)
    with np.errstate(invalid="ignore", divide="ignore"):
        H = (G * L - 2.0 * F * M + E * N) / det
        K = (L * N - M * M) / det
    failed = np.array([e is not None for e in errors])
    for arr in (L, M, N, H, K):
        arr[failed] = np.nan
    return LocalGeometry(fc, n, E, F, G, L, M, N, H, K, tuple(errors))


def _orientation(space: BcvSpace, chart: SurfaceChart, tol: Tolerances) -> float:
    """Sign making g(n, e_r) >= 0 at the chart reference point, walking
    along u when the radial pairing vanishes there."""
    if chart._orient is not None:
        return chart._orient
    lo, hi = chart.u_range
    t_ref = 0.5 * (chart.t_range[0] + chart.t_range[1])
    sign = 1.0
    for frac in (0.5, 0.35, 0.65, 0.25, 0.75, 0.45, 0.55):
        u = lo + (hi - lo) * frac
        try:
            geo = _geometry(space, chart, u, np.array([t_ref]), tol, 1.0)
        except BcvHelixError:
            continue
        p, n = geo.points[0], geo.normal[0]
        if not np.all(np.isfinite(n)):
            continue
        r = math.hypot(p[0], p[1])
        if r < tol.r_min:
            continue
        e_r = np.array([p[0] / r, p[1] / r, 0.0])
        pairing = float(n @ metric_cartesian(space, p, tol) @ e_r)
        if abs(pairing) > 1e-8:
            sign = 1.0 if pairing >= 0 else -1.0
            break
    chart._orient = sign
    return sign


def local_geometry(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    ts,
    tol: Tolerances = DEFAULT_TOL,
) -> LocalGeometry:
    """First and second fundamental forms, H and K along the row u, one entry per t.

    The embedding is differentiated numerically at every vertex and the
    second form is corrected by the ambient Christoffels; no structure of
    the chart is assumed.  The chart is evaluated once per distinct stencil
    abscissa; the stencils, metric, Christoffels, normals and forms run over
    the whole row.  A stencil that cannot fit the domain raises for the row;
    a vertex whose metric or Christoffel stencil leaves the domain, or whose
    immersion degenerates, is NaN with its error in ``errors``.
    """
    ts = np.asarray(ts, dtype=float)
    return _geometry(space, chart, u, ts, tol, _orientation(space, chart, tol))


def first_form_grid(
    space: BcvSpace,
    chart: SurfaceChart,
    us,
    ts,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """(E, F, G) measured on the grid us x ts, shape (len(us), len(ts), 3).

    One row evaluation per u; raises the error of the first vertex that fails.
    """
    ts = np.asarray(ts, dtype=float)
    rows = []
    for u in us:
        errors: list = [None] * len(ts)
        *_, E, F, G = _first_order(space, _RowPoints(chart, ts, tol), u, tol, errors)
        for exc in errors:
            if exc is not None:
                raise exc
        rows.append(np.stack([E, F, G], axis=-1))
    return np.stack(rows)


def first_form_numeric(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    t: float,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float, float]:
    """(E, F, G) measured from the embedding and the ambient metric."""
    E, F, G = first_form_grid(space, chart, [u], [t], tol)[0, 0]
    return float(E), float(F), float(G)


def mean_curvature_extrinsic(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    t: float,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Trace of the shape operator from ambient data only.

    Second derivatives of the embedding are corrected by the ambient
    Christoffels to form the second fundamental form; the first form is
    inverted and traced against it.
    """
    return float(local_geometry(space, chart, u, [t], tol).checked().H[0])


def gauss_intrinsic(U, u: float) -> float:
    """Gaussian curvature of a natural chart from its metric profile: -U''/U."""
    U = SmoothFunction.wrap(U)
    return -U.second(u) / U(u)


_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0   # 4th-order first derivative
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # 4th-order second derivative


def gauss_numeric(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    t: float,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Gaussian curvature from the measured first form alone (Brioschi).

    Samples E, F, G on a local 5x5 stencil of step tol.brioschi_step and
    assembles the Brioschi determinant formula with 4th-order differences.
    The stacked finite-difference error budgets the 1e-4 tolerance.
    """
    h = tol.brioschi_step
    steps = (np.arange(5) - 2) * h
    try:
        grid = first_form_grid(space, chart, u + steps, t + steps, tol)
    except BcvHelixError as exc:
        raise StencilOutOfDomain(
            f"Brioschi stencil left the domain at (u={u}, t={t}): {exc}"
        )
    E, F, G = grid[2, 2]
    d_u = np.tensordot(_D1, grid[:, 2, :], axes=(0, 0)) / h
    d_t = np.tensordot(_D1, grid[2, :, :], axes=(0, 0)) / h
    d_uu = np.tensordot(_D2, grid[:, 2, :], axes=(0, 0)) / (h * h)
    d_tt = np.tensordot(_D2, grid[2, :, :], axes=(0, 0)) / (h * h)
    d_ut = np.einsum("i,j,ijc->c", _D1, _D1, grid) / (h * h)
    E_u, F_u, G_u = d_u
    E_t, F_t, G_t = d_t
    E_tt = d_tt[0]
    G_uu = d_uu[2]
    F_ut = d_ut[1]
    m1 = np.array(
        [
            [-0.5 * E_tt + F_ut - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_t],
            [F_t - 0.5 * G_u, E, F],
            [0.5 * G_t, F, G],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * E_t, 0.5 * G_u],
            [0.5 * E_t, E, F],
            [0.5 * G_u, F, G],
        ]
    )
    det = E * G - F * F
    if det <= 0.0:
        raise DegenerateImmersion(f"EG - F^2 = {det:.6e} <= 0 at (u={u}, t={t})")
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det * det))


def shared_grid(
    chart_a: SurfaceChart,
    chart_b: SurfaceChart,
    grid: tuple[int, int] = (21, 9),
    margin: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """(us, ts) of the uniform grid on the (u, t) rectangle two charts share."""
    u_lo = max(chart_a.u_range[0], chart_b.u_range[0]) + margin
    u_hi = min(chart_a.u_range[1], chart_b.u_range[1]) - margin
    t_lo = max(chart_a.t_range[0], chart_b.t_range[0])
    t_hi = min(chart_a.t_range[1], chart_b.t_range[1])
    if not (u_lo < u_hi and t_lo < t_hi):
        raise ValueError("charts share no (u, t) parameter rectangle")
    nu, nt = grid
    return np.linspace(u_lo, u_hi, nu), np.linspace(t_lo, t_hi, nt)


def isometry_deviation(
    space: BcvSpace,
    chart_a: SurfaceChart,
    chart_b: SurfaceChart,
    grid: tuple[int, int] = (21, 9),
    tol: Tolerances = DEFAULT_TOL,
    margin: float = 1e-6,
) -> float:
    """Max componentwise first-form difference over the shared (u, t) grid."""
    us, ts = shared_grid(chart_a, chart_b, grid, margin)
    diff = first_form_grid(space, chart_a, us, ts, tol) - first_form_grid(space, chart_b, us, ts, tol)
    return float(np.max(np.abs(diff)))


@dataclass
class MeshGrid:
    """Sampled surface with per-vertex diagnostics.

    ``vertices`` has one row per (u, t) grid node in row-major u-then-t
    order; rows whose u failed chart evaluation are NaN and listed in
    ``dropped_rows``.  ``diagnostic_failures`` counts the vertices of the
    other rows whose diagnostics failed (NaN ``h_ext``), by error class.
    """

    nu: int
    nt: int
    us: np.ndarray
    ts: np.ndarray
    vertices: np.ndarray
    h_ext: np.ndarray
    gauss: np.ndarray
    residual: np.ndarray
    dropped_rows: list = field(default_factory=list)
    diagnostic_failures: dict = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return self.nu * self.nt


def sample_mesh(
    space: BcvSpace,
    chart: SurfaceChart,
    nu: int,
    nt: int,
    tol: Tolerances = DEFAULT_TOL,
    with_curvature: bool = True,
) -> MeshGrid:
    """Uniform mesh over the chart's (u, t) rectangle with diagnostics.

    Diagnostics per vertex, one ``local_geometry`` row at a time: extrinsic
    mean curvature, Gaussian curvature (-U''/U when the metric profile is
    known, else NaN), and for natural charts the max deviation of the
    measured first form from (1, 0, U^2).  Rows at invalid u are dropped,
    not clamped.
    """
    if nu < 2 or nt < 2:
        raise ValueError("nu and nt must both be >= 2")
    us = np.linspace(chart.u_range[0], chart.u_range[1], nu)
    ts = np.linspace(chart.t_range[0], chart.t_range[1], nt)
    vertices = np.full((nu * nt, 3), np.nan)
    h_ext = np.full(nu * nt, np.nan)
    gauss = np.full(nu * nt, np.nan)
    residual = np.full(nu * nt, np.nan)
    dropped = []
    failures: Counter = Counter()
    for i, u in enumerate(us):
        row = slice(i * nt, (i + 1) * nt)
        try:
            vertices[row] = chart.point(u, ts)
        except BcvHelixError:
            dropped.append(i)
            continue
        if not with_curvature:
            continue
        try:
            geo = local_geometry(space, chart, u, ts, tol)
        except BcvHelixError as exc:
            failures[type(exc).__name__] += nt
            continue
        failures.update(type(e).__name__ for e in geo.errors if e is not None)
        ok = np.array([e is None for e in geo.errors])
        h_ext[row] = geo.H
        if chart.U is None or not ok.any():
            continue
        try:
            gauss[row][ok] = gauss_intrinsic(chart.U, u)
            Uv = chart.U(u)
        except BcvHelixError:
            continue
        dev = np.maximum.reduce([np.abs(geo.E - 1.0), np.abs(geo.F), np.abs(geo.G - Uv * Uv)])
        residual[row][ok] = dev[ok]
    return MeshGrid(
        nu=nu,
        nt=nt,
        us=us,
        ts=ts,
        vertices=vertices,
        h_ext=h_ext,
        gauss=gauss,
        residual=residual,
        dropped_rows=dropped,
        diagnostic_failures=dict(sorted(failures.items())),
    )
