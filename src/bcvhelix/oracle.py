"""Independent extrinsic verification of helicoidal charts.

Charts are embedded into the ambient space and differentiated numerically;
first and second fundamental forms come from the ambient metric and its
finite-difference Christoffels only -- no reduction-theorem or
transform-side algebra enters, so agreement is evidence, not tautology.

H is the trace of the shape operator (sum of principal curvatures), the
convention fixed by the Euclidean cylinder of radius R giving |H| = 1/R.
The normal is oriented toward the outward radial direction at a reference
point (falling back to continuity along u) and the sign is propagated, so
signed comparisons between two pipelines are made after matching the
orientation once per chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bour import NaturalChart
from .errors import (
    BcvHelixError,
    DegenerateImmersion,
    StencilOutOfDomain,
)
from .numerics import DEFAULT_TOL, SmoothFunction, Tolerances, diff_central, richardson
from .orbit import HelicoidalAction, ProfileCurve
from .spaces import AmbientPoint, BcvSpace, christoffels, metric_cartesian

__all__ = [
    "SurfaceChart",
    "MeshGrid",
    "embed",
    "first_form_numeric",
    "mean_curvature_extrinsic",
    "gauss_intrinsic",
    "gauss_numeric",
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

    def point(self, u: float, t: float) -> np.ndarray:
        th = self.theta(u, t)
        r = self.xi1(u)
        return np.array(
            [r * math.cos(th), r * math.sin(th), self.xi2(u) + self.a * th]
        )


def embed(space: BcvSpace, chart: SurfaceChart, u: float, t: float) -> AmbientPoint:
    """Cartesian ambient point of the chart at (u, t)."""
    x, y, z = chart.point(u, t)
    return AmbientPoint(x, y, z)


def _tangents(
    chart: SurfaceChart, u: float, t: float, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    psi_u = diff_central(lambda v: chart.point(v, t), u, 1, tol.fd_first, tol.fd_min)
    psi_t = diff_central(lambda s: chart.point(u, s), t, 1, tol.fd_first, tol.fd_min)
    return psi_u, psi_t


def first_form_numeric(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    t: float,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float, float]:
    """(E, F, G) measured from the embedding and the ambient metric."""
    psi_u, psi_t = _tangents(chart, u, t, tol)
    g = metric_cartesian(space, chart.point(u, t), tol)
    return (
        float(psi_u @ g @ psi_u),
        float(psi_u @ g @ psi_t),
        float(psi_t @ g @ psi_t),
    )


def _mixed_second(chart: SurfaceChart, u: float, t: float, h: float, tol: Tolerances):
    def d(hh: float) -> np.ndarray:
        return (
            chart.point(u + hh, t + hh)
            - chart.point(u + hh, t - hh)
            - chart.point(u - hh, t + hh)
            + chart.point(u - hh, t - hh)
        ) / (4.0 * hh * hh)

    return richardson(d, h, tol.fd_min)


def _normal(
    space: BcvSpace,
    chart: SurfaceChart,
    u: float,
    t: float,
    psi_u: np.ndarray,
    psi_t: np.ndarray,
    g: np.ndarray,
) -> np.ndarray:
    cov = np.cross(psi_u, psi_t)  # covariant up to the metric density
    v = np.linalg.solve(g, cov)
    norm_sq = float(v @ g @ v)
    if norm_sq <= 0.0 or not math.isfinite(norm_sq):
        raise DegenerateImmersion(f"normal degenerates at (u={u}, t={t})")
    return v / math.sqrt(norm_sq)


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
            psi_u, psi_t = _tangents(chart, u, t_ref, tol)
            p = chart.point(u, t_ref)
            g = metric_cartesian(space, p, tol)
            n = _normal(space, chart, u, t_ref, psi_u, psi_t, g)
        except BcvHelixError:
            continue
        r = math.hypot(p[0], p[1])
        if r < tol.r_min:
            continue
        e_r = np.array([p[0] / r, p[1] / r, 0.0])
        pairing = float(n @ g @ e_r)
        if abs(pairing) > 1e-8:
            sign = 1.0 if pairing >= 0 else -1.0
            break
    chart._orient = sign
    return sign


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
    psi_u, psi_t = _tangents(chart, u, t, tol)
    p = chart.point(u, t)
    g = metric_cartesian(space, p, tol)
    E = float(psi_u @ g @ psi_u)
    F = float(psi_u @ g @ psi_t)
    G = float(psi_t @ g @ psi_t)
    det = E * G - F * F
    if det <= 0.0:
        raise DegenerateImmersion(f"EG - F^2 = {det:.6e} <= 0 at (u={u}, t={t})")
    n = _orientation(space, chart, tol) * _normal(space, chart, u, t, psi_u, psi_t, g)
    psi_uu = diff_central(lambda v: chart.point(v, t), u, 2, tol.fd_second, tol.fd_min)
    psi_tt = diff_central(lambda s: chart.point(u, s), t, 2, tol.fd_second, tol.fd_min)
    psi_ut = _mixed_second(chart, u, t, tol.fd_second, tol)
    gamma = christoffels(space, p, tol=tol)
    gn = g @ n

    def second_form(da: np.ndarray, db: np.ndarray, dd: np.ndarray) -> float:
        nabla = dd + np.einsum("kij,i,j->k", gamma, da, db)
        return float(nabla @ gn)

    L = second_form(psi_u, psi_u, psi_uu)
    M = second_form(psi_u, psi_t, psi_ut)
    N = second_form(psi_t, psi_t, psi_tt)
    return (G * L - 2.0 * F * M + E * N) / det


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
    grid = np.empty((5, 5, 3))
    for i in range(5):
        for j in range(5):
            try:
                grid[i, j] = first_form_numeric(
                    space, chart, u + (i - 2) * h, t + (j - 2) * h, tol
                )
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


def isometry_deviation(
    space: BcvSpace,
    chart_a: SurfaceChart,
    chart_b: SurfaceChart,
    grid: tuple[int, int] = (21, 9),
    tol: Tolerances = DEFAULT_TOL,
    margin: float = 1e-6,
) -> float:
    """Max componentwise first-form difference over the shared (u, t) grid."""
    u_lo = max(chart_a.u_range[0], chart_b.u_range[0]) + margin
    u_hi = min(chart_a.u_range[1], chart_b.u_range[1]) - margin
    t_lo = max(chart_a.t_range[0], chart_b.t_range[0])
    t_hi = min(chart_a.t_range[1], chart_b.t_range[1])
    if not (u_lo < u_hi and t_lo < t_hi):
        raise ValueError("charts share no (u, t) parameter rectangle")
    nu, nt = grid
    worst = 0.0
    for u in np.linspace(u_lo, u_hi, nu):
        for t in np.linspace(t_lo, t_hi, nt):
            fa = first_form_numeric(space, chart_a, u, t, tol)
            fb = first_form_numeric(space, chart_b, u, t, tol)
            worst = max(worst, max(abs(x - y) for x, y in zip(fa, fb)))
    return worst


@dataclass
class MeshGrid:
    """Sampled surface with per-vertex diagnostics.

    ``vertices`` has one row per (u, t) grid node in row-major u-then-t
    order; rows whose u failed chart evaluation are NaN and listed in
    ``dropped_rows``.
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

    Diagnostics per vertex: extrinsic mean curvature, Gaussian curvature
    (-U''/U when the metric profile is known, else NaN), and for natural
    charts the max deviation of the measured first form from (1, 0, U^2).
    Rows at invalid u are dropped, not clamped.
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
    for i, u in enumerate(us):
        try:
            chart.xi1(u)
        except BcvHelixError:
            dropped.append(i)
            continue
        row_ok = True
        for j, t in enumerate(ts):
            idx = i * nt + j
            try:
                vertices[idx] = chart.point(u, t)
                if with_curvature:
                    h_ext[idx] = mean_curvature_extrinsic(space, chart, u, t, tol)
                    if chart.U is not None:
                        gauss[idx] = gauss_intrinsic(chart.U, u)
                        Ef, Ff, Gf = first_form_numeric(space, chart, u, t, tol)
                        Uv = chart.U(u)
                        residual[idx] = max(
                            abs(Ef - 1.0), abs(Ff), abs(Gf - Uv * Uv)
                        )
            except BcvHelixError:
                row_ok = False
        if not row_ok and np.all(np.isnan(vertices[i * nt : (i + 1) * nt])):
            dropped.append(i)
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
    )
