"""Independent extrinsic verification of helicoidal charts.

Charts are embedded into the ambient space and differentiated numerically;
first and second fundamental forms come from the ambient metric, its inverse
and its Christoffels only (``spaces``, the derivatives of the metric's
coefficients) -- no reduction-theorem or transform-side algebra enters, so
agreement is evidence, not tautology.
Measurements run through one kernel over a set of mesh rows (fixed u) at
once, be it a batch or one row: the chart's profile is one array query
(``SurfaceChart.profile``) over every (row, stencil abscissa) pair, the
orientation probe's candidate rows included when the chart has no sign
yet.  ``sample_mesh`` reads its chart once: the mesh rows' own abscissae,
its curvature rows, the probe and the first-form rows of the grids it is
given are one query.  The stencils,
metric, Christoffels, normals and forms run once over all vertices of all
rows, the ambient ones over the vertices inside the metric domain.  Before
any chart query, each row's stencil steps are settled from the chart's
domain: the first step of each stencil's halving that reads inside it.
Every row is measured in the one pass at its own fixed steps, and a row
with none holds StencilOutOfDomain without an evaluation.  A row where the
chart refuses one of its abscissae inside its domain holds the chart's own
error.
Errors kept in results are fresh instances that were never raised, so they
hold no traceback.

H is the trace of the shape operator (sum of principal curvatures), the
convention fixed by the Euclidean cylinder of radius R giving |H| = 1/R.
The normal is oriented toward the outward radial direction at a reference
point (falling back to continuity along u) and the sign is propagated, so
signed comparisons between two pipelines are made after matching the
orientation once per chart.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bour import NaturalChart
from .errors import (
    BcvHelixError,
    DegenerateImmersion,
    EmptyDomain,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    halving_steps,
    richardson,
    stencil_misfit,
)
from .orbit import HelicoidalAction, ProfileCurve, ProfileDomain
from .spaces import BcvSpace, christoffels, domain_errors, inverse_metric, metric_cartesian

__all__ = [
    "SurfaceChart",
    "LocalGeometry",
    "MeshGrid",
    "local_geometry",
    "first_form_grid",
    "first_form_numeric",
    "mean_curvature_extrinsic",
    "gauss_numeric",
    "shared_grid",
    "pair_grids",
    "pair_matrix",
    "first_forms",
    "isometry_matrix",
    "isometry_deviation",
    "sample_mesh",
]


class SurfaceChart:
    """A helicoidal surface (u, t) -> (xi1(u), theta, xi2(u) + a theta) in
    cylindrical coordinates, swept by the screw motion: theta = t/m + theta0(u).

    Built either from a NaturalChart or as a raw chart with pitch a
    (theta0 = 0, m = 1, so theta = t).  ``xi1``, ``xi2`` and ``theta0`` take
    a float u, or a 1-D array of u and return the column of values; a
    failure raises a BcvHelixError.  ``profile`` reads all three, through
    the NaturalChart's own ``profile`` for a chart built from one.  The
    oracle queries arrays only; a float u serves the one-point API
    (``point``, ``profile``).  A chart carries no metric profile: the
    oracle measures the embedding only.  ``domain`` is the ProfileDomain of
    the u the chart evaluates at and of the abscissa it reads each at, so
    the oracle can settle a stencil without a query that raises; without
    one the chart admits every u and reads it as given.
    """

    def __init__(
        self,
        space: BcvSpace,
        xi1: Callable[[float], float],
        xi2: Callable[[float], float],
        theta0: Callable[[float], float],
        m: float,
        a: float,
        u_range: tuple[float, float],
        t_range: tuple[float, float],
        domain: ProfileDomain = ProfileDomain(),
        profile: Optional[Callable] = None,
    ):
        self.space = space
        self.xi1 = xi1
        self.xi2 = xi2
        self.theta0 = theta0
        self.m = m
        self.a = a
        self.u_range = u_range
        self.t_range = t_range
        self.domain = domain
        self._profile = profile
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
            chart.theta0,
            chart.m,
            chart.a,
            u_range if u_range is not None else chart.u_valid,
            t_range,
            domain=chart.domain,
            profile=chart.profile,
        )

    @classmethod
    def raw(
        cls,
        space: BcvSpace,
        xi1: Callable,
        xi2: Callable,
        a: float,
        u_range: tuple[float, float],
        t_range: tuple[float, float],
        domain: ProfileDomain = ProfileDomain(),
    ) -> "SurfaceChart":
        """The chart with theta = t: theta0 = 0 and m = 1."""
        return cls(space, xi1, xi2, _no_gauge, 1.0, a, u_range, t_range, domain=domain)

    @classmethod
    def from_profile(
        cls,
        act: HelicoidalAction,
        curve: ProfileCurve,
        t_range: tuple[float, float] = (-math.pi, math.pi),
        u_range: Optional[tuple[float, float]] = None,
    ) -> "SurfaceChart":
        """The raw chart of a profile curve, which is evaluated point by point."""
        return cls.raw(
            act.space,
            _per_point(curve.xi1),
            _per_point(curve.xi2),
            act.a,
            u_range if u_range is not None else curve.u_range,
            t_range,
            domain=curve.domain,
        )

    def profile(self, u):
        """(theta0, xi1, xi2) at a float u, evaluated in that order; at a
        1-D array of u, the three columns: the ``profile`` the chart was
        built with, else one query each, in that order."""
        if self._profile is not None:
            return self._profile(u)
        return self.theta0(u), self.xi1(u), self.xi2(u)

    def embed(self, theta0, xi1, xi2, t) -> np.ndarray:
        """Cartesian points at t of the profile values (theta0, xi1, xi2),
        broadcast against t, with a last axis of 3: (xi1 cos th, xi1 sin th,
        xi2 + a th), th = t/m + theta0, each written in place."""
        th = t / self.m + theta0
        out = np.empty(np.broadcast_shapes(np.shape(th), np.shape(xi1), np.shape(xi2)) + (3,))
        np.multiply(xi1, np.cos(th), out=out[..., 0])
        np.multiply(xi1, np.sin(th), out=out[..., 1])
        np.add(xi2, self.a * th, out=out[..., 2])
        return out

    def point(self, u: float, t) -> np.ndarray:
        """Cartesian point at (u, t); an array t gives shape t.shape + (3,)."""
        return self.embed(*self.profile(u), t)


def _no_gauge(u):
    """theta0 = 0 at a float u, or its column at a 1-D array."""
    return np.zeros(u.shape) if isinstance(u, np.ndarray) else 0.0


def _per_point(fn: Callable[[float], float]) -> Callable:
    """fn, a function of one float, on a float or point by point on a 1-D array."""

    def apply(u):
        if not isinstance(u, np.ndarray):
            return fn(u)
        return np.fromiter(map(fn, u.tolist()), float, u.size)

    return apply


def _fit_rows(chart: SurfaceChart, xs: np.ndarray, starts: np.ndarray) -> tuple[list, list]:
    """The profile at the abscissae xs of a batch of rows, row i being
    xs[starts[i]:starts[i + 1]]: [theta0, xi1, xi2], each column flat as
    xs, and each row's error: None where the chart evaluates at all its
    abscissae, else the untraced error the row's own evaluation raised, its
    values NaN.

    The batch is one query (``SurfaceChart.profile``).  A batch the chart
    raises a BcvHelixError on is split, down to single rows: into its first
    row, its last row and the two halves of the rest.  Rows at the ends of
    a mesh fail most (where a chart refuses the ends of its range), and this
    splits them off at once."""
    n = len(starts) - 1
    try:
        return [np.asarray(c, dtype=float).reshape(xs.shape) for c in chart.profile(xs)], [None] * n
    except BcvHelixError as exc:
        if n == 1:
            return [np.full(xs.shape, np.nan)] * 3, [_untraced(exc)]
    mid = (n + 1) // 2
    cuts = sorted({0, 1, mid, n - 1, n})
    parts = [
        _fit_rows(chart, xs[starts[lo] : starts[hi]], starts[lo : hi + 1] - starts[lo])
        for lo, hi in zip(cuts, cuts[1:])
    ]
    columns = [np.concatenate(c) for c in zip(*(part[0] for part in parts))]
    return columns, [exc for part in parts for exc in part[1]]


# The oracle's difference stencils: for each, the tolerance that gives its
# default step h, and the (u, t) offsets, in units of h, of the points its
# difference quotient d(h) reads; ``richardson`` reads d(h), then d(h/2).
# The quotients are written out in _first_order and _geometry.
_STENCILS = {
    "u": ("fd_first", np.array([(1.0, 0.0), (-1.0, 0.0)])),
    "t": ("fd_first", np.array([(0.0, 1.0), (0.0, -1.0)])),
    "uu": ("fd_second", np.array([(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0)])),
    "tt": ("fd_second", np.array([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)])),
    "ut": ("fd_second", np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])),
}
# each stencil's reads in units of h: those of d(h), then those of d(h/2)
_UNIT_READS = {name: np.concatenate([d, 0.5 * d]) for name, (_, d) in _STENCILS.items()}
_ORDERS = {1: ("u", "t"), 2: tuple(_STENCILS)}  # the stencils of derivatives up to order 1, 2


def _readable(chart: SurfaceChart, us: np.ndarray, ts: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """Whether a stencil on row u of us can read each (s, dt) of ``reads``
    (shape (n, 2)), shape (len(us), n): u + s is inside the chart's domain,
    a nonzero s moves u where the chart reads it, and a nonzero dt moves
    every t.  A read that fails one of these is outside the chart, or
    gives a difference quotient that is not that of its step."""
    s, dt = reads.T
    grid = us[:, None] + s
    ok = chart.domain.admits(grid) & ~((dt != 0.0) & (ts + dt[:, None] == ts).any(axis=1))
    away = ok & (s != 0.0)
    ok[away] = chart.domain.read(grid[away]) != np.broadcast_to(us[:, None], grid.shape)[away]
    return ok


def _settle(chart: SurfaceChart, us: np.ndarray, ts: np.ndarray, tol: Tolerances, order: int):
    """(steps, fits): ``steps`` maps each stencil of the derivatives up to
    ``order`` (1 or 2) to its settled step on each row of us, an array, and
    ``fits`` marks the rows where every stencil has a step; the steps of
    the other rows mean nothing.  No chart query is made.

    A stencil's settled step is the first of ``halving_steps`` from its
    default down to ``tol.fd_min`` at which ``_readable`` admits every read
    of d(h) and d(h/2).  All rows are screened at the default steps at
    once; only the rows that fail are walked down the steps."""
    start = {name: getattr(tol, _STENCILS[name][0]) for name in _ORDERS[order]}
    reads = np.concatenate([h * _UNIT_READS[name] for name, h in start.items()])
    fits = _readable(chart, us, ts, reads).all(axis=1)
    steps = {name: np.full(len(us), h) for name, h in start.items()}
    rest = np.flatnonzero(~fits)
    if rest.size:
        found = np.ones(rest.size, dtype=bool)
        for name, h in start.items():
            hs = np.array(list(halving_steps(h, tol.fd_min)))
            ok = _readable(chart, us[rest], ts, np.multiply.outer(hs, _UNIT_READS[name]).reshape(-1, 2))
            fit = ok.reshape(rest.size, hs.size, -1).all(axis=2)  # (rows, steps)
            found &= fit.any(axis=1)
            steps[name][rest] = hs[fit.argmax(axis=1)]
        fits[rest] = found
    return steps, fits


class _RowPoints:
    """Chart points of a set of mesh rows u along ts, for one kernel call.

    The rows are settled on construction.  ``refused`` holds each row's
    error (None while measured), ``rows`` indexes the measured rows, ``us``
    their u and ``steps`` their step of each stencil; stencils with the same
    steps share their reads.  ``abscissae`` (rows, k) holds each settled
    row's u and every u + s h its stencils read (9 for the order-2 stencils
    at the default steps, 5 for order 1); ``embed`` takes the profile there.
    ``vertices`` then holds the points at (u, ts) of the rows the chart
    evaluated, (rows * nt, 3) row after row, and ``_first_order`` sets
    ``outside``, the vertices outside the metric domain and their errors.
    """

    def __init__(self, chart: SurfaceChart, us: np.ndarray, ts: np.ndarray, tol: Tolerances, order: int):
        steps, fits = _settle(chart, us, ts, tol, order)
        self.chart = chart
        self.ts = ts
        self.nt = len(ts)
        self.refused = [None if fit else stencil_misfit(tol.fd_min) for fit in fits.tolist()]
        self.rows = np.flatnonzero(fits)
        self.us = us[self.rows]
        self.steps = {name: h[self.rows] for name, h in steps.items()}
        self._key = {name: h.tobytes() for name, h in self.steps.items()}  # the same steps, the same reads
        abscissae = [self.us]
        column: dict = {}  # (key, su) -> column of the abscissa u + su h
        # read -> (column, st, stencil); st is -0.0 along u, as ts + -0.0 is ts
        self._reads: dict = {None: (0, -0.0, next(iter(steps)))}
        for name, h in self.steps.items():
            for su, st in _UNIT_READS[name].tolist():
                key = (self._key[name], su, st) if su or st else None
                if su and (key[0], su) not in column:
                    column[key[0], su] = len(abscissae)
                    abscissae.append(self.us + su * h)
                self._reads.setdefault(key, (column[key[0], su] if su else 0, st or -0.0, name))
        self.abscissae = np.stack(abscissae, axis=1)

    def embed(self, columns: list, errors: list):
        """Keep the rows where the chart evaluated every abscissa, with the
        profile ``columns`` there and each row's error from ``_fit_rows``,
        hold the others' errors in ``refused`` and embed every read of the
        kept rows in one call."""
        for i, exc in zip(self.rows.tolist(), errors):
            self.refused[i] = exc
        kept = np.array([exc is None for exc in errors], dtype=bool)
        self.rows, self.us = self.rows[kept], self.us[kept]
        self.steps = {name: h[kept, None] for name, h in self.steps.items()}  # now columns
        js, sts, names = zip(*self._reads.values())
        dt = np.array(sts)[:, None, None] * np.stack([self.steps[name] for name in names])
        profile = [column[kept][:, js].T[:, :, None] for column in columns]
        points = self.chart.embed(*profile, self.ts + dt).reshape(len(js), -1, 3)
        self._points = dict(zip(self._reads, points))
        self.vertices = self._points[None]

    def richardson(self, name: str, quotient: Callable) -> np.ndarray:
        """One Richardson level of the stencil ``name``, stacked as the
        vertices: quotient(p, s) at s = h, then at s = h/2, h its step on
        each row, with p(su, st) the points at (u + su s, ts + st s) and
        each row of p and s one row of vertices."""
        key, rows = self._key[name], len(self.us)

        def d(c):  # the level c scales the step: c = 1, then c = 1/2
            read = lambda su, st: self._points[(key, c * su, c * st) if su or st else None].reshape(rows, -1)
            return quotient(read, c * self.steps[name])

        return richardson(d, 1.0).reshape(-1, 3)

    def measure(self, kernel: Callable, shapes: tuple):
        """kernel()'s first len(shapes) values, each of shape (rows, nt) +
        its shape, and its errors, one tuple per row, over every row of the
        set: a refused row holds its error on every vertex, NaN values."""
        values = [np.full((len(self.refused), self.nt) + shape, np.nan) for shape in shapes]
        errors = [(exc,) * self.nt for exc in self.refused]
        if self.rows.size:
            got, errs = kernel()
            for out, value in zip(values, got):
                out[self.rows] = value.reshape((self.rows.size, self.nt) + value.shape[1:])
            for k, i in enumerate(self.rows.tolist()):
                errors[i] = tuple(errs[k * self.nt : (k + 1) * self.nt])
        return values, tuple(errors)


class _Vertices:
    """The mesh rows' own abscissae, one per row, as a row set of ``_fit``:
    ``columns`` then holds the profile there, shape (rows, 1) each, and
    ``errors`` each row's error."""

    def __init__(self, us: np.ndarray):
        self.abscissae = us[:, None]

    def embed(self, columns: list, errors: list):
        self.columns, self.errors = columns, errors


def _fit(chart: SurfaceChart, *sets):
    """Evaluate the profile at every abscissa of the row sets in one
    ``_fit_rows`` call, each row its own abscissae, and embed each set's
    reads.  The first set's first row leads the batch and its other rows
    end it: the rows a chart refuses most, the end rows of a mesh, are
    then the ends of the batch, which ``_fit_rows`` splits off first."""
    head, *middle = [at.abscissae for at in sets]
    blocks = [head[:1], *middle, head[1:]]
    xs = np.concatenate([block.ravel() for block in blocks])
    starts = np.concatenate([[0], np.cumsum(np.concatenate([np.full(len(b), b.shape[1]) for b in blocks]))])
    columns, errors = _fit_rows(chart, xs, starts) if len(starts) > 1 else ([xs] * 3, [])
    fitted, row = [], 0
    for block in blocks:
        lo, hi = starts[row], starts[row + len(block)]
        fitted.append(([column[lo:hi].reshape(block.shape) for column in columns], errors[row : row + len(block)]))
        row += len(block)
    (first, first_errors), *rest, (last, last_errors) = fitted
    sets[0].embed([np.concatenate(pair) for pair in zip(first, last)], first_errors + last_errors)
    for at, (fit, errs) in zip(sets[1:], rest):
        at.embed(fit, errs)


def _untraced(exc: BcvHelixError) -> BcvHelixError:
    """A fresh error of exc's class and message, never raised.

    It holds no traceback.  A stored raised error would keep the kernel's
    frames, and through them every array of the call, in a reference cycle
    until the cyclic collector runs.
    """
    return type(exc)(*exc.args)


def _first_error(rows) -> Optional[BcvHelixError]:
    """The first error of the rows of errors, in row-major order, or None."""
    for row in rows:
        for exc in row:
            if exc is not None:
                return exc
    return None


def _raise_first(rows):
    """Raise the first error of the rows of errors, in row-major order."""
    exc = _first_error(rows)
    if exc is not None:
        raise _untraced(exc)


def _failures(rows) -> dict:
    """The count of failed vertices of the rows of errors by error class, in name order."""
    counts = Counter(type(e).__name__ for row in rows for e in row if e is not None)
    return dict(sorted(counts.items()))


def _quad_form(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . g_k . b_k for each row k; per row the same operations as a @ g @ b."""
    return np.matmul(np.matmul(a[:, None, :], g), b[:, :, None])[:, 0, 0]


def _ambient(fn: Callable, space: BcvSpace, at: _RowPoints, tol: Tolerances) -> np.ndarray:
    """fn(space, p, tol), an ambient function of ``spaces``, in one call
    over the vertices inside the metric domain (``at.vertices`` itself when
    every vertex is), NaN at the others."""
    if not at.outside:
        return fn(space, at.vertices, tol)
    inside = np.delete(np.arange(len(at.vertices)), list(at.outside))
    values = fn(space, at.vertices[inside], tol)
    out = np.full((len(at.vertices),) + values.shape[1:], np.nan)
    out[inside] = values
    return out


def _degenerate(at: _RowPoints, bad: np.ndarray, errors: list, what: Callable[[int], str]):
    """DegenerateImmersion at each vertex k where bad[k], unless it holds an error."""
    for k in np.flatnonzero(bad):
        if errors[k] is None:
            errors[k] = DegenerateImmersion(f"{what(k)} at (u={at.us[k // at.nt]}, t={at.ts[k % at.nt]})")


def _first_order(space: BcvSpace, at: _RowPoints, tol: Tolerances):
    """First form, tangents and metric at every vertex of the rows,
    ((E, F, G, psi_u, psi_t, g), errors): a vertex outside the metric
    domain is NaN with its DomainError in ``errors`` (None elsewhere), and a
    vertex where EG - F^2 <= 0 holds DegenerateImmersion."""
    x, y = at.vertices[:, 0], at.vertices[:, 1]
    at.outside = domain_errors(space, x * x + y * y, tol)[1]
    errors: list = [None] * len(at.vertices)
    for k, exc in at.outside.items():
        errors[k] = exc
    psi_u = at.richardson("u", lambda p, s: (p(1, 0) - p(-1, 0)) / (2.0 * s))
    psi_t = at.richardson("t", lambda p, s: (p(0, 1) - p(0, -1)) / (2.0 * s))
    g = _ambient(metric_cartesian, space, at, tol)
    E, F, G = _quad_form(psi_u, g, psi_u), _quad_form(psi_u, g, psi_t), _quad_form(psi_t, g, psi_t)
    det = E * G - F * F
    _degenerate(at, det <= 0.0, errors, lambda k: f"EG - F^2 = {det[k]:.6e} <= 0")
    return (E, F, G, psi_u, psi_t, g), errors


@dataclass(frozen=True)
class LocalGeometry:
    """Extrinsic geometry measured along mesh rows (u fixed, one entry per t).

    Each field has shape (nt,) for one row u and (rows, nt) for an array of
    u; ``points`` and ``normal`` add a last axis of 3.  ``E, F, G`` and
    ``L, M, N`` are the first and second fundamental forms (the latter
    against the oriented unit ``normal``), ``H`` the trace and ``K`` the
    determinant of the shape operator.  ``K`` is extrinsic: the intrinsic
    Gaussian curvature adds the ambient sectional curvature of the tangent
    plane.  A vertex whose measurement failed holds NaN from the failing
    stage on, and ``errors`` holds its error (None elsewhere): one tuple for
    one row, one tuple per row for an array.
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

    def _rows(self) -> tuple:
        return self.errors if self.H.ndim == 2 else (self.errors,)

    def checked(self) -> "LocalGeometry":
        """These rows, after raising the error of the first failed vertex
        (in row-major order), if any."""
        _raise_first(self._rows())
        return self

    def failures(self) -> dict:
        """The count of failed vertices by error class, in name order."""
        return _failures(self._rows())


_GEOMETRY_SHAPES = ((3,), (3,)) + ((),) * 8  # trailing shapes of LocalGeometry's fields


def _normal(space: BcvSpace, at: _RowPoints, first: tuple, errors: list, tol: Tolerances, sign: float):
    """The unit normal sign * v / |v| at every vertex, with v = g^{-1}
    (psi_u x psi_t), the g-dual of the cross product, and |v| its g-norm;
    ``first`` is ``_first_order``'s values.  A vertex outside the metric
    domain is NaN, its error already in ``errors``; a vertex where |v|^2 is
    not positive and finite holds DegenerateImmersion."""
    psi_u, psi_t, g = first[3:]
    g_inv = _ambient(inverse_metric, space, at, tol)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.matmul(g_inv, np.cross(psi_u, psi_t)[:, :, None])[:, :, 0]
        norm_sq = _quad_form(v, g, v)
        n = sign * (v / np.sqrt(norm_sq)[:, None])
    _degenerate(at, ~(np.isfinite(norm_sq) & (norm_sq > 0.0)), errors, lambda k: "normal degenerates")
    return n


def _geometry(space: BcvSpace, at: _RowPoints, tol: Tolerances, sign: float):
    """The fields of ``LocalGeometry`` at every vertex of the rows, flat, and
    their errors."""
    first, errors = _first_order(space, at, tol)
    E, F, G, psi_u, psi_t, g = first
    n = _normal(space, at, first, errors, tol, sign)
    fc = at.vertices
    psi_uu = at.richardson("uu", lambda p, s: (p(1, 0) - 2.0 * p(0, 0) + p(-1, 0)) / (s * s))
    psi_tt = at.richardson("tt", lambda p, s: (p(0, 1) - 2.0 * p(0, 0) + p(0, -1)) / (s * s))
    psi_ut = at.richardson("ut", lambda p, s: (p(1, 1) - p(1, -1) - p(-1, 1) + p(-1, -1)) / (4.0 * s * s))
    gamma = _ambient(christoffels, space, at, tol)
    # with gn = g n and Cn_ij = gn_k Gamma^k_ij, a second-form entry is
    # g(d_ab psi + Gamma(d_a psi, d_b psi), n) = d_ab psi . gn + d_a psi . Cn . d_b psi
    gn = np.matmul(g, n[:, :, None])[:, :, 0]
    Cn = np.matmul(gn[:, None, :], gamma.reshape(-1, 3, 9)).reshape(-1, 3, 3)

    def second_form(da: np.ndarray, db: np.ndarray, dd: np.ndarray) -> np.ndarray:
        return np.matmul(dd[:, None, :], gn[:, :, None])[:, 0, 0] + _quad_form(da, Cn, db)

    L = second_form(psi_u, psi_u, psi_uu)
    M = second_form(psi_u, psi_t, psi_ut)
    N = second_form(psi_t, psi_t, psi_tt)
    det = E * G - F * F
    with np.errstate(invalid="ignore", divide="ignore"):
        H = (G * L - 2.0 * F * M + E * N) / det
        K = (L * N - M * M) / det
    failed = np.array([e is not None for e in errors])
    for arr in (L, M, N, H, K):
        arr[failed] = np.nan
    return (fc, n, E, F, G, L, M, N, H, K), errors


# the orientation probe's candidate rows, as fractions of the chart's u-range
_PROBE = np.array([0.5, 0.35, 0.65, 0.25, 0.75, 0.45, 0.55])


def _probe(chart: SurfaceChart, tol: Tolerances) -> list:
    """The orientation probe's row set (one vertex per candidate, at the
    middle of the t-range) in a list, or no set on a chart with a sign."""
    if chart._orient is not None:
        return []
    lo, hi = chart.u_range
    t_mid = np.array([0.5 * (chart.t_range[0] + chart.t_range[1])])
    return [_RowPoints(chart, lo + (hi - lo) * _PROBE, t_mid, tol, 2)]


def _orientation(space: BcvSpace, probe: _RowPoints, tol: Tolerances) -> float:
    """Sign making g(n, e_r) >= 0 at the first candidate of the fitted probe
    set (``_PROBE``, one vertex each at the middle of the t-range) where the
    radial pairing does not vanish, 1.0 if none.  A candidate counts where
    its point and normal are measured with no error, as ``_geometry``
    measures them (its stencils settle, the chart evaluates them, the metric
    is defined there, neither the first form nor the normal degenerates),
    and r >= r_min."""
    if not probe.rows.size:
        return 1.0
    first, errors = _first_order(space, probe, tol)
    normals = _normal(space, probe, first, errors, tol, 1.0)
    for p, n, g, exc in zip(probe.vertices, normals, first[5], errors):
        r = math.hypot(p[0], p[1])
        if exc is not None or r < tol.r_min:
            continue
        pairing = float(n @ g @ np.array([p[0] / r, p[1] / r, 0.0]))
        if abs(pairing) > 1e-8:
            return 1.0 if pairing >= 0 else -1.0
    return 1.0


def local_geometry(
    space: BcvSpace,
    chart: SurfaceChart,
    u,
    ts,
    tol: Tolerances = DEFAULT_TOL,
) -> LocalGeometry:
    """First and second fundamental forms, H and K along the row u (or rows), one entry per t.

    The embedding is differentiated numerically at every vertex and the
    second form is corrected by the ambient Christoffels; no structure of
    the chart is assumed.  ``u`` is one abscissa, or a 1-D numpy array of
    them (fields of shape (len(u), nt)); the input's type picks the shape.
    The chart is evaluated once per row and distinct stencil abscissa, in
    one query per component for all rows, the orientation probe's rows
    included on a chart not yet oriented; the stencils, metric,
    Christoffels, normals and forms run once over all vertices of all rows,
    per vertex in the same order as for one row.

    Each row's stencil steps are settled from the chart's domain
    (``_settle``) and each row is measured at its own steps.  A
    row where some stencil cannot fit, or where the chart refuses one of
    its abscissae inside its domain, holds that error on every vertex; for
    one row u it is raised.  A vertex outside the metric domain, or whose
    immersion degenerates, is NaN with its error in ``errors``.
    """
    ts = np.asarray(ts, dtype=float)
    at = _RowPoints(chart, np.array(u, dtype=float, ndmin=1), ts, tol, 2)
    probe = _probe(chart, tol)
    _fit(chart, at, *probe)
    values, errors = _curvature(space, chart, at, probe, tol)
    if isinstance(u, np.ndarray):
        return LocalGeometry(*values, errors)
    _raise_first([at.refused])
    return LocalGeometry(*(value[0] for value in values), errors[0])


def _curvature(space: BcvSpace, chart: SurfaceChart, at: _RowPoints, probe: list, tol: Tolerances):
    """``LocalGeometry``'s values and errors on the fitted rows ``at``,
    after the fitted ``probe`` (from ``_probe``), if any, set the chart's
    orientation."""
    if probe:
        chart._orient = _orientation(space, probe[0], tol)
    return at.measure(lambda: _geometry(space, at, tol, chart._orient), _GEOMETRY_SHAPES)


def _form_rows(chart: SurfaceChart, us, ts, tol: Tolerances) -> _RowPoints:
    """The first-form rows of the grid us x ts, to fit."""
    return _RowPoints(chart, np.asarray(us, dtype=float), np.asarray(ts, dtype=float), tol, 1)


def _form(space: BcvSpace, at: _RowPoints, tol: Tolerances):
    """(E, F, G) on the fitted first-form rows ``at``, shape (rows, nt, 3),
    or the untraced error of the first vertex that fails, in row-major order."""
    forms, errors = at.measure(lambda: _first_order(space, at, tol), ((),) * 3)  # E, F, G
    exc = _first_error(errors)
    return np.stack(forms, axis=-1) if exc is None else _untraced(exc)


def first_form_grid(
    space: BcvSpace,
    chart: SurfaceChart,
    us,
    ts,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """(E, F, G) measured on the grid us x ts, shape (len(us), len(ts), 3).

    One kernel call for all rows, as in ``local_geometry`` with an array of
    u, and the same DegenerateImmersion where EG - F^2 <= 0; raises the
    error of the first vertex that fails, in row-major order.
    """
    at = _form_rows(chart, us, ts, tol)
    _fit(chart, at)
    form = _form(space, at, tol)
    if isinstance(form, BcvHelixError):
        raise form
    return form


def first_forms(space: BcvSpace, chart: SurfaceChart, grids, tol: Tolerances = DEFAULT_TOL) -> list:
    """``first_form_grid`` on each grid (us, ts) of ``grids``, or its
    untraced error, in one chart query for all of them."""
    sets = [_form_rows(chart, us, ts, tol) for us, ts in grids]
    if sets:
        _fit(chart, *sets)
    return [_form(space, at, tol) for at in sets]


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
    The stacked finite-difference error budgets the 1e-4 tolerance.  A
    failed vertex of the stencil raises its own error class, with its place.
    """
    h = tol.brioschi_step
    steps = (np.arange(5) - 2) * h
    try:
        grid = first_form_grid(space, chart, u + steps, t + steps, tol)
    except BcvHelixError as exc:
        raise type(exc)(f"Brioschi stencil at (u={u}, t={t}): {exc}")
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
    det = E * G - F * F  # positive: first_form_grid raised at the centre otherwise
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det * det))


def shared_grid(
    chart_a: SurfaceChart,
    chart_b: SurfaceChart,
    grid: tuple[int, int] = (21, 9),
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """(us, ts) of the uniform grid on the (u, t) rectangle two charts share,
    a margin inside their u-ranges; EmptyDomain if that rectangle is empty.
    The margin is max(1e-6, the last of ``halving_steps`` from fd_first down
    to fd_min), so a u-stencil fits the end rows whatever fd_min is."""
    margin = max(1e-6, [*halving_steps(tol.fd_first, tol.fd_min)][-1])
    u_lo = max(chart_a.u_range[0], chart_b.u_range[0]) + margin
    u_hi = min(chart_a.u_range[1], chart_b.u_range[1]) - margin
    t_lo = max(chart_a.t_range[0], chart_b.t_range[0])
    t_hi = min(chart_a.t_range[1], chart_b.t_range[1])
    if not (u_lo < u_hi and t_lo < t_hi):
        raise EmptyDomain(f"charts share no (u, t) parameter rectangle {margin:g} inside their u-ranges")
    nu, nt = grid
    return np.linspace(u_lo, u_hi, nu), np.linspace(t_lo, t_hi, nt)


def pair_grids(
    charts: list, grid: tuple[int, int] = (21, 9), tol: Tolerances = DEFAULT_TOL
) -> tuple[list, dict]:
    """(grids, pairs) of the pairs of charts: pairs[i, j] (i < j, in the
    order of ``itertools.combinations``) is the key of the pair's
    ``shared_grid``, its ends (us[0], us[-1], ts[0], ts[-1]), or the
    untraced error ``shared_grid`` raised; grids[k] maps the key of each
    distinct shared grid of chart k to the grid (us, ts)."""
    grids: list = [{} for _ in charts]
    pairs: dict = {}
    for i, j in itertools.combinations(range(len(charts)), 2):
        try:
            us, ts = shared_grid(charts[i], charts[j], grid, tol)
        except BcvHelixError as exc:
            pairs[i, j] = _untraced(exc)
            continue
        key = pairs[i, j] = (us[0], us[-1], ts[0], ts[-1])
        for k in (i, j):
            grids[k].setdefault(key, (us, ts))
    return grids, pairs


def pair_matrix(forms: list, pairs: dict) -> tuple[list, dict]:
    """``isometry_matrix``'s (matrix, errors) of the ``pair_grids`` pairs,
    from each chart's first forms: forms[k] maps the key of each shared
    grid of chart k to its first form there, or its untraced error.  A
    pair's error is that of its shared grid, else that of its first chart's
    form, else that of its second's."""
    n = len(forms)
    matrix = [[0.0 if i == j else None for j in range(n)] for i in range(n)]
    errors: dict = {}
    for (i, j), key in pairs.items():
        found = [key] if isinstance(key, BcvHelixError) else [forms[i][key], forms[j][key]]
        exc = next((f for f in found if isinstance(f, BcvHelixError)), None)
        if exc is not None:
            errors[i, j] = _untraced(exc)
        else:
            matrix[i][j] = matrix[j][i] = float(np.max(np.abs(found[0] - found[1])))
    return matrix, errors


def isometry_matrix(
    space: BcvSpace, charts: list, grid: tuple[int, int] = (21, 9), tol: Tolerances = DEFAULT_TOL
) -> tuple[list, dict]:
    """(matrix, errors): matrix[i][j] is the max componentwise difference of
    the first forms of charts i and j on their ``shared_grid``, 0.0 on the
    diagonal, and None for a pair that cannot be measured, whose untraced
    error is errors[i, j] (i < j).  Each chart's first form is measured once
    per distinct shared grid (``first_form_grid``), be it measured or
    failed, and the pairs are read by ``pair_matrix``."""
    grids, pairs = pair_grids(charts, grid, tol)
    forms = []
    for chart, mine in zip(charts, grids):
        forms.append({})
        for key, (us, ts) in mine.items():
            try:
                forms[-1][key] = first_form_grid(space, chart, us, ts, tol)
            except BcvHelixError as exc:
                forms[-1][key] = _untraced(exc)
    return pair_matrix(forms, pairs)


def isometry_deviation(
    space: BcvSpace,
    chart_a: SurfaceChart,
    chart_b: SurfaceChart,
    grid: tuple[int, int] = (21, 9),
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Max componentwise first-form difference over the shared (u, t) grid:
    the two-chart ``isometry_matrix``, raising the pair's error."""
    matrix, errors = isometry_matrix(space, [chart_a, chart_b], grid, tol)
    _raise_first([errors.values()])
    return matrix[0][1]


@dataclass
class MeshGrid:
    """Sampled surface with per-vertex diagnostics.

    ``vertices`` has one row per (u, t) grid node in row-major u-then-t
    order; rows whose u failed chart evaluation are NaN and listed in
    ``dropped_rows``.  ``h_ext`` is the extrinsic mean curvature at each
    vertex, and ``diagnostic_failures`` counts the vertices of the other
    rows whose diagnostics failed, by error class: a row whose stencil
    cannot fit, or where the chart refuses a stencil abscissa, counts that
    error on every vertex.  A measured NaN ``h_ext`` means failed.  A mesh
    sampled with ``with_curvature=False`` measured nothing: ``h_ext`` is all
    NaN and ``diagnostic_failures`` is empty.  ``first_forms`` holds the
    first form on each grid the mesh was sampled with, as
    ``first_form_grid`` measures it, or its untraced error.
    """

    nu: int
    nt: int
    us: np.ndarray
    ts: np.ndarray
    vertices: np.ndarray
    h_ext: np.ndarray
    dropped_rows: list = field(default_factory=list)
    diagnostic_failures: dict = field(default_factory=dict)
    first_forms: list = field(default_factory=list)

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
    grids=(),
) -> MeshGrid:
    """Uniform mesh over the chart's (u, t) rectangle with diagnostics, and
    the first forms on ``grids``, a sequence of grids (us, ts).

    The chart is read once: one query (``_fit``) over the rows' own
    abscissae, the stencils of the curvature rows and the orientation
    probe on a chart with no sign yet (with ``with_curvature``), and the
    first-form rows of each grid.  The vertices of all rows are then one
    ``embed``.  The extrinsic mean curvature of each vertex is measured as
    ``local_geometry`` measures the rows whose u the chart accepts, and each
    grid's first form as ``first_form_grid`` measures it.  Rows at invalid
    u are dropped, not clamped.  With ``with_curvature=False`` no curvature
    is measured: ``h_ext`` is NaN because nothing was measured, not because
    a measurement failed, and ``diagnostic_failures`` is empty.
    """
    if nu < 2 or nt < 2:
        raise ValueError("nu and nt must both be >= 2")
    us = np.linspace(chart.u_range[0], chart.u_range[1], nu)
    ts = np.linspace(chart.t_range[0], chart.t_range[1], nt)
    vertices = np.full((nu, nt, 3), np.nan)
    h_ext = np.full((nu, nt), np.nan)
    failures: dict = {}
    rows = _Vertices(us)
    at = [_RowPoints(chart, us, ts, tol, 2)] if with_curvature else []
    probe = _probe(chart, tol) if with_curvature else []
    forms = [_form_rows(chart, grid_us, grid_ts, tol) for grid_us, grid_ts in grids]
    _fit(chart, rows, *at, *probe, *forms)
    kept = [i for i, exc in enumerate(rows.errors) if exc is None]
    dropped = [i for i, exc in enumerate(rows.errors) if exc is not None]
    vertices[kept] = chart.embed(*(column[kept] for column in rows.columns), ts)
    if at and kept:
        # a dropped row's curvature row holds the chart's refusal: it is not counted
        values, errors = _curvature(space, chart, at[0], probe, tol)
        geo = LocalGeometry(*values, errors)
        h_ext[kept] = geo.H[kept]
        failures = _failures(geo.errors[i] for i in kept)
    return MeshGrid(
        nu=nu,
        nt=nt,
        us=us,
        ts=ts,
        vertices=vertices.reshape(-1, 3),
        h_ext=h_ext.ravel(),
        dropped_rows=dropped,
        diagnostic_failures=failures,
        first_forms=[_form(space, at, tol) for at in forms],
    )
