"""Shared numerical kernels.

One quadrature kernel, CumulativeQuadrature: an antiderivative-style
G7/K15 Gauss-Kronrod rule over fixed cells with panel caching, behind every
chart antiderivative and gauge.  Its cells live in one one-directional
half-line from u0 outward; the side below u0 is the same half-line over the
mirror image f(-x).  Filled cells enter their final leaves into a flat
table; a query reads the entry of the leaf that holds u, found by bisection,
and adds the prefix sum of whole cells before it to the leaf's dense output:
the integral of the degree-14 interpolant of the 15 samples the leaf's K15
panel already took, so a query on a filled cell calls no integrand.  A 1-D
array of u is served by one searchsorted and one recurrence over the array,
with the scalar query's values bit for bit.  One Richardson difference
kernel behind every finite difference, and one bisection loop behind the
outward interval scan that locates domain endpoints.  All kernels are
deterministic: identical inputs give bit-identical outputs, and a
CumulativeQuadrature value does not depend on which abscissae were queried
before it.

CumulativeQuadrature stops refining a cell at the integrand's rounding floor
(QUADPACK's roundoff test, see ``_ROUNDOFF_RATIO``).  A leaf kept that way
carries its honest K15/G7 estimate, which may exceed its share of the
tolerance: it measures the integrand's noise, not a shortfall that more
panels would remove.  The test cannot tell noise from a singularity, so a
singular or divergent integrand is accepted the same way, without error.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BcvHelixError, QuadratureFailure, StencilOutOfDomain

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SmoothFunction",
    "CumulativeQuadrature",
    "richardson",
    "diff_central",
    "scan_interval",
]


@dataclass(frozen=True)
class Tolerances:
    """One tolerance configuration threaded through all modules.

    The defaults are what every stated acceptance tolerance assumes.  The
    derivative steps balance the O(h^4) truncation of one Richardson level
    against the rounding error eps/h (first) and eps/h^2 (second derivatives).
    """

    quad_abs: float = 1e-10          # cumulative quadrature absolute tolerance
    fd_first: float = 3e-4           # step for first derivatives, ~eps^(1/5)
    fd_second: float = 3e-3          # step for second derivatives, ~eps^(1/6)
    fd_min: float = 1e-7             # smallest step before StencilOutOfDomain
    brioschi_step: float = 2e-2      # step for the intrinsic-curvature stencil
    arclength: float = 1e-6          # per-sample arc-length residual gate
    radicand_clamp: float = 1e-12    # negative radicands above -clamp become 0
    domain_margin: float = 1e-9      # B below this counts as out of domain
    bisect: float = 1e-10            # endpoint location tolerance
    case_band: float = 1e-9          # CMC case-boundary band
    r_min: float = 1e-6              # cylindrical-axis guard for invertibility


DEFAULT_TOL = Tolerances()


# 7-point Gauss / 15-point Kronrod node-weight pairs on [-1, 1] (QUADPACK dqk15).
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, list[float]]:
    """One G7/K15 application on [lo, hi]: (K15 value, |K15-G7| estimate,
    the 15 samples of f in the order of ``_NODES``)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fc = f(mid)
    samples = [fc]
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = half * _XGK[i]
        fl, fr = f(mid - x), f(mid + x)
        samples += (fl, fr)
        fsum = fl + fr
        kron += _WGK[i] * fsum
        if i % 2 == 1:  # K15 odd indices are the G7 nodes
            gauss += _WG[i // 2] * fsum
    return kron * half, abs((kron - gauss) * half), samples


# The K15 nodes and weights on [-1, 1] in the order _kronrod_panel samples
# f, and the 16 x 15 map from those samples to the Legendre coefficients of
# the antiderivative (zero at -1) of their degree-14 interpolant.  K15 is
# interpolatory, so that antiderivative at +1 is the panel's K15 value; the
# tabulated nodes and weights carry 15 digits, and a term (P_0 + P_1) / 2 per
# sample, zero at -1 and of size 1e-15, makes it so to rounding.
_NODES = (0.0,) + tuple(s * x for x in _XGK[:7] for s in (-1.0, 1.0))
_WEIGHTS = (_WGK[7],) + tuple(w for w in _WGK[:7] for _ in range(2))
_ANTIDERIVATIVE = np.polynomial.legendre.legint(
    np.linalg.inv(np.polynomial.legendre.legvander(np.array(_NODES), 14)), lbnd=-1.0
)
_ANTIDERIVATIVE[:2] += 0.5 * (np.array(_WEIGHTS) - _ANTIDERIVATIVE.sum(axis=0))


# (2k - 1) / k and (k - 1) / k of P_k = ((2k - 1) s P_{k-1} - (k - 1) P_{k-2}) / k
_LEGENDRE_STEPS = tuple(((2 * k - 1) / k, (k - 1) / k) for k in range(2, 16))


def _legendre_series(coef, s):
    """sum_k coef[k] P_k(s), k < 16, by the three-term recurrence of the P_k.

    Scalar s with a list of 16 coefficients, or an array s with a (16, len(s))
    array of them: the same operations in the same order, elementwise."""
    p_prev, p = 1.0, s
    total = coef[0] + coef[1] * s
    for c, (a, b) in zip(coef[2:], _LEGENDRE_STEPS):
        p_prev, p = p, a * s * p - b * p_prev
        total += c * p
    return total


# QUADPACK's roundoff test (dqagse): once the two halves of a bisected panel
# estimate at least this share of the whole panel's error, the estimate is
# rounding noise and further bisection buys nothing.
_ROUNDOFF_RATIO = 0.99


class _Leaf:
    """A cached cumulative-quadrature cell: either a K15 value or two halves.

    A final leaf keeps its panel's samples and, once a query reads it, the
    Legendre coefficients of their interpolant's antiderivative."""

    __slots__ = ("lo", "hi", "value", "err", "children", "samples", "dense")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        self.value: Optional[float] = None
        self.err = 0.0
        self.children: Optional[tuple["_Leaf", "_Leaf"]] = None
        self.samples: Optional[list[float]] = None
        self.dense: Optional[list[float]] = None

    def coefficients(self) -> list[float]:
        if self.dense is None:
            self.dense = (_ANTIDERIVATIVE @ self.samples).tolist()
        return self.dense


class _HalfLine:
    """The cells of [u0, hi] of a CumulativeQuadrature and the queries from u0
    outward; ``per_unit`` is the budget per unit length of both sides.

    Cells fill left to right, and each filled cell appends its final leaves
    to a flat table, so the table only grows.  ``his[k]`` is the right edge
    of table leaf k and ``rows[k]`` is (leaf, pre, desc, edge): the leaf,
    the prefix sum of the whole cells before its cell, the sum of the whole
    leaves of its cell left of it, and the cell's left edge for the cell's
    first leaf (NaN for the others, which no u equals)."""

    def __init__(self, f, u0, hi, per_unit, abs_tol, cell_width, max_depth):
        self.f = f
        self.per_unit = per_unit
        self.abs_tol = abs_tol
        self.max_depth = max_depth
        self.rounding_stops = 0
        n = max(1, math.ceil((hi - u0) / cell_width)) if hi > u0 else 0
        self.cells = [
            _Leaf(u0 + (hi - u0) * i / n, u0 + (hi - u0) * (i + 1) / n) for i in range(n)
        ]
        # prefix[i] is the sum of the first i cell values, added left to right
        self.prefix = [0.0]
        self.his: list[float] = []
        self.rows: list[tuple] = []
        self._columns: Optional[tuple] = None  # ``rows`` as arrays, see _table

    def _ensure(
        self, leaf: _Leaf, depth: int = 0, panel: Optional[tuple[float, float, list]] = None
    ) -> float:
        # ``panel`` is the cell's K15 (value, estimate, samples) when the
        # parent has already computed it, so no panel is evaluated twice.
        if leaf.value is not None:
            return leaf.value
        val, err, samples = panel or _kronrod_panel(self.f, leaf.lo, leaf.hi)
        floor = max(self.per_unit * (leaf.hi - leaf.lo), 1e-3 * self.abs_tol)
        if err > floor and err > 1e-16 * abs(val):
            if depth >= self.max_depth:
                raise QuadratureFailure(
                    f"cell [{leaf.lo}, {leaf.hi}] not converging (err {err:.3e})"
                )
            mid = 0.5 * (leaf.lo + leaf.hi)
            left, right = _Leaf(leaf.lo, mid), _Leaf(mid, leaf.hi)
            lp = _kronrod_panel(self.f, leaf.lo, mid)
            rp = _kronrod_panel(self.f, mid, leaf.hi)
            if lp[1] + rp[1] >= _ROUNDOFF_RATIO * err:
                # halving did not lower the estimate: it is rounding noise of
                # the integrand, so the halves are kept as they are
                left.value, left.err, left.samples = lp
                right.value, right.err, right.samples = rp
                val = lp[0] + rp[0]
                self.rounding_stops += 1
            else:
                val = self._ensure(left, depth + 1, lp) + self._ensure(right, depth + 1, rp)
            err = left.err + right.err
            leaf.children = (left, right)
        else:
            leaf.samples = samples
        leaf.err = err
        leaf.value = val
        return val

    def _tabulate(self, leaf: _Leaf, pre: float, desc: float, edge: float):
        # the final leaves of a filled cell, left to right; desc adds the
        # whole leaves left of each one in the order of a descent from the cell
        if leaf.children is not None:
            left, right = leaf.children
            self._tabulate(left, pre, desc, edge)
            self._tabulate(right, pre, desc + left.value, math.nan)
            return
        self.his.append(leaf.hi)
        self.rows.append((leaf, pre, desc, edge))

    def _fill(self, u: float):
        # Fill cells until one ends beyond u or none is left.  A cell is
        # refined whole before any query reads it, so a value does not
        # depend on which queries came before.
        while len(self.prefix) <= len(self.cells) and (not self.his or self.his[-1] <= u):
            cell = self.cells[len(self.prefix) - 1]
            pre = self.prefix[-1]
            self.prefix.append(pre + self._ensure(cell))
            self._tabulate(cell, pre, 0.0, cell.lo)

    def __call__(self, u: float) -> float:
        """The integral of f from u0 to u, for u0 < u <= hi."""
        self._fill(u)
        k = bisect.bisect_right(self.his, u)
        if k == len(self.his):  # u at hi, past the last leaf
            return self.prefix[-1]
        leaf, pre, desc, edge = self.rows[k]
        if u == edge:
            return pre
        half = 0.5 * (leaf.hi - leaf.lo)
        s = (u - 0.5 * (leaf.hi + leaf.lo)) / half
        return pre + (desc + half * _legendre_series(leaf.coefficients(), s))

    def _table(self) -> tuple:
        # (his, mid, half, pre, desc, edge, dense) as arrays, dense of shape
        # (16, leaves); rebuilt when cells were filled since the last call
        if self._columns is None or len(self._columns[0]) != len(self.his):
            leaves, pre, desc, edge = zip(*self.rows)
            his, los = np.array(self.his), np.array([leaf.lo for leaf in leaves])
            self._columns = (
                his, 0.5 * (his + los), 0.5 * (his - los), np.array(pre), np.array(desc),
                np.array(edge), np.array([leaf.coefficients() for leaf in leaves]).T.copy(),
            )
        return self._columns

    def values(self, us: np.ndarray) -> np.ndarray:
        """``__call__`` over a 1-D array of u in (u0, hi], bit for bit."""
        if us.size == 0:
            return us.copy()
        self._fill(float(us.max()))
        his, mid, half, pre, desc, edge, dense = self._table()
        k = np.searchsorted(his, us, side="right")
        past = k == len(his)
        k[past] = len(his) - 1
        half_k, pre_k = half[k], pre[k]
        out = pre_k + (desc[k] + half_k * _legendre_series(dense[:, k], (us - mid[k]) / half_k))
        out = np.where(us == edge[k], pre_k, out)
        out[past] = self.prefix[-1]
        return out


class CumulativeQuadrature:
    """Antiderivative F(u) = int_{u0}^{u} f with panel caching.

    The interval around ``u0`` is covered by fixed cells; each cell holds one
    K15 value (refined by static bisection where the G7/K15 estimate exceeds
    its share of the budget).  A query fills the cells from u0 up to u once,
    left to right, and each filled cell enters its final leaves into a flat
    table.  The value at u is read from the table entry of the leaf that
    holds u (found by bisection on the leaf edges): the prefix sum of the
    whole cells before u (added left to right, whatever the query order),
    plus the whole leaves of u's cell left of u, plus the leaf's dense
    output: the integral from the leaf's edge to u of the degree-14
    interpolant of its 15 K15 samples.  That makes no integrand call.  K15
    is interpolatory, so the interpolant's integral over a whole leaf is the
    leaf's K15 value up to rounding: F is a polynomial inside each leaf and
    continuous across leaf edges to a few ulps, and finite differences of F
    recover f without cache-boundary noise.  Thread-safe; values are
    deterministic, so racing writes are benign and guarded anyway.

    Both sides of u0 are one half-line: f on [u0, hi], and its mirror image
    f(-x) on [-u0, -lo] with F(u) = 0.0 - left(-u) below u0 (so an
    antiderivative that is exactly zero is +0.0 on both sides).  Negation is
    exact, so the left side's nodes, panels and sums are those of a walk from
    u0 to lo.

    Rounding stop: a cell whose two halves do not lower the summed estimate
    below ``_ROUNDOFF_RATIO`` of its own is split once more and not further;
    each half keeps its value and estimate, so a leaf's ``err`` is then an
    estimate of rounding noise above the leaf's share of the budget.
    ``rounding_stops`` counts the cells accepted this way.

    Array queries: a 1-D numpy array of u, in any order and with repeats,
    gives the array of values, each bit for bit the scalar query's.  The
    cells are filled up to the largest |u - u0| on each side, and the whole
    array is then one ``searchsorted`` on the leaf edges, one gather from the
    table and the 16-term recurrence over the array.  Any other u is a
    scalar query, which keeps the per-value path: numpy's overhead would
    outweigh one point.
    """

    def __init__(
        self,
        f: Callable[[float], float],
        u0: float,
        lo: float,
        hi: float,
        abs_tol: float = DEFAULT_TOL.quad_abs,
        cell_width: float = 0.05,
        max_depth: int = 42,
    ):
        if not (lo <= u0 <= hi):
            raise ValueError(f"u0={u0} outside [{lo}, {hi}]")
        self.u0 = u0
        self.lo = lo
        self.hi = hi
        self._lock = threading.Lock()
        per_unit = abs_tol / max(hi - u0, u0 - lo, cell_width)
        self._right = _HalfLine(f, u0, hi, per_unit, abs_tol, cell_width, max_depth)
        self._left = _HalfLine(lambda x: f(-x), -u0, -lo, per_unit, abs_tol, cell_width, max_depth)

    @property
    def rounding_stops(self) -> int:
        return self._right.rounding_stops + self._left.rounding_stops

    def __call__(self, u):
        if isinstance(u, np.ndarray):
            return self._column(u)
        u = float(u)
        if u == self.u0:
            return 0.0
        eps = 1e-12 * max(1.0, abs(self.hi), abs(self.lo))
        if not (self.lo - eps <= u <= self.hi + eps):
            raise ValueError(f"u={u} outside cumulative domain [{self.lo}, {self.hi}]")
        u = min(max(u, self.lo), self.hi)
        with self._lock:
            return self._right(u) if u > self.u0 else 0.0 - self._left(-u)

    def _column(self, us: np.ndarray) -> np.ndarray:
        if us.ndim != 1:
            raise ValueError(f"array queries take a 1-D array, got shape {us.shape}")
        us = us.astype(float)
        eps = 1e-12 * max(1.0, abs(self.hi), abs(self.lo))
        outside = ~((self.lo - eps <= us) & (us <= self.hi + eps))
        if outside.any():
            raise ValueError(
                f"u={us[outside][0]} outside cumulative domain [{self.lo}, {self.hi}]"
            )
        us = np.minimum(np.maximum(us, self.lo), self.hi)
        right, left = us > self.u0, us < self.u0
        out = np.zeros_like(us)  # u == u0 gives 0.0
        with self._lock:
            out[right] = self._right.values(us[right])
            out[left] = 0.0 - self._left.values(-us[left])
        return out


def richardson(d: Callable[[float], float], h: float, h_min: Optional[float] = None):
    """One Richardson level (4 d(h/2) - d(h)) / 3 of a difference quotient d.

    d(h) is evaluated before d(h/2); scalar and array values both work.
    Without h_min, errors raised by ``d`` propagate.  With h_min, a
    BcvHelixError halves h and retries, and StencilOutOfDomain is raised once
    h would fall below h_min.
    """
    while True:
        try:
            d_h = d(h)
            return (4.0 * d(0.5 * h) - d_h) / 3.0
        except BcvHelixError:
            if h_min is None:
                raise
            h *= 0.5
            if h < h_min:
                raise StencilOutOfDomain(
                    f"difference stencil cannot fit the domain above h_min={h_min}"
                )


def diff_central(
    f: Callable[[float], float],
    x: float,
    order: int = 1,
    h: float = DEFAULT_TOL.fd_first,
    h_min: Optional[float] = None,
):
    """Central difference of order 1 or 2 with one Richardson level, O(h^4).

    ``f`` may be scalar- or array-valued.  Order 2 evaluates f(x) once,
    first.  ``h_min`` enables stencil shrinking (see ``richardson``).
    """
    if order == 1:
        return richardson(lambda s: (f(x + s) - f(x - s)) / (2.0 * s), h, h_min)
    if order == 2:
        fc = f(x)
        return richardson(lambda s: (f(x + s) - 2.0 * fc + f(x - s)) / (s * s), h, h_min)
    raise ValueError(f"order must be 1 or 2, got {order}")


def _bisect(same: Callable[[float], bool], a: float, b: float, tol: float) -> tuple[float, float]:
    """Halve the segment between a (where ``same`` holds) and b (where it
    does not) until it is at most tol wide; a stays on the holding side."""
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if same(mid):
            a = mid
        else:
            b = mid
    return a, b


def scan_interval(
    pred: Callable[[float], bool],
    anchor: float,
    window: tuple[float, float],
    step: float,
    tol: float,
) -> tuple[float, float]:
    """Maximal interval around ``anchor`` inside ``window`` where pred holds.

    Walks outward from anchor (where pred must hold) in steps of ``step``,
    clipped to the window, and bisects the first failing step down to tol.
    Each endpoint is a window edge or a point where pred holds, within tol of
    the flip, so downstream evaluation never lands outside.
    """

    def walk(edge: float, sign: float) -> float:
        u = anchor
        while sign * (edge - u) > 0.0:
            nxt = u + sign * step
            nxt = min(nxt, edge) if sign > 0.0 else max(nxt, edge)
            if not pred(nxt):
                return _bisect(pred, u, nxt, tol)[0]
            u = nxt
        return edge

    right = walk(window[1], 1.0)
    return walk(window[0], -1.0), right


class SmoothFunction:
    """A scalar function of one variable with first and second derivatives.

    Analytic derivatives are used when supplied; otherwise central finite
    differences with the documented default steps fill in.  All closed-form
    solution families supply analytic derivatives.
    """

    def __init__(
        self,
        f: Callable[[float], float],
        df: Optional[Callable[[float], float]] = None,
        d2f: Optional[Callable[[float], float]] = None,
    ):
        self.f = f
        self._df = df
        self._d2f = d2f

    def __call__(self, u: float) -> float:
        return self.f(u)

    def deriv(self, u: float) -> float:
        if self._df is not None:
            return self._df(u)
        return diff_central(self.f, u, order=1, h=DEFAULT_TOL.fd_first)

    def second(self, u: float) -> float:
        if self._d2f is not None:
            return self._d2f(u)
        if self._df is not None:
            return diff_central(self._df, u, order=1, h=DEFAULT_TOL.fd_second)
        return diff_central(self.f, u, order=2, h=DEFAULT_TOL.fd_second)

    @classmethod
    def wrap(cls, f) -> "SmoothFunction":
        return f if isinstance(f, SmoothFunction) else cls(f)
