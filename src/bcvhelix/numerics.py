"""Shared numerical kernels.

One quadrature kernel, CumulativeQuadrature: an antiderivative-style
G7/K15 Gauss-Kronrod rule over fixed cells with panel caching, behind every
chart antiderivative and gauge.  Its cells live in one one-directional
half-line from u0 outward; the side below u0 is the same half-line over the
mirror image f(-x).  The first query of a half-line grows the trees of all
its cells at once: one array call of the integrand at the K15 nodes of every
cell, then one call per refinement level at the nodes of the panels that
level needs.  A failed node is kept with its cell and raised when a query
reaches that cell.  Filled cells enter their final leaves into a flat table;
a query reads the entry of the leaf that holds u, found by bisection, and
adds the prefix sum of whole cells before it to the leaf's dense output: the
integral of the degree-14 interpolant of the 15 samples the leaf's K15 panel
already took, so a query on a filled cell calls no integrand.  A 1-D array
of u is served by one searchsorted and one recurrence over the array, with
the scalar query's values bit for bit.  One Richardson difference kernel
behind every finite difference, and one outward interval scan, which
evaluates its walk in one array call and bisects the flip on floats, behind
every domain endpoint.  All kernels are deterministic: identical inputs give
bit-identical outputs, and a CumulativeQuadrature value does not depend on
which abscissae were queried before it.

Formulas written once for a float and for an array take the operations
``xp`` they run with: ``SCALAR`` on one float, where a failed check raises,
or an ``ArrayOps`` over a 1-D array, which records the failed points
instead; the caller evaluates those again as floats, which raises the
float path's error.  Both do the same IEEE operations in the same order, so
every array element is bit for bit the float result.  Transcendental
functions go through ``elementwise``, math's function per element: numpy's
exp, cosh, sinh and log differ from math's in the last bit on some hosts.

CumulativeQuadrature stops refining a cell at the integrand's rounding floor
(QUADPACK's roundoff test, see ``_ROUNDOFF_RATIO``).  A leaf kept that way
carries its honest K15/G7 estimate, which may exceed its share of the
tolerance: it measures the integrand's noise, not a shortfall that more
panels would remove.  The test cannot tell noise from a singularity, so a
singular or divergent integrand is accepted the same way, without error.
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BcvHelixError, QuadratureFailure, StencilOutOfDomain

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SCALAR",
    "ArrayOps",
    "ops_for",
    "elementwise",
    "SmoothFunction",
    "ArrayFunction",
    "Integrand",
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


# "Invalid point" means one of these: anything else is a bug and propagates.
MATH_ERRORS = (BcvHelixError, ArithmeticError, ValueError)


class _ScalarOps:
    """The operations of a formula written once, on one float: math's
    functions, and a check that fails raises (``if xp.fails(c): raise ...``)."""

    sqrt = staticmethod(math.sqrt)
    isfinite = staticmethod(math.isfinite)
    maximum = staticmethod(max)
    not_ = staticmethod(operator.not_)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def fails(cond) -> bool:
        return cond

    @staticmethod
    def checked(value):
        return value


SCALAR = _ScalarOps()


class ArrayOps:
    """The same operations elementwise over 1-D arrays, each element bit for
    bit the float operation's.  A failed check raises nothing: ``fails``
    records its points in ``failed`` and returns False, so the formula runs
    on over every point, and the values at failed points mean nothing."""

    sqrt = staticmethod(np.sqrt)
    isfinite = staticmethod(np.isfinite)
    not_ = staticmethod(np.logical_not)
    where = staticmethod(np.where)

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)

    @staticmethod
    def maximum(a, b):
        # Python's max(a, b): a unless b > a
        return np.where(b > a, b, a)

    def fails(self, cond) -> bool:
        self.failed |= cond
        return False

    def checked(self, values):
        """values with NaN at the failed points."""
        return np.where(self.failed, np.nan, values)


def ops_for(u):
    """SCALAR for a float u, a fresh ArrayOps for a 1-D array."""
    return ArrayOps(u.size) if isinstance(u, np.ndarray) else SCALAR


def _or_nan(fn, x):
    try:
        return fn(x)
    except MATH_ERRORS:
        return math.nan


def elementwise(fn: Callable[[float], float]) -> Callable:
    """fn, a function of one float, on a float or elementwise on a 1-D array.

    Each array element is fn's own result for that float, and NaN where fn
    raises a mathematical error; any other error propagates."""

    @functools.wraps(fn)
    def apply(x):
        if not isinstance(x, np.ndarray):
            return fn(x)
        values = x.tolist()
        try:
            return np.fromiter(map(fn, values), float, len(values))
        except MATH_ERRORS:
            return np.array([_or_nan(fn, v) for v in values], dtype=float)

    return apply


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


class Integrand:
    """Integrands evaluated together at a 1-D array of abscissae.

    ``batch(xs)`` returns ``(values, failed)``, both of shape (k, len(xs)),
    for the k components.  A failed node is one the batch does not vouch
    for: its value is ``scalars[j](x)``, the float integrand of component j,
    which raises the node's error if it has one.  ``batch`` turns only
    mathematical failures (``MATH_ERRORS``) into failed nodes; anything else
    propagates from it at once.
    """

    def __init__(self, batch: Callable, scalars: Sequence[Callable[[float], float]]):
        self.batch = batch
        self.scalars = tuple(scalars)

    @classmethod
    def of(cls, f) -> "Integrand":
        """f if it is an Integrand, else the float integrand f node by node."""
        if isinstance(f, Integrand):
            return f

        def batch(xs: np.ndarray):
            values = np.zeros((1, xs.size))
            failed = np.zeros((1, xs.size), dtype=bool)
            for i, x in enumerate(xs.tolist()):
                try:
                    values[0, i] = f(x)
                except MATH_ERRORS:
                    failed[0, i] = True
            return values, failed

        return cls(batch, (f,))

    def mirrored(self) -> "Integrand":
        """The integrands of -x (negation is exact)."""
        return Integrand(
            lambda xs: self.batch(-xs), [lambda x, g=g: g(-x) for g in self.scalars]
        )


# The K15 nodes and weights on [-1, 1] in the order a panel samples f (the
# centre, then -x and +x for each node x of _XGK), and the 16 x 15 map from
# those samples to the Legendre coefficients of the antiderivative (zero at
# -1) of their degree-14 interpolant.  K15 is interpolatory, so that
# antiderivative at +1 is the panel's K15 value; the tabulated nodes and
# weights carry 15 digits, and a term (P_0 + P_1) / 2 per sample, zero at -1
# and of size 1e-15, makes it so to rounding.
_NODES = (0.0,) + tuple(s * x for x in _XGK[:7] for s in (-1.0, 1.0))
_XGK7 = np.array(_XGK[:7])
_WEIGHTS = (_WGK[7],) + tuple(w for w in _WGK[:7] for _ in range(2))
_ANTIDERIVATIVE = np.polynomial.legendre.legint(
    np.linalg.inv(np.polynomial.legendre.legvander(np.array(_NODES), 14)), lbnd=-1.0
)
_ANTIDERIVATIVE[:2] += 0.5 * (np.array(_WEIGHTS) - _ANTIDERIVATIVE.sum(axis=0))


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The K15 nodes of the panels [lo[i], hi[i]], shape (len(lo), 15), each
    row in the order of ``_NODES``: mid, then mid -/+ half * x for each node
    x of ``_XGK``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = half[:, None] * _XGK7
    nodes = np.empty((lo.size, 15))
    nodes[:, 0] = mid
    nodes[:, 1::2] = mid[:, None] - x
    nodes[:, 2::2] = mid[:, None] + x
    return nodes


def _kronrod_sums(samples: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K15 value, |K15 - G7| estimate) of panels from their samples, shape
    (..., 15) in ``_NODES`` order, and half-widths; each panel's sums are
    added node pair by node pair, centre first, as for one panel alone."""
    fc = samples[..., 0]
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        fsum = samples[..., 1 + 2 * i] + samples[..., 2 + 2 * i]
        kron = kron + _WGK[i] * fsum
        if i % 2 == 1:  # K15 odd indices are the G7 nodes
            gauss = gauss + _WG[i // 2] * fsum
    return kron * half, np.abs((kron - gauss) * half)


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
    """A cumulative-quadrature cell: either a K15 value or two halves.

    A final leaf keeps its panel's samples and, once a query reads it, the
    Legendre coefficients of their interpolant's antiderivative.  ``stop``
    marks a node whose halves were kept by the rounding stop; ``fault`` is
    set on a node whose refinement failed, and raises its error when called
    (see ``_Cells.grow``)."""

    __slots__ = ("lo", "hi", "value", "err", "children", "samples", "dense", "stop", "fault")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        self.value: Optional[float] = None
        self.err = 0.0
        self.children: Optional[tuple["_Leaf", "_Leaf"]] = None
        self.samples: Optional[list[float]] = None
        self.dense: Optional[list[float]] = None
        self.stop = False
        self.fault: Optional[Callable[[], None]] = None

    def coefficients(self) -> list[float]:
        if self.dense is None:
            self.dense = (_ANTIDERIVATIVE @ self.samples).tolist()
        return self.dense


def _failed_node(f: Callable[[float], float], x: float):
    f(x)  # raises the node's error, evaluated again by the float integrand
    raise QuadratureFailure(f"integrand raised at x={x} once but not again")


def _not_converging(message: str):
    raise QuadratureFailure(message)


class _Cells:
    """The cells of [u0, hi] and, for each component of an integrand, their
    refinement trees; ``per_unit`` is the budget per unit length of both
    sides of u0.

    ``grow`` builds every tree of every cell at once, level by level, with
    one integrand batch per level over the panels that level needs.  The
    decisions are those of a recursive refinement of one cell: a panel whose
    estimate exceeds max(per_unit * width, 1e-3 abs_tol) and 1e-16 of its
    value is halved, unless it is max_depth deep; the halves are kept as
    they are when together they estimate at least ``_ROUNDOFF_RATIO`` of
    it (the rounding stop), and are decided in turn otherwise.  A node whose
    refinement fails gets a ``fault`` and is not refined further: the
    recursive refinement would have raised there.  A fault is the first
    failed node of the node's own panel (root cells only), then the max_depth
    limit, then the first failed node of the left half's panel, then of the
    right's, each in panel sample order.
    """

    def __init__(self, integrand: Integrand, u0, hi, per_unit, abs_tol, cell_width, max_depth):
        self.integrand = integrand
        self.per_unit = per_unit
        self.abs_tol = abs_tol
        self.max_depth = max_depth
        n = max(1, math.ceil((hi - u0) / cell_width)) if hi > u0 else 0
        edges = [(u0 + (hi - u0) * i / n, u0 + (hi - u0) * (i + 1) / n) for i in range(n)]
        self.roots = [[_Leaf(lo, hi) for lo, hi in edges] for _ in integrand.scalars]
        self.grown = False

    def _panels(self, wanted: list[tuple[int, _Leaf]]) -> list[tuple]:
        """(value, estimate, samples, fault) of the K15 panel of each
        (component, leaf) in wanted, from one integrand batch over the
        distinct intervals; samples are None and fault is set where the
        panel has a failed node."""
        if not wanted:
            return []
        index: dict[tuple[float, float], int] = {}
        for _, leaf in wanted:
            index.setdefault((leaf.lo, leaf.hi), len(index))
        bounds = np.array(list(index), dtype=float).reshape(-1, 2)
        lo, hi = bounds[:, 0], bounds[:, 1]
        nodes = _kronrod_nodes(lo, hi)
        values, failed = self.integrand.batch(nodes.ravel())
        shape = (values.shape[0],) + nodes.shape
        values, failed = values.reshape(shape), failed.reshape(shape)
        faults: dict[tuple[int, int], Callable] = {}
        for j, i, q in zip(*np.nonzero(failed)):
            if (j, i) in faults:
                continue
            f, x = self.integrand.scalars[j], float(nodes[i, q])
            try:
                values[j, i, q] = f(x)
            except MATH_ERRORS:
                faults[j, i] = functools.partial(_failed_node, f, x)
        value, err = _kronrod_sums(values, 0.5 * (hi - lo))
        value, err, samples = value.tolist(), err.tolist(), values.tolist()
        out = []
        for j, leaf in wanted:
            i = index[leaf.lo, leaf.hi]
            fault = faults.get((j, i))
            out.append((value[j][i], err[j][i], None if fault else samples[j][i], fault))
        return out

    def _split(self, leaf: _Leaf, val: float, err: float, samples, depth: int) -> bool:
        """Keep the panel as the leaf's, or give the leaf two halves (True)."""
        floor = max(self.per_unit * (leaf.hi - leaf.lo), 1e-3 * self.abs_tol)
        if not (err > floor and err > 1e-16 * abs(val)):
            leaf.value, leaf.err, leaf.samples = val, err, samples
            return False
        if depth >= self.max_depth:
            leaf.fault = functools.partial(
                _not_converging, f"cell [{leaf.lo}, {leaf.hi}] not converging (err {err:.3e})"
            )
            return False
        mid = 0.5 * (leaf.lo + leaf.hi)
        leaf.children = (_Leaf(leaf.lo, mid), _Leaf(mid, leaf.hi))
        return True

    def grow(self):
        # marked grown only once whole: an error that propagates (a bug in
        # the integrand) is raised again by the next query, not hidden
        if self.grown:
            return
        wanted = [(j, leaf) for j, roots in enumerate(self.roots) for leaf in roots]
        split = []  # (component, node, its panel's estimate) of the nodes halved
        for (j, leaf), (val, err, samples, fault) in zip(wanted, self._panels(wanted)):
            if fault is not None:
                leaf.fault = fault
            elif self._split(leaf, val, err, samples, 0):
                split.append((j, leaf, err))
        depth = 1
        while split:
            wanted = [(j, half) for j, leaf, _ in split for half in leaf.children]
            panels = iter(self._panels(wanted))
            halved = []
            for j, leaf, err in split:
                (lv, le, ls, lf), (rv, re, rs, rf) = next(panels), next(panels)
                left, right = leaf.children
                if lf is not None or rf is not None:
                    leaf.children, leaf.fault = None, lf or rf
                elif le + re >= _ROUNDOFF_RATIO * err:
                    # halving did not lower the estimate: it is rounding noise
                    # of the integrand, so the halves are kept as they are
                    left.value, left.err, left.samples = lv, le, ls
                    right.value, right.err, right.samples = rv, re, rs
                    leaf.stop = True
                else:
                    for half, (v, e, smp) in ((left, (lv, le, ls)), (right, (rv, re, rs))):
                        if self._split(half, v, e, smp, depth):
                            halved.append((j, half, e))
            split = halved
            depth += 1
        self.grown = True


class _HalfLine:
    """One component's cells of [u0, hi] of a CumulativeQuadrature, and the
    queries from u0 outward.

    Cells fill left to right, and each filled cell appends its final leaves
    to a flat table, so the table only grows.  ``his[k]`` is the right edge
    of table leaf k and ``rows[k]`` is (leaf, pre, desc, edge): the leaf,
    the prefix sum of the whole cells before its cell, the sum of the whole
    leaves of its cell left of it, and the cell's left edge for the cell's
    first leaf (NaN for the others, which no u equals)."""

    def __init__(self, cells: _Cells, component: int):
        self.trees = cells
        self.cells = cells.roots[component]
        self.rounding_stops = 0
        # prefix[i] is the sum of the first i cell values, added left to right
        self.prefix = [0.0]
        self.his: list[float] = []
        self.rows: list[tuple] = []
        self._columns: Optional[tuple] = None  # ``rows`` as arrays, see _table

    def _settle(self, leaf: _Leaf) -> float:
        # a grown cell's value, each node the sum of its halves, left first;
        # raises the cell's first fault in the order refinement met them
        if leaf.fault is not None:
            leaf.fault()
        if leaf.children is None:
            return leaf.value
        left, right = leaf.children
        leaf.value = self._settle(left) + self._settle(right)
        leaf.err = left.err + right.err
        return leaf.value

    def _tabulate(self, leaf: _Leaf, pre: float, desc: float, edge: float):
        # the final leaves of a filled cell, left to right; desc adds the
        # whole leaves left of each one in the order of a descent from the
        # cell.  Runs once per filled cell, so each rounding stop counts once.
        if leaf.children is not None:
            left, right = leaf.children
            self.rounding_stops += leaf.stop
            self._tabulate(left, pre, desc, edge)
            self._tabulate(right, pre, desc + left.value, math.nan)
            return
        self.his.append(leaf.hi)
        self.rows.append((leaf, pre, desc, edge))

    def _fill(self, u: float):
        # Fill cells until one ends beyond u or none is left.  Every cell is
        # grown whole before any query reads it, so a value does not depend
        # on which queries came before.
        self.trees.grow()
        while len(self.prefix) <= len(self.cells) and (not self.his or self.his[-1] <= u):
            cell = self.cells[len(self.prefix) - 1]
            pre = self.prefix[-1]
            self.prefix.append(pre + self._settle(cell))
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
    its share of the budget).  The first query of each side grows the trees
    of all its cells (see ``_Cells``): one array call of the integrand at the
    K15 nodes of every cell, then one call per refinement level at the nodes
    of the panels that level halves.  Each panel's sums are added in the
    order of a single panel, so the trees, values and estimates are those of
    refining each cell on its own.  A query then fills the cells from u0 up
    to u once, left to right, and each filled cell enters its final leaves
    into a flat table.  The value at u is read from the table entry of the
    leaf that holds u (found by bisection on the leaf edges): the prefix sum
    of the whole cells before u (added left to right, whatever the query
    order), plus the whole leaves of u's cell left of u, plus the leaf's
    dense output: the integral from the leaf's edge to u of the degree-14
    interpolant of its 15 K15 samples.  That makes no integrand call.  K15
    is interpolatory, so the interpolant's integral over a whole leaf is the
    leaf's K15 value up to rounding: F is a polynomial inside each leaf and
    continuous across leaf edges to a few ulps, and finite differences of F
    recover f without cache-boundary noise.  Thread-safe; values are
    deterministic, so racing writes are benign and guarded anyway.

    ``f`` is a float integrand, which the growth calls node by node, or an
    ``Integrand`` evaluated over arrays, whose first component is integrated
    (``components`` integrates all of them over shared panels).

    Failures are deferred.  A node where the integrand raises a
    mathematical error (``MATH_ERRORS``) fails its panel, and a panel that
    cannot meet its share by ``max_depth`` fails its cell; the cell raises
    only when a query reaches it, with the error a recursive refinement of
    that cell alone would raise first: the first failed node in panel order,
    evaluated again by the float integrand, or QuadratureFailure.  A cell no
    query reaches never raises.  Any other error of the integrand propagates
    from the first query.

    Both sides of u0 are one half-line: f on [u0, hi], and its mirror image
    f(-x) on [-u0, -lo] with F(u) = 0.0 - left(-u) below u0 (so an
    antiderivative that is exactly zero is +0.0 on both sides).  Negation is
    exact, so the left side's nodes, panels and sums are those of a walk from
    u0 to lo.

    Rounding stop: a cell whose two halves do not lower the summed estimate
    below ``_ROUNDOFF_RATIO`` of its own is split once more and not further;
    each half keeps its value and estimate, so a leaf's ``err`` is then an
    estimate of rounding noise above the leaf's share of the budget.
    ``rounding_stops`` counts the cells accepted this way among the cells
    queries have filled.

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
        f,
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
        f = Integrand.of(f)
        self._sides = (
            _Cells(f, u0, hi, per_unit, abs_tol, cell_width, max_depth),
            _Cells(f.mirrored(), -u0, -lo, per_unit, abs_tol, cell_width, max_depth),
        )
        self._right, self._left = (_HalfLine(side, 0) for side in self._sides)

    @classmethod
    def components(
        cls, f: Integrand, u0: float, lo: float, hi: float, abs_tol: float = DEFAULT_TOL.quad_abs
    ) -> tuple["CumulativeQuadrature", ...]:
        """One antiderivative per component of f, all over the same cells.

        The first query of any of them grows every component's trees, with
        one batch per level for all components (each has its own tree), and
        all of them share one lock."""
        first = cls(f, u0, lo, hi, abs_tol)
        rest = []
        for j in range(1, len(f.scalars)):
            other = copy.copy(first)
            other._right, other._left = (_HalfLine(side, j) for side in first._sides)
            rest.append(other)
        return (first, *rest)

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
            if not h >= h_min:  # a NaN step stops too
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


def _walk(anchor: float, edge: float, step: float) -> np.ndarray:
    """The abscissae of the walk from anchor to edge in steps of ``step``:
    each is the one before plus the signed step, as a loop ``u = u + step``
    adds them, up to the first one at or beyond the edge, which is replaced
    by the edge."""
    if edge == anchor:
        return np.empty(0)
    sign = 1.0 if edge > anchor else -1.0
    n = math.ceil(abs(edge - anchor) / step) + 1
    while True:
        # np.add.accumulate adds left to right, one element after the other
        us = np.add.accumulate(np.concatenate(([anchor], np.full(n, sign * step))))[1:]
        beyond = np.flatnonzero(sign * (edge - us) <= 0.0)
        if beyond.size:
            us = us[: beyond[0] + 1]
            us[-1] = edge
            return us
        n *= 2


def scan_interval(
    pred: Callable[[float], bool],
    anchor: float,
    window: tuple[float, float],
    step: float,
    tol: float,
    verdicts: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[float, float]:
    """Maximal interval around ``anchor`` inside ``window`` where pred holds.

    Walks outward from anchor (where pred must hold) in steps of ``step``,
    clipped to the window, and bisects the first failing step down to tol.
    Each endpoint is a window edge or a point where pred holds, within tol of
    the flip, so downstream evaluation never lands outside.

    The walk's abscissae on both sides are evaluated at once: by
    ``verdicts``, pred over a 1-D array (an array of bools, each pred's
    verdict), in one call, or else by pred at each.  The endpoints are those
    of a walk that calls pred step by step; the bisection calls pred.
    """
    right = _walk(anchor, window[1], step)
    left = _walk(anchor, window[0], step)
    us = np.concatenate((right, left))
    ok = verdicts(us) if verdicts is not None else [pred(u) for u in us.tolist()]

    def end(walk: np.ndarray, holds, edge: float) -> float:
        failing = np.flatnonzero(np.logical_not(holds))
        if failing.size == 0:
            return edge
        k = failing[0]
        inside = anchor if k == 0 else float(walk[k - 1])
        return _bisect(pred, inside, float(walk[k]), tol)[0]

    hi = end(right, ok[: right.size], window[1])
    return end(left, ok[right.size :], window[0]), hi


class SmoothFunction:
    """A scalar function of one variable with first and second derivatives.

    Analytic derivatives are used when supplied; otherwise central finite
    differences with the steps ``tol.fd_first`` and ``tol.fd_second`` fill
    in.  All closed-form solution families supply analytic derivatives.
    """

    def __init__(
        self,
        f: Callable[[float], float],
        df: Optional[Callable[[float], float]] = None,
        d2f: Optional[Callable[[float], float]] = None,
        tol: Tolerances = DEFAULT_TOL,
    ):
        self.f = f
        self._df = df
        self._d2f = d2f
        self.tol = tol

    def __call__(self, u: float) -> float:
        return self.f(u)

    def deriv(self, u: float) -> float:
        if self._df is not None:
            return self._df(u)
        return diff_central(self.f, u, order=1, h=self.tol.fd_first)

    def second(self, u: float) -> float:
        if self._d2f is not None:
            return self._d2f(u)
        if self._df is not None:
            return diff_central(self._df, u, order=1, h=self.tol.fd_second)
        return diff_central(self.f, u, order=2, h=self.tol.fd_second)

    def column(self, us: np.ndarray) -> np.ndarray:
        """f at a 1-D array of u: each element the float call's value, and
        NaN where it raises a mathematical error."""
        return elementwise(self.__call__)(us)

    def values(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, f') at a 1-D array of u, each as ``column``."""
        return self.column(us), elementwise(self.deriv)(us)

    @classmethod
    def wrap(cls, f) -> "SmoothFunction":
        return f if isinstance(f, SmoothFunction) else cls(f)


class ArrayFunction(SmoothFunction):
    """A SmoothFunction whose f, df and d2f also take a 1-D array of u and
    return, elementwise, the float call's value, or NaN where the float call
    raises a mathematical error.  ``column`` is then one array call and
    ``values`` two."""

    def column(self, us: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.f(us)

    def values(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            return self.f(us), self.deriv(us)
