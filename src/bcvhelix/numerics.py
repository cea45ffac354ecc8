"""Shared numerical kernels.

One quadrature kernel, CumulativeQuadrature: an antiderivative-style
G7/K15 Gauss-Kronrod rule over fixed cells with panel caching, behind every
chart antiderivative and gauge.  Each side of u0 is a one-directional
half-line from u0 outward; the side below u0 is the same half-line over the
mirror image f(-x).  The first query grows the trees of all cells of both
sides at once, in one refinement loop, as flat arrays: one array call of the
integrand at the K15 nodes of every cell, then one call per refinement level
for the panels of both sides.  The trees are settled into one flat table per
side and component, whose leaves carry prefix sums and the Legendre
coefficients of their dense output (the integral of the degree-14
interpolant of the 15 samples a leaf's K15 panel already took), all leaves
in one stacked matrix product.  A query reads the leaf that holds
u and calls no integrand; a frontier counts the cells queries have reached,
and a failed node is raised by the first query that reaches its cell.  A
1-D array of u is one searchsorted and one recurrence over the array, with
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
import itertools
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
    "float_rows",
    "SmoothFunction",
    "ArrayFunction",
    "JetFunction",
    "Integrand",
    "CumulativeQuadrature",
    "halving_steps",
    "stencil_misfit",
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


def elementwise(fn: Callable[..., float], failed: Optional[np.ndarray] = None) -> Callable:
    """fn, a function of floats, on floats or elementwise on 1-D arrays.

    Where some argument is an array, every other argument is repeated for
    each of its elements, and each element of the result is fn's own result
    for those floats, or NaN where fn raises a mathematical error
    (``MATH_ERRORS``), an element that ``failed`` records if given; any
    other error propagates.  A call with one argument, the common case,
    packs no argument tuple and walks no argument list."""

    def apply(x, *rest):
        if rest:
            return _elementwise_call(fn, failed, (x, *rest))
        if not isinstance(x, np.ndarray):
            return fn(x)
        column = x.tolist()
        try:
            return np.fromiter(map(fn, column), float, x.size)
        except MATH_ERRORS:
            return _elementwise_retry(fn, failed, x.size, zip(column))

    return apply


def _elementwise_call(fn: Callable[..., float], failed: Optional[np.ndarray], args: tuple):
    """``elementwise``'s call with several arguments."""
    for x in args:
        if isinstance(x, np.ndarray):
            break
    else:
        return fn(*args)
    columns = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    try:
        return np.fromiter(map(fn, *columns), float, x.size)
    except MATH_ERRORS:
        return _elementwise_retry(fn, failed, x.size, zip(*columns))


def _elementwise_retry(fn: Callable[..., float], failed: Optional[np.ndarray], n: int, rows) -> np.ndarray:
    """fn at each argument tuple of rows, one at a time: NaN where it raises
    a mathematical error, an element that ``failed`` records if given."""
    out = np.full(n, math.nan)
    for i, xs in enumerate(rows):
        try:
            out[i] = fn(*xs)
        except MATH_ERRORS:
            if failed is not None:
                failed[i] = True
    return out


def float_rows(out: np.ndarray, redo: np.ndarray, fn: Callable[[float], float], us: np.ndarray) -> np.ndarray:
    """out, a column of a per-row quantity at the 1-D array us, with each
    element where ``redo`` holds evaluated again on the float path: fn(u),
    or NaN where fn raises a BcvHelixError; any other error propagates."""
    for i in np.flatnonzero(redo).tolist():
        try:
            out[i] = fn(float(us[i]))
        except BcvHelixError:
            out[i] = math.nan
    return out


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


# The K15 nodes and weights on [-1, 1] in the order a panel samples f (the
# centre, then -x and +x for each node x of _XGK), and the 16 x 15 map from
# those samples to the Legendre coefficients of the antiderivative (zero at
# -1) of their degree-14 interpolant.  K15 is interpolatory, so that
# antiderivative at +1 is the panel's K15 value; the tabulated nodes and
# weights carry 15 digits, and a term (P_0 + P_1) / 2 per sample, zero at -1
# and of size 1e-15, makes it so to rounding.
_NODES = (0.0,) + tuple(s * x for x in _XGK[:7] for s in (-1.0, 1.0))
_XGK7 = np.array(_XGK[:7])
_WGK7, _WG3 = np.array(_WGK[:7]), np.array(_WG[:3])
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
    fsum = samples[..., 1::2] + samples[..., 2::2]
    terms = fsum * _WGK7
    kron = _WGK[7] * fc
    for i in range(7):
        kron = kron + terms[..., i]
    terms = fsum[..., 1::2] * _WG3  # K15 odd indices are the G7 nodes
    gauss = _WG[3] * fc
    for i in range(3):
        gauss = gauss + terms[..., i]
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


def _failed_node(f: Callable[[float], float], x: float):
    f(x)  # raises the node's error, evaluated again by the float integrand
    raise QuadratureFailure(f"integrand raised at x={x} once but not again")


def _not_converging(message: str):
    raise QuadratureFailure(message)


class _Level:
    """One refinement depth of a side's trees: its panels [lo, hi] and their
    cells, and on a first axis of components the node each tree has there
    (``alive``), with its panel's value, estimate, samples and fault (an
    index into the side's faults, -1 for none).  The halves of the panels
    ``halved`` make the next level, left then right; ``kept`` marks the
    nodes that keep them, and ``stop`` those the rounding stop kept."""

    def __init__(self, lo, hi, cell, panels):
        self.lo, self.hi, self.cell = lo, hi, cell
        self.val, self.err, self.samples, self.fault = panels
        self.stop = np.zeros(self.fault.shape, dtype=bool)
        self.halved, self.kept = np.empty(0, dtype=int), self.stop[:, :0]


class _Table:
    """One component's final leaves of a grown side in walk order (sorted by
    lo), as columns, and its cells: ``prefix[i]`` sums the first i cells
    left to right and ``stops[i]`` counts their rounding stops; ``fault`` is
    the first fault of cell ``faulted``, the first with one (or None, n).
    ``leaves`` stacks what an array query reads of each leaf, one row per
    leaf: mid, half, pre, desc, edge, then the 16 dense coefficients."""

    def __init__(self, lo, hi, val, err, pre, desc, edge, dense, cells, faulted, fault):
        self.lo, self.hi, self.val, self.err = lo, hi, val, err
        self.mid, self.half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self.pre, self.desc, self.edge, self.dense = pre, desc, edge, dense
        self.leaves = np.column_stack([self.mid, self.half, pre, desc, edge, dense])
        self.prefix, self.cell_err, self.stops = cells
        self.total = float(self.prefix[-1])
        self.faulted, self.fault = faulted, fault
        self._floats: Optional[tuple] = None

    def floats(self) -> tuple:
        """(hi, lo, pre, desc, edge) as lists of Python floats, for scalar queries."""
        if self._floats is None:
            self._floats = tuple(c.tolist() for c in (self.hi, self.lo, self.pre, self.desc, self.edge))
        return self._floats


def _cell_edges(a: float, b: float, cell_width: float) -> np.ndarray:
    """The edges of equal cells at most cell_width wide from a to b, and no
    cell if b <= a."""
    n = max(1, math.ceil((b - a) / cell_width)) if b > a else 0
    return a + (b - a) * np.arange(n + 1) / max(n, 1)


class _Cells:
    """The cells of both sides of u0 and, for each component of an
    integrand, their refinement trees as flat arrays; ``per_unit`` is the
    budget per unit length of both sides.  Side 0 is [u0, hi]; side 1 is
    [lo, u0] in mirror coordinates, [-u0, -lo], whose panels are evaluated
    by the integrand at their negated nodes (negation is exact).  The cells
    of side s are a:b for (a, b) = ``bounds[s]``, and ``sides[s]`` holds
    their lo and hi in the side's own coordinates and hi as Python floats.

    ``grow`` builds every tree of every cell of both sides at once, level by
    level, with one integrand batch per level over the panels both sides
    need there, and one set of masks.  The decisions are those of a
    recursive refinement of one cell: a panel whose estimate exceeds
    max(per_unit * width, 1e-3 abs_tol) and 1e-16 of its value is halved,
    unless it is max_depth deep; the halves are kept as they are when
    together they estimate at least ``_ROUNDOFF_RATIO`` of it (the rounding
    stop), and are decided in turn otherwise.  A node whose
    refinement fails gets a fault and is not refined further: the recursive
    refinement would have raised there.  A fault is the first failed node of
    the node's own panel (root cells only), then the max_depth limit, then
    the first failed node of the left half's panel, then of the right's,
    each in panel sample order.  Faulted nodes have no halves, so a cell's
    first fault, the one a left-first walk meets, is its faulted node with
    the smallest lo.  ``_settle`` makes one ``_Table`` per side and
    component, from each side's own cells.
    """

    def __init__(self, integrand: Integrand, u0, lo, hi, per_unit, abs_tol, cell_width, max_depth):
        self.integrand = integrand
        self.per_unit = per_unit
        self.abs_tol = abs_tol
        self.max_depth = max_depth
        edges = (_cell_edges(u0, hi, cell_width), _cell_edges(-u0, -lo, cell_width))
        self.lo, self.hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
        right = edges[0].size - 1
        self.bounds = ((0, right), (right, self.lo.size))
        self.sign = np.repeat((1.0, -1.0), (right, self.lo.size - right))
        self.sides = tuple((self.lo[a:b], self.hi[a:b], self.hi[a:b].tolist()) for a, b in self.bounds)
        self.tables: Optional[tuple[list[_Table], list[_Table]]] = None

    def _panels(self, lo, hi, cell, faults: list) -> tuple:
        """(value, estimate, samples, fault) of the K15 panels [lo, hi] of
        the cells ``cell``, for every component, from one integrand batch.
        A panel with a failed node appends its first failed node to faults,
        and its samples are NaN: they are never read."""
        k = len(self.integrand.scalars)
        nodes = _kronrod_nodes(lo, hi) * self.sign[cell][:, None]
        values, failed = self.integrand.batch(nodes.ravel()) if lo.size else (np.empty((k, 0)),) * 2
        values, failed = values.reshape((k,) + nodes.shape), failed.reshape((k,) + nodes.shape)
        fault = np.full((k, lo.size), -1)
        for j, i, q in zip(*np.nonzero(failed)):
            if fault[j, i] < 0:
                f, x = self.integrand.scalars[j], float(nodes[i, q])
                try:
                    values[j, i, q] = f(x)
                except MATH_ERRORS:
                    fault[j, i] = len(faults)
                    faults.append(functools.partial(_failed_node, f, x))
                    values[j, i] = np.nan
        return (*_kronrod_sums(values, 0.5 * (hi - lo)), values, fault)

    def _split(self, level: _Level, test, depth: int, faults: list) -> np.ndarray:
        """The nodes of level that test marks and whose estimate exceeds the
        leaf floor: halved, or faulted past max_depth."""
        width = self.per_unit * (level.hi - level.lo)
        floor = np.where(1e-3 * self.abs_tol > width, 1e-3 * self.abs_tol, width)
        split = test & (level.err > floor) & (level.err > 1e-16 * np.abs(level.val))
        for j, i in zip(*np.nonzero(split)) if depth >= self.max_depth else ():
            lo, hi, err = level.lo[i].item(), level.hi[i].item(), level.err[j, i].item()
            level.fault[j, i] = len(faults)
            faults.append(functools.partial(_not_converging, f"cell [{lo}, {hi}] not converging (err {err:.3e})"))
        return split & (depth < self.max_depth)

    def grow(self):
        # kept only once whole: an error that propagates (a bug in the
        # integrand) is raised again by the next query, not hidden
        if self.tables is None:
            self.tables = self._settle(*self._grow())

    def _grow(self) -> tuple[list[_Level], list]:
        k, n = len(self.integrand.scalars), self.lo.size
        faults: list = []
        cell = np.arange(n)
        up = _Level(self.lo, self.hi, cell, self._panels(self.lo, self.hi, cell, faults))
        up.alive = np.ones((k, n), dtype=bool)
        levels = [up]
        split = self._split(up, up.fault < 0, 0, faults)
        while split.any():
            up.halved = p = np.flatnonzero(split.any(axis=0))
            mid = 0.5 * (up.lo[p] + up.hi[p])
            lo, hi = np.repeat(up.lo[p], 2), np.repeat(up.hi[p], 2)
            lo[1::2], hi[0::2] = mid, mid
            count, cell = len(faults), np.repeat(up.cell[p], 2)
            down = _Level(lo, hi, cell, self._panels(lo, hi, cell, faults))
            up.kept = split[:, p]
            if len(faults) > count:
                # a failed half faults its parent, which then keeps no halves
                lf, rf, pair = down.fault[:, 0::2], down.fault[:, 1::2], up.kept
                up.kept = pair & (lf < 0) & (rf < 0)
                up.fault[:, p] = np.where(pair & ~up.kept, np.where(lf >= 0, lf, rf), up.fault[:, p])
                down.fault[:] = -1
            # halving did not lower the estimate: it is rounding noise of the
            # integrand, so the halves are kept as they are
            stop = up.kept & (down.err[:, 0::2] + down.err[:, 1::2] >= _ROUNDOFF_RATIO * up.err[:, p])
            up.stop[:, p] = stop
            down.alive = np.repeat(up.kept, 2, axis=1)
            split = self._split(down, np.repeat(up.kept & ~stop, 2, axis=1), len(levels), faults)
            levels.append(up := down)
        return levels, faults

    def _settle(self, levels: list[_Level], faults: list) -> tuple[list[_Table], list[_Table]]:
        # Bottom-up, a node's value and estimate are its halves' sums, left
        # first; top-down, a right half adds its left sibling's value to its
        # parent's sum of the whole leaves left of it.  Each leaf's Legendre
        # coefficients come from one stacked matmul, one gemv per leaf: its
        # own _ANTIDERIVATIVE @ samples bit for bit.  Prefix sums, rounding
        # stops and first faults are each side's own, from u0 outward.
        k, n, sides = len(self.integrand.scalars), self.lo.size, self.bounds
        with np.errstate(all="ignore"):  # the float arithmetic of Python, which never traps
            for up, down in reversed(list(zip(levels, levels[1:]))):
                p = up.halved
                up.val[:, p] = np.where(up.kept, down.val[:, 0::2] + down.val[:, 1::2], up.val[:, p])
                up.err[:, p] = np.where(up.kept, down.err[:, 0::2] + down.err[:, 1::2], up.err[:, p])
            levels[0].desc = np.zeros((k, n))
            for up, down in zip(levels, levels[1:]):
                down.desc = np.repeat(up.desc[:, up.halved], 2, axis=1)
                down.desc[:, 1::2] += down.val[:, 0::2]
            for level in levels:  # the final leaves: faulted nodes are among them
                level.leaf = level.alive.copy()
                level.leaf[:, level.halved] &= ~level.kept
            lo, hi, cell, val, err, desc, samples, leaf, stop, fault = (
                np.concatenate([getattr(lv, name) for lv in levels], axis=int(name not in ("lo", "hi", "cell")))
                for name in ("lo", "hi", "cell", "val", "err", "desc", "samples", "leaf", "stop", "fault")
            )
            comp, at = np.nonzero(leaf)
            group = comp + k * (cell[at] >= sides[1][0])  # the table of a leaf: side, then component
            order = np.lexsort((hi[at], lo[at], group))
            comp, at, group = comp[order], at[order], group[order]
            dense = np.matmul(_ANTIDERIVATIVE, samples[comp, at][:, :, None])[:, :, 0]
            sums = [np.add.accumulate(np.concatenate((np.zeros((k, 1)), val[:, a:b]), axis=1), axis=1)
                    for a, b in sides]
        prefix = np.concatenate([s[:, :-1] for s in sums], axis=1)  # of the cells before each on its side
        first = np.ones(at.size, dtype=bool)
        first[1:] = (cell[at[1:]] != cell[at[:-1]]) | (comp[1:] != comp[:-1])
        columns = (lo[at], hi[at], val[comp, at], err[comp, at], prefix[comp, cell[at]], desc[comp, at],
                   np.where(first, lo[at], np.nan), dense)
        sc, si = np.nonzero(stop)
        stops = np.bincount(sc * n + cell[si], minlength=k * n).reshape(k, n)
        stops = [np.concatenate((np.zeros((k, 1), dtype=int), np.cumsum(stops[:, a:b], axis=1)), axis=1)
                 for a, b in sides]
        fc, fi = np.nonzero(fault >= 0)

        def table(s: int, j: int) -> _Table:
            a, b = sides[s]
            mine = fi[(fc == j) & (cell[fi] >= a) & (cell[fi] < b)]
            node = mine[np.argmin(lo[mine])] if mine.size else None  # in the first faulted cell
            faulted = (b - a, None) if node is None else (int(cell[node]) - a, faults[fault[j, node]])
            leaves = slice(*np.searchsorted(group, (s * k + j, s * k + j + 1)))
            return _Table(*(c[leaves] for c in columns), (sums[s][j], err[j, a:b], stops[s][j]), *faulted)

        return tuple([table(s, j) for j in range(k)] for s in range(2))


class _HalfLine:
    """One component's queries of a side of a CumulativeQuadrature, from u0
    outward.  ``filled``, the frontier, counts the cells queries have
    reached: 1 plus the number of cells that end at or before u, as a fill
    from u0 outward would.  A query that reaches the first cell with a fault
    raises that cell's first fault.  ``lo`` and ``hi`` are the side's cells
    in its own coordinates, and ``table`` its component's table.  The first
    query of either side grows the cells of both (``_Cells.grow``)."""

    def __init__(self, cells: _Cells, side: int, component: int):
        self.cells = cells
        self.side = side
        self.component = component
        self.lo, self.hi, self.his = cells.sides[side]
        self.filled = 0

    @property
    def table(self) -> _Table:
        return self.cells.tables[self.side][self.component]

    @property
    def rounding_stops(self) -> int:
        return int(self.table.stops[self.filled]) if self.filled else 0

    def _fill(self, u: float) -> _Table:
        # every cell is grown whole before any query reads it, so a value
        # does not depend on which queries came before
        self.cells.grow()
        table = self.table
        reach = min(bisect.bisect_right(self.his, u) + 1, len(self.his))
        if reach > table.faulted:
            self.filled = max(self.filled, table.faulted)
            table.fault()
        self.filled = max(self.filled, reach)
        return table

    def __call__(self, u: float) -> float:
        """The integral of f from u0 to u, for u0 < u <= hi."""
        table = self._fill(u)
        his, los, pre, desc, edge = table.floats()
        k = bisect.bisect_right(his, u)
        if k == len(his):  # u at hi, past the last leaf
            return table.total
        if u == edge[k]:
            return pre[k]
        half = 0.5 * (his[k] - los[k])
        s = (u - 0.5 * (his[k] + los[k])) / half
        return pre[k] + (desc[k] + half * _legendre_series(table.dense[k].tolist(), s))


def _leaf_values(reads: list) -> list:
    """For each read (table, x), ``_HalfLine.__call__`` at each element of
    x, a 1-D array in (u0, hi] of the table's side, bit for bit: one
    searchsorted and one gather per table, and one Legendre recurrence over
    the elements of every read."""
    if not reads:
        return []
    sizes = [x.size for _, x in reads]
    leaves = np.empty((sum(sizes), 21))  # each element's leaf, gathered in place
    pasts, lo = [], 0
    for (t, x), n in zip(reads, sizes):
        k = np.searchsorted(t.hi, x, side="right")
        past = k == t.hi.size  # u at hi, past the last leaf
        k[past] = t.hi.size - 1
        np.take(t.leaves, k, axis=0, out=leaves[lo : lo + n], mode="clip")
        pasts.append(past)
        lo += n
    x = np.concatenate([x for _, x in reads]) if len(reads) > 1 else reads[0][1]
    mid, half, pre, desc, edge = leaves[:, :5].T
    out = pre + (desc + half * _legendre_series(leaves[:, 5:].T, (x - mid) / half))
    out = np.where(x == edge, pre, out)
    parts = np.split(out, np.cumsum(sizes[:-1]))
    for (t, _), past, part in zip(reads, pasts, parts):
        part[past] = t.total
    return parts


class CumulativeQuadrature:
    """Antiderivative F(u) = int_{u0}^{u} f with panel caching.

    The interval around ``u0`` is covered by fixed cells; each cell holds one
    K15 value (refined by static bisection where the G7/K15 estimate exceeds
    its share of the budget).  The first query grows the trees of all cells
    of both sides in one refinement loop, as flat arrays (see ``_Cells``):
    one array call of the integrand at the K15 nodes of every cell, then one
    per refinement level for the panels of both sides.  Each panel's sums
    are added in the order of a single panel, so the trees, values and
    estimates are those of refining each cell on its own.  The trees are
    then settled into one flat table per side and component, the final
    leaves sorted by their edges: the prefix sum of the whole cells of its
    side before each leaf (added from u0 outward), the whole leaves of its
    cell left of it, and its dense output, the integral from its edge of the
    degree-14 interpolant of its 15 K15 samples, as Legendre coefficients
    (one stacked matrix product for all leaves).  A query reads the leaf that holds u,
    found by bisection, and calls no integrand.  K15 is interpolatory, so
    the interpolant's integral over a whole leaf is the leaf's K15 value up
    to rounding: F is a polynomial inside each leaf and continuous across
    leaf edges to a few ulps, and finite differences of F recover f without
    cache-boundary noise.  Values do not depend on the order of queries; one
    lock guards the growth, the tables and the frontier (below).

    ``f`` is a float integrand, which the growth calls node by node, or an
    ``Integrand`` evaluated over arrays, whose first component is integrated
    (``components`` integrates all of them over shared panels).

    Failures are deferred.  A node where the integrand raises a
    mathematical error (``MATH_ERRORS``) fails its panel, and a panel that
    cannot meet its share by ``max_depth`` fails its cell; the cell raises
    only when a query reaches it (u at or beyond its left edge), with the
    error a recursive refinement of that cell alone would raise first: the
    first failed node in panel order, evaluated again by the float
    integrand, or QuadratureFailure.  Any other error of the integrand
    propagates from every query until a growth completes.

    Both sides of u0 are one half-line: f on [u0, hi], and its mirror image
    f(-x) on [-u0, -lo] with F(u) = 0.0 - left(-u) below u0 (so an
    antiderivative that is exactly zero is +0.0 on both sides).  The left
    side's panels are evaluated by f at their negated nodes; negation is
    exact, so its nodes, panels and sums are those of a walk from u0 to lo.
    Each side keeps its own prefix sums, rounding stops, frontier and first
    fault.

    Rounding stop: a cell whose two halves do not lower the summed estimate
    below ``_ROUNDOFF_RATIO`` of its own is split once more and not further;
    each half keeps its value and estimate, so a leaf's estimate is then one
    of rounding noise above the leaf's share of the budget.
    ``rounding_stops`` counts the cells accepted this way below the
    frontier: the cells a fill from u0 out to the queries would have filled.

    Array queries: a 1-D numpy array of u, in any order and with repeats,
    gives the array of values, each bit for bit the scalar query's: one
    ``searchsorted`` on the leaf edges and one gather from the table per
    side, and the 16-term recurrence over the array.  ``reach`` and ``read``
    split such a query in two, so that the components of one ``components``
    call are read at once, with one recurrence.  Any other u is a scalar
    query, which reads Python-float copies of the table's columns: numpy's
    overhead would outweigh one point.
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
        self._cells = _Cells(Integrand.of(f), u0, lo, hi, per_unit, abs_tol, cell_width, max_depth)
        self._right, self._left = (_HalfLine(self._cells, side, 0) for side in range(2))

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
            other._right, other._left = (_HalfLine(first._cells, side, j) for side in range(2))
            rest.append(other)
        return (first, *rest)

    @property
    def rounding_stops(self) -> int:
        return self._right.rounding_stops + self._left.rounding_stops

    @property
    def lock(self) -> threading.Lock:
        """The lock of the growth, the tables and the frontier, shared by
        the components of one ``components`` call."""
        return self._lock

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
        with self._lock:
            return self.read(self.reach(us))[0]

    def reach(self, us: np.ndarray) -> tuple:
        """The first half of an array query at us, a 1-D float array inside
        [lo, hi], with ``lock`` held: fill the sides of u0 it reaches, the
        right side, then the left, raising the first fault met, and return
        what ``read`` reads."""
        sides = []
        for line, mask, x, mirrored in ((self._right, us > self.u0, us, False), (self._left, us < self.u0, -us, True)):
            x = x[mask]
            if x.size:
                sides.append((mask, line._fill(float(x.max())), x, mirrored))
        return us, sides

    @staticmethod
    def read(*reached) -> list:
        """The column of each query that ``reach`` returned, with ``lock``
        held: each element bit for bit the scalar query's, with one Legendre
        recurrence over all of them."""
        values = iter(_leaf_values([(t, x) for _, sides in reached for _, t, x, _ in sides]))
        columns = []
        for us, sides in reached:
            out = np.zeros_like(us)  # u == u0 gives 0.0
            for (mask, _, _, mirrored), value in zip(sides, values):
                out[mask] = 0.0 - value if mirrored else value
            columns.append(out)
        return columns


def halving_steps(h: float, h_min: Optional[float] = None):
    """The steps a shrinking difference stencil tries, in order: h, then,
    given h_min, h/2, h/4, ... while they are at least h_min (a NaN step
    or h_min stops after h)."""
    yield h
    if h_min is None:
        return
    while True:
        h *= 0.5
        if not h >= h_min:
            return
        yield h


def stencil_misfit(h_min: Optional[float]) -> StencilOutOfDomain:
    """The error of a difference stencil that fits at none of its steps."""
    return StencilOutOfDomain(f"difference stencil cannot fit the domain above h_min={h_min}")


def richardson(d: Callable[[float], float], h: float, h_min: Optional[float] = None):
    """One Richardson level (4 d(h/2) - d(h)) / 3 of a difference quotient d.

    d(h) is evaluated before d(h/2); scalar and array values both work.
    Without h_min, errors raised by ``d`` propagate.  With h_min, a
    BcvHelixError moves on to the next of ``halving_steps`` and
    StencilOutOfDomain is raised when they run out.
    """
    for step in halving_steps(h, h_min):
        try:
            d_h = d(step)
            return (4.0 * d(0.5 * step) - d_h) / 3.0
        except BcvHelixError:
            if h_min is None:
                raise
    raise stencil_misfit(h_min)


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

    def second_column(self, us: np.ndarray) -> np.ndarray:
        """f'' at a 1-D array of u, as ``column``."""
        return elementwise(self.second)(us)

    @classmethod
    def wrap(cls, f) -> "SmoothFunction":
        return f if isinstance(f, SmoothFunction) else cls(f)


class ArrayFunction(SmoothFunction):
    """A SmoothFunction whose f, df and d2f also take a 1-D array of u and
    return, elementwise, the float call's value, or NaN where the float call
    raises a mathematical error.  ``column``, ``values`` and
    ``second_column`` are then array calls."""

    def column(self, us: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.f(us)

    def values(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            return self.f(us), self.deriv(us)

    def second_column(self, us: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.second(us)


class JetFunction(ArrayFunction):
    """An ArrayFunction given by one evaluation ``jet(u, order)``, which
    returns (f, f', ..., f^(order)) at a float u or, as ArrayFunction's f,
    at a 1-D array.  Each float call and each of ``column``, ``values`` and
    ``second_column`` is one jet call, so the work f and its derivatives
    share is done once."""

    def __init__(self, jet: Callable, tol: Tolerances = DEFAULT_TOL):
        super().__init__(lambda u: jet(u, 0)[0], lambda u: jet(u, 1)[1], lambda u: jet(u, 2)[2], tol)
        self.jet = jet

    def values(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            return self.jet(us, 1)

    def second_column(self, us: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return self.jet(us, 2)[2]
