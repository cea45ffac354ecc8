import collections
import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcvhelix import (
    BcvHelixError,
    CumulativeQuadrature,
    DomainError,
    QuadratureFailure,
    SmoothFunction,
    StencilOutOfDomain,
    diff_central,
)
from bcvhelix import cli, numerics
from bcvhelix.numerics import scan_interval


def exp_below_one(x):
    """exp on its domain x <= 1; a domain error beyond."""
    if x > 1.0:
        raise DomainError(f"x={x} > 1")
    return math.exp(x)


class TestDiffCentral:
    def test_cubic_first(self):
        assert abs(diff_central(lambda u: u ** 3, 2.0, order=1) - 12.0) < 1e-8

    def test_sin_second_at_zero(self):
        assert abs(diff_central(math.sin, 0.0, order=2, h=1e-4)) < 1e-8

    def test_exp_first_at_zero(self):
        assert abs(diff_central(math.exp, 0.0, order=1) - 1.0) < 1e-9

    def test_bad_order(self):
        with pytest.raises(ValueError):
            diff_central(math.sin, 0.0, order=3)

    def test_array_valued(self):
        f = lambda x: np.array([math.sin(x), x ** 3])
        for order, exact in ((1, [math.cos(0.3), 3 * 0.3 ** 2]), (2, [-math.sin(0.3), 6 * 0.3])):
            d = diff_central(f, 0.3, order=order, h=1e-4)
            assert d.shape == (2,)
            assert np.max(np.abs(d - exact)) < 1e-7

    def test_shrinks_past_domain_edge(self):
        x = 1.0 - 3e-4  # h = 1e-3 and 5e-4 leave the domain, 2.5e-4 fits
        with pytest.raises(DomainError):
            diff_central(exp_below_one, x, order=1, h=1e-3)
        for order in (1, 2):
            d = diff_central(exp_below_one, x, order=order, h=1e-3, h_min=1e-7)
            assert abs(d - math.exp(x)) < 1e-6

    def test_stencil_out_of_domain_below_h_min(self):
        with pytest.raises(StencilOutOfDomain):
            diff_central(exp_below_one, 1.0 - 1e-9, order=1, h=1e-5, h_min=1e-7)

    def test_nan_step_stops_halving(self):
        # a NaN step is never >= h_min: the first failure ends the halving,
        # however long the difference quotient would go on failing
        calls = []

        def quotient(h):
            calls.append(h)
            if len(calls) <= 200:
                raise BcvHelixError("stencil leaves the domain")
            return 1.0

        with pytest.raises(StencilOutOfDomain):
            numerics.richardson(quotient, math.nan, h_min=1e-7)
        assert len(calls) == 1


class TestScanInterval:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-4.9, -0.1),
        b=st.floats(0.1, 4.9),
        frac=st.floats(0.05, 0.95),
        step=st.floats(1e-3, 3.0),
    )
    def test_brackets_true_interval(self, a, b, frac, step):
        pred = lambda x: a < x < b
        tol = 1e-9
        left, right = scan_interval(pred, a + frac * (b - a), (-5.0, 5.0), step, tol)
        assert pred(left) and pred(right)
        assert left - a <= tol and b - right <= tol

    def test_true_everywhere_gives_window(self):
        assert scan_interval(lambda x: True, 0.3, (-1.0, 2.0), 0.7, 1e-9) == (-1.0, 2.0)


def _hash_noise(x):
    """Deterministic noise in [-1, 1) drawn from the bits of the float x."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    bits ^= bits >> 29
    bits = (bits * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    bits ^= bits >> 32
    return (bits >> 11) / 2.0**52 - 1.0


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _batch_counted(f):
    """The float integrand f as an Integrand that counts its batches."""
    base = numerics.Integrand.of(f)

    def batch(xs):
        batch.calls += 1
        return base.batch(xs)

    batch.calls = 0
    return numerics.Integrand(batch, base.scalars)


Leaf = collections.namedtuple("Leaf", "lo hi value err")


def _final_leaves(side):
    """The final leaves of one half-line's filled cells (those below its
    frontier), in walk order, read from its flat table."""
    if not side.filled:
        return []
    table = side.table
    n = np.searchsorted(table.hi, side.hi[side.filled - 1], side="right")
    return [Leaf(*row) for row in zip(*(c[:n].tolist() for c in (table.lo, table.hi, table.val, table.err)))]


def _leaves(F):
    """(lo, hi, value, err) of every leaf of both half-line trees, in walk order
    (the left side's in its mirror coordinates)."""
    return [tuple(leaf) for side in (F._left, F._right) for leaf in _final_leaves(side)]


def _cell_estimates(side):
    """The estimates of the filled cells of one half-line, each the sum of its leaves'."""
    return side.table.cell_err[: side.filled].tolist()


def _cell_count(F):
    return F._left.lo.size + F._right.lo.size


def _peak(x):
    return 1.0 / (1e-3 + x * x)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _recursive_leaves(f, u0, hi, per_unit, abs_tol=1e-10, cell_width=0.05, max_depth=42):
    """(lo, hi, value, err) of the final leaves of refining each cell of
    [u0, hi] on its own, panel by panel and node by node: the reference for
    the batched growth of a CumulativeQuadrature half-line."""

    def panel(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        fc = f(mid)
        kron, gauss = numerics._WGK[7] * fc, numerics._WG[3] * fc
        for i in range(7):
            x = half * numerics._XGK[i]
            fsum = f(mid - x) + f(mid + x)
            kron += numerics._WGK[i] * fsum
            if i % 2 == 1:
                gauss += numerics._WG[i // 2] * fsum
        return kron * half, abs((kron - gauss) * half)

    def refine(lo, hi, val, err, depth, out):
        floor = max(per_unit * (hi - lo), 1e-3 * abs_tol)
        if not (err > floor and err > 1e-16 * abs(val)):
            out.append((lo, hi, val, err))
            return
        assert depth < max_depth
        mid = 0.5 * (lo + hi)
        lp, rp = panel(lo, mid), panel(mid, hi)
        if lp[1] + rp[1] >= numerics._ROUNDOFF_RATIO * err:
            out += [(lo, mid, *lp), (mid, hi, *rp)]
        else:
            refine(lo, mid, *lp, depth + 1, out)
            refine(mid, hi, *rp, depth + 1, out)

    n = max(1, math.ceil((hi - u0) / cell_width))
    out = []
    for i in range(n):
        lo_i, hi_i = u0 + (hi - u0) * i / n, u0 + (hi - u0) * (i + 1) / n
        refine(lo_i, hi_i, *panel(lo_i, hi_i), 0, out)
    return out


class TestCumulativeQuadrature:
    @pytest.mark.parametrize(
        "f",
        [
            _peak,
            lambda x: 2.0 + math.cos(40.0 * x),
            lambda x: math.cos(x) + 1e-9 * _hash_noise(x),
            lambda x: 1.0 if x >= 0.3141 else 0.0,
        ],
        ids=["peak", "oscillating", "noisy", "step"],
    )
    def test_batched_growth_is_each_cell_refined_alone(self, f):
        # the level-by-level batches reproduce, bit for bit, the leaves of a
        # recursive refinement of each cell, rounding stops included
        F = CumulativeQuadrature(f, 0.3, -2.0, 2.0, cell_width=0.5)
        F(-2.0)
        F(2.0)
        per_unit = 1e-10 / 2.3
        assert _leaves(F) == (
            _recursive_leaves(lambda x: f(-x), -0.3, 2.0, per_unit, cell_width=0.5)
            + _recursive_leaves(f, 0.3, 2.0, per_unit, cell_width=0.5)
        )

    def test_matches_antiderivative(self):
        F = CumulativeQuadrature(math.cos, 0.0, -6.0, 6.0)
        for u in [-5.5, -2.0, -0.2, 0.0, 0.013, 1.7, 5.9]:
            assert abs(F(u) - math.sin(u)) < 1e-11

    def test_continuity_across_cells(self):
        F = CumulativeQuadrature(lambda x: math.exp(0.3 * x), 0.0, -2.0, 2.0, cell_width=0.25)
        # straddle a cell boundary with a tiny step, on both sides of u0
        for edge in [-1.0, -0.5, -0.25, 0.25, 0.5, 1.0]:
            gap = F(edge + 1e-9) - F(edge - 1e-9)
            assert abs(gap - 2e-9 * math.exp(0.3 * edge)) < 1e-13

    def test_fd_recovers_integrand(self):
        # second differences of F must not see cell-cache noise
        f = lambda x: 1.0 / (1.0 + x * x)
        F = CumulativeQuadrature(f, 0.0, -3.0, 3.0)
        df = diff_central(F, 0.7, order=1, h=1e-5)
        d2 = diff_central(F, 0.7, order=2, h=1e-4)
        assert abs(df - f(0.7)) < 1e-10
        exact_d2 = -2 * 0.7 / (1 + 0.49) ** 2
        assert abs(d2 - exact_d2) < 1e-7

    @pytest.mark.parametrize(
        "f", [_peak, lambda x: 2.0 + math.cos(40.0 * x)], ids=["peak", "oscillating"]
    )
    def test_continuous_at_every_leaf_edge(self, f):
        # a leaf's dense output ends at its K15 value, so between the doubles
        # next to a leaf edge e, F moves by f(e) (b - a) and at most 8 ulps of
        # |F(e)| more (3.4 ulps measured)
        F = CumulativeQuadrature(f, 0.3, -2.0, 2.0, cell_width=0.5)
        F(-2.0)
        F(2.0)
        edges = [
            sign * leaf.hi
            for side, sign in ((F._left, -1.0), (F._right, 1.0))
            for leaf in _final_leaves(side)[:-1]
        ]
        assert len(edges) > _cell_count(F)  # refined cells
        for e in edges:
            a, b = math.nextafter(e, -math.inf), math.nextafter(e, math.inf)
            jump = F(b) - F(a) - f(e) * (b - a)
            assert abs(jump) <= 8 * math.ulp(abs(F(e)))

    def test_difference_quotients_recover_integrand(self):
        # Richardson central differences of F at the default steps, at points
        # across many leaves: first within 1e-11, second within 1e-9 (1.3e-12
        # and 1.9e-10 measured)
        f = lambda x: 1.0 / (1.0 + x * x)
        F = CumulativeQuadrature(f, 0.0, -3.0, 3.0)
        h2 = numerics.DEFAULT_TOL.fd_second
        for u in np.linspace(-2.9, 2.9, 117):
            assert abs(diff_central(F, u, order=1) - f(u)) < 1e-11
            exact_d2 = -2.0 * u / (1.0 + u * u) ** 2
            assert abs(diff_central(F, u, order=2, h=h2) - exact_d2) < 1e-9

    def test_query_on_filled_cells_calls_no_integrand(self):
        f = _counted(_peak)
        F = CumulativeQuadrature(f, 0.3, -2.0, 2.0)
        F(-1.5)
        filled = f.calls
        F(1.5)
        assert f.calls == filled
        assert filled % 15 == 0
        us = (-1.5, -1.234567, -0.3, 0.0, 1e-7, 0.30001, 0.7, 1.4999, 1.5)
        for u in us:
            F(u)
        F(np.array(us[::-1]))
        assert f.calls == filled
        # the first query grew the trees of all cells on both sides of u0,
        # so the cells beyond 1.5 cost no integrand call either
        assert filled >= 15 * (_cell_count(F))
        F(1.9)
        assert f.calls == filled

    def test_one_batch_per_level_for_both_sides(self):
        # one cell per side: the peak at 0.7 refines the right cell deeper
        # than the wide one at -0.4 refines the left.  Both sides grow in one
        # loop, so the batches are the deeper side's levels, not the sum of
        # both sides', and each side's values are those it has alone
        f = lambda x: 1.0 / (1e-3 + (x - 0.7) ** 2) + 1.0 / (1e-1 + (x + 0.4) ** 2)
        levels, alone = [], []
        for lo, hi, u in ((0.0, 1.0, 1.0), (-1.0, 0.0, -1.0)):  # the same budget per unit
            g = _batch_counted(f)
            alone.append(CumulativeQuadrature(g, 0.0, lo, hi, cell_width=1.0)(u))
            levels.append(g.batch.calls)
        assert levels[0] > levels[1] > 1
        g = _batch_counted(f)
        F = CumulativeQuadrature(g, 0.0, -1.0, 1.0, cell_width=1.0)
        assert _bits([F(1.0), F(-1.0)]) == _bits(alone)
        assert g.batch.calls == levels[0]
        assert F.rounding_stops == 0

    @pytest.mark.parametrize("cell_width, abs_tol", [(2.0, 1e-6), (1.0, 1e-8), (3.0, 1e-6)])
    def test_partial_leaves_match_closed_form(self, cell_width, abs_tol):
        # wide cells, so that most queries end inside a leaf with a nonzero
        # estimate; each value is within the estimates of the leaves from u0
        # to its own
        F = CumulativeQuadrature(math.cos, 0.0, -6.0, 6.0, abs_tol=abs_tol, cell_width=cell_width)
        for u in np.linspace(-6.0, 6.0, 241):
            side, x = (F._right, u) if u > 0 else (F._left, -u)
            value = F(u)
            estimate = sum(leaf.err for leaf in _final_leaves(side) if leaf.lo < x)
            assert abs(value - math.sin(u)) <= estimate

    @pytest.mark.parametrize(
        "f", [_peak, lambda x: 2.0 + math.cos(40.0 * x)], ids=["peak", "oscillating"]
    )
    def test_array_query_is_scalar_queries_bitwise(self, f):
        # both sides of u0, u0, lo, hi, every cell edge and every leaf edge of
        # the refined cells, points between, unsorted and repeated
        scalar = CumulativeQuadrature(f, 0.3, -2.0, 2.0, cell_width=0.5)
        scalar(-2.0)
        scalar(2.0)
        edges = [
            sign * x
            for side, sign in ((scalar._left, -1.0), (scalar._right, 1.0))
            for leaf in _final_leaves(side)
            for x in (leaf.lo, leaf.hi)
        ]
        assert len(edges) > 2 * _cell_count(scalar)
        us = np.array(
            edges + [0.3, -2.0, 2.0, math.nextafter(2.0, 3.0), math.nextafter(0.3, 1.0)]
            + np.linspace(-2.0, 2.0, 101).tolist()
        )
        us = np.random.default_rng(7).permutation(np.concatenate([us, us[:40]]))
        column = CumulativeQuadrature(f, 0.3, -2.0, 2.0, cell_width=0.5)(us)
        assert _bits(column) == _bits([scalar(u) for u in us.tolist()])

    @pytest.mark.parametrize("u0", [1.0, -2.0], ids=["no-right-side", "no-left-side"])
    def test_u0_at_an_end_of_the_range(self, u0):
        # one side of u0 has no cells: the other's are read alone
        f = lambda x: 2.0 + math.cos(40.0 * x)
        us = np.concatenate((np.linspace(-2.0, 1.0, 61), [u0, -2.0, 1.0, 1.0, -2.0]))
        us = np.random.default_rng(3).permutation(us)
        column = CumulativeQuadrature(f, u0, -2.0, 1.0, cell_width=0.5)(us)
        scalar = CumulativeQuadrature(f, u0, -2.0, 1.0, cell_width=0.5)
        assert _bits(column) == _bits([scalar(u) for u in us.tolist()])
        assert (scalar._right if u0 == 1.0 else scalar._left).lo.size == 0
        assert scalar.rounding_stops == 0
        exact = 2.0 * (us - u0) + (np.sin(40.0 * us) - math.sin(40.0 * u0)) / 40.0
        assert np.max(np.abs(column - exact)) < 1e-9

    def test_left_side_is_mirror_of_right(self):
        # the side below u0 is the walk over the mirror image f(-x), bit for bit
        f = lambda x: math.exp(0.3 * x) + x**3
        F = CumulativeQuadrature(f, 0.37, -2.0, 2.5)
        G = CumulativeQuadrature(lambda x: f(-x), -0.37, -2.5, 2.0)
        for u in [-2.0, -1.3, -0.2, 0.1, 0.3699, 0.3701, 0.5, 1.9, 2.5]:
            assert struct.pack("<d", F(u)) == struct.pack("<d", -G(-u))

    def test_zero_at_anchor(self):
        F = CumulativeQuadrature(math.cos, 0.5, -1.0, 1.0)
        assert F(0.5) == 0.0

    def test_outside_domain(self):
        F = CumulativeQuadrature(math.cos, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            F(3.0)
        with pytest.raises(ValueError, match="u=-3.0 outside"):
            F(np.array([0.5, -3.0, 0.2]))

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(-0.25, 0.25),
        before=st.lists(st.floats(-2.0, 2.0), max_size=5),
    )
    def test_value_independent_of_query_order(self, u, before):
        # the peak at 0 refines the cells on [-0.1, 0.1]; a query inside one
        # must not depend on whether an earlier query refined that cell
        f = lambda x: 1.0 / (1e-4 + x * x)
        fresh = CumulativeQuadrature(f, 0.3, -2.0, 2.0)
        used = CumulativeQuadrature(f, 0.3, -2.0, 2.0)
        for v in before:
            used(v)
        column = CumulativeQuadrature(f, 0.3, -2.0, 2.0)(np.array(before + [u]))
        assert used(u) == fresh(u) == column[-1]

    def test_rounding_stop_ends_noisy_integrand(self):
        # float-hash noise of 1e-9 never meets the 1e-13 leaf floor; without
        # the stop the first cell would bisect down to max_depth and fail
        f = _counted(lambda x: math.cos(x) + 1e-9 * _hash_noise(x))
        F = CumulativeQuadrature(f, 0.0, -2.0, 2.0, max_depth=16)
        for u in (-2.0, 2.0):
            value = F(u)
            estimate = sum(_cell_estimates(F._right if u > 0 else F._left))
            assert abs(value - math.sin(u)) <= estimate
        assert F.rounding_stops > 0
        assert f.calls <= 15 * 1000

    @pytest.mark.parametrize(
        "f, lo, hi, cell_width",
        [
            (math.cos, -12.0, 12.0, 12.0),
            (lambda x: math.exp(0.3 * x), -30.0, 30.0, 30.0),
            (lambda x: math.sqrt(max(1.0 - x * x, 0.0)), -1.0, 1.0, 0.05),
        ],
        ids=["cos", "exp", "sqrt-endpoint"],
    )
    def test_rounding_stop_spares_smooth_integrands(self, monkeypatch, f, lo, hi, cell_width):
        # wide cells, so that every integrand refines; the reference tree is
        # built with the stop switched off
        us = [lo, -0.73, -0.2, 0.013, 0.5, hi]
        F = CumulativeQuadrature(f, 0.0, lo, hi, cell_width=cell_width)
        values = [F(u) for u in us]
        monkeypatch.setattr(numerics, "_ROUNDOFF_RATIO", math.inf)
        ref = CumulativeQuadrature(f, 0.0, lo, hi, cell_width=cell_width)
        assert [ref(u) for u in us] == values
        assert _leaves(F) == _leaves(ref)
        assert len(_leaves(F)) > _cell_count(F)
        assert F.rounding_stops == 0

    @pytest.mark.parametrize("step", [0.3141, -1.2345, 0.777])
    def test_rounding_stop_spares_step(self, step):
        F = CumulativeQuadrature(lambda x: 1.0 if x >= step else 0.0, 0.0, -2.0, 2.0)
        assert abs(F(2.0) - F(-2.0) - (2.0 - step)) <= 1e-10
        assert F.rounding_stops == 0

    @pytest.mark.parametrize("fails", [True, False], ids=["failing", "filled"])
    def test_rounding_stops_count_once(self, fails):
        # one cell: noise of 1e-6 on its left half ends refinement there by
        # the rounding stop, and the peak at 0.04 refines its right half down
        # to nodes within 3e-6 of the peak.  Where those nodes fail, the cell
        # never fills and its stops count for no query; otherwise each stop
        # counts once, however many queries read the cell
        def f(x):
            if fails and abs(x - 0.04) < 3e-6:
                raise DomainError(f"x={x} within 3e-06 of 0.04")
            noise = 1e-6 * _hash_noise(x) if x < 0.025 else 0.0
            return noise + 1.0 / (1e-6 + (x - 0.04) * (x - 0.04))

        def stops(side):
            # the rounding stops of the side's one cell, filled or not
            counts = side.table.stops
            return int(counts[1] - counts[0])

        F = CumulativeQuadrature(f, 0.0, 0.0, 0.05)
        for _ in range(3):
            if fails:
                with pytest.raises(DomainError, match="within 3e-06 of 0.04"):
                    F(0.03)
            else:
                F(0.03)
            assert F._right.lo.size == 1
            assert stops(F._right) > 0
            assert F.rounding_stops == (0 if fails else stops(F._right))

    def test_failure_waits_for_the_cell_that_holds_it(self):
        # exp_below_one fails at every node beyond 1: the cells there are
        # grown with the rest at the first query, but only a query that
        # reaches one raises, with the error of the first failed node of the
        # first such cell (the centre of [1.0, 1.05])
        F = CumulativeQuadrature(exp_below_one, 0.0, -2.0, 2.0)
        assert abs(F(0.9) - (math.exp(0.9) - 1.0)) < 1e-12
        assert abs(F(-1.9) - (math.exp(-1.9) - 1.0)) < 1e-12
        for u in (1.02, 1.5, np.array([0.3, 1.7])):
            with pytest.raises(DomainError, match=r"^x=1\.025 > 1$"):
                F(u)
        assert F(0.5) == F(np.array([0.5]))[0]

    def test_failure_below_u0_waits_for_the_cell_that_holds_it(self):
        # the mirror image: f fails at every node below -1, well below u0.
        # Queries above u0 and short of the failed cells answer; a query that
        # reaches one raises the first failed node of the first such cell
        # from u0 outward (the centre of [-1.05, -1.0])
        def f(x):
            if x < -1.0:
                raise DomainError(f"x={x} < -1")
            return math.exp(x)

        F = CumulativeQuadrature(f, 0.0, -2.0, 2.0)
        assert abs(F(1.9) - (math.exp(1.9) - 1.0)) < 1e-12
        assert abs(F(-0.9) - (math.exp(-0.9) - 1.0)) < 1e-12
        for u in (-1.02, -1.5, np.array([0.3, -1.7])):
            with pytest.raises(DomainError, match=r"^x=-1\.025 < -1$"):
                F(u)
        assert F(1.5) == F(np.array([1.5]))[0]
        assert F(-0.5) == F(np.array([-0.5]))[0]

    def test_failure_inside_refinement_waits_too(self):
        # the peak at 0.71 is refined; only a panel two or more halvings
        # deep has a node within 3e-5 of it, where the integrand fails
        def narrow(x):
            if abs(x - 0.71) < 3e-5:
                raise DomainError(f"x={x} within 3e-05 of 0.71")
            return 1.0 / (1e-6 + (x - 0.71) * (x - 0.71))

        F = CumulativeQuadrature(narrow, 0.0, -2.0, 2.0)
        first_level = numerics._kronrod_nodes(F._right.lo, F._right.hi)
        assert np.min(np.abs(first_level - 0.71)) > 3e-5
        assert F(0.69) == pytest.approx(48.549945949046176, rel=1e-15)
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^x=0\.7100243279843995 within"):
                F(0.75)

    def test_first_fault_is_the_leftmost_failed_node(self):
        # one cell, two failing nodes: the centre of [0.75, 1] fails its
        # parent [0.5, 1] at depth 2, the centre of [0.125, 0.1875] fails
        # [0.125, 0.25] at depth 4.  Level by level the right one is met
        # first; a left-first refinement of the cell meets the left one
        # first, and so must a query
        failing = (0.875, 0.15625)

        def f(x):
            if x in failing:
                raise DomainError(f"x={x} fails")
            return 1.0 / (0.01 + (x - 0.2) ** 2) + 0.3 / (0.01 + (x - 0.85) ** 2)

        with pytest.raises(DomainError) as want:
            _recursive_leaves(f, 0.0, 1.0, 1e-10, cell_width=1.0)
        assert str(want.value) == "x=0.15625 fails"
        F = CumulativeQuadrature(f, 0.0, 0.0, 1.0, cell_width=1.0)
        for u in (0.9, 0.1, np.array([0.3, 0.6])):
            with pytest.raises(DomainError, match=r"^x=0\.15625 fails$"):
                F(u)
        assert F.rounding_stops == 0
        # both faulted nodes kept no halves: each is a leaf of the cell
        table = F._right.table
        leaves = list(zip(table.lo.tolist(), table.hi.tolist()))
        assert (0.5, 1.0) in leaves and (0.125, 0.25) in leaves

    def test_non_mathematical_error_propagates_at_first_query(self):
        # a bug is not an invalid point: it surfaces at the first query of
        # a side, from any of its cells
        def buggy(x):
            if abs(x) > 1.5:
                raise TypeError("bug in the integrand")
            return math.cos(x)

        for u in (0.2, -0.2):
            F = CumulativeQuadrature(buggy, 0.0, -2.0, 2.0)
            for _ in range(2):  # every query meets the bug again
                with pytest.raises(TypeError, match="bug in the integrand"):
                    F(u)
        batched = numerics.Integrand(lambda xs: (_ for _ in ()).throw(TypeError("bug")), [math.cos])
        with pytest.raises(TypeError, match="bug"):
            CumulativeQuadrature(batched, 0.0, -1.0, 1.0)(0.1)

    def test_failure_at_max_depth(self):
        # one cell, no bisection allowed: sin(40 x) cannot meet the floor
        f = lambda x: math.sin(40 * x)
        F = CumulativeQuadrature(f, 0.0, 0.0, 2.0, cell_width=2.0, max_depth=0)
        with pytest.raises(QuadratureFailure):
            F(2.0)


class TestStackedCoefficientKernel:
    @pytest.mark.parametrize("size", [1, 2, 3, 16, 257, 1000])
    @pytest.mark.parametrize("offset", [0, 1, 7])
    def test_stacked_matmul_is_each_rows_gemv_bitwise(self, size, offset):
        # the tables compute every leaf's Legendre coefficients with one
        # stacked matmul; numpy runs the same matrix-vector product per
        # stacked matrix, so each row is its own _ANTIDERIVATIVE @ row,
        # whatever the batch size and the row's place in it
        rng = np.random.default_rng(size * 31 + offset)
        rows = rng.standard_normal((size + offset, 15)) * rng.uniform(0.0, 50.0, (size + offset, 1))
        rows = rows[offset:]
        stacked = np.matmul(numerics._ANTIDERIVATIVE, rows[:, :, None])[:, :, 0]
        alone = [numerics._ANTIDERIVATIVE @ row.tolist() for row in rows]
        assert _bits(stacked) == _bits(alone)


class TestSmoothFunction:
    def test_fd_fallback(self):
        f = SmoothFunction(lambda u: math.sin(2 * u))
        assert abs(f.deriv(0.4) - 2 * math.cos(0.8)) < 1e-9
        assert abs(f.second(0.4) + 4 * math.sin(0.8)) < 1e-6

    def test_analytic_used(self):
        f = SmoothFunction(lambda u: u * u, lambda u: 2 * u, lambda u: 2.0)
        assert f.deriv(3.0) == 6.0
        assert f.second(-1.0) == 2.0

    def test_wrap_idempotent(self):
        f = SmoothFunction(math.sin)
        assert SmoothFunction.wrap(f) is f


def _quadrature():
    F = CumulativeQuadrature(_peak, 0.3, -2.0, 2.0)
    F(-1.0)
    F(np.array([1.0]))
    return [F]


def _component_pair():
    f = numerics.Integrand(
        lambda xs: (np.stack((np.cos(xs), np.sin(xs))), np.zeros((2, xs.size), dtype=bool)),
        [math.cos, math.sin],
    )
    pair = CumulativeQuadrature.components(f, 0.0, -1.0, 1.0)
    for F in pair:
        F(-0.5)
        F(np.array([0.5]))
    return list(pair)


def _oscillatory_chart():
    # the oscillatory CMC member of the verify benchmark
    config = {
        "space": {"kappa": 1.0, "tau": 0.0},
        "seed": {"family": "cmc-case", "m": 1.0, "a": 0.5, "H": 1.0, "c": -1.0, "u_range": [-3.5, 3.5]},
    }
    job = cli.parse_config(config, "verify")
    chart = cli.make_chart(job, *cli.resolve_profile(job))[0]
    lo, hi = chart.u_valid
    us = np.array([lo, 0.5 * (lo + chart.u0), 0.5 * (chart.u0 + hi), hi])
    chart.xi2(us)
    chart.theta0(float(us[0]))
    chart.theta0(float(us[-1]))
    return [chart, chart._xi2_quad, chart._theta0_quad]


def _held(objs):
    """objs, and for each quadrature among them its half-lines and the
    cells they read."""
    for obj in objs:
        yield obj
        if isinstance(obj, CumulativeQuadrature):
            for side in (obj._left, obj._right):
                yield from (side, side.cells)


@pytest.mark.parametrize(
    "build", [_quadrature, _component_pair, _oscillatory_chart], ids=["quadrature", "components", "chart"]
)
def test_dropped_quadrature_needs_no_cyclic_collector(build):
    # a reference cycle through a grown quadrature or its cells would keep
    # them alive until the cyclic collector runs; reference counting alone
    # must free them
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = [weakref.ref(obj) for obj in _held(build())]
        assert [ref() is None for ref in refs] == [True] * len(refs)
    finally:
        if enabled:
            gc.enable()
