"""The array profile kernel against the float path, bit for bit.

For every benchmark family (the twelve acceptance-C3 families, the explicit
catenoid, and both shipped deform sweeps at each of their pitches) the
kernel is evaluated by both paths at the abscissae the library evaluates it
at: the validity scan's walk, the family scan's grid and walk, and the K15
nodes of the first panel of every quadrature cell.  Values, verdicts, margins
and failure masks must agree bit for bit, and every point the array path
fails must raise on the float path.  The benchmark families are valid at
nearly all of these points, so three explicit seeds whose domains reach past
their charts' validity (a negative radicand, a profile expression that
fails, m^2 U^2 < a^2) exercise the failure masks.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bcvhelix import bour, cli, cmc
from bcvhelix.numerics import MATH_ERRORS, _kronrod_nodes, _walk

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (the benchmark's job lists)


def _families():
    jobs = [job for workload in ("deform", "verify", "construct")
            for job in inputs._fixed_jobs(workload)]
    seen, out = set(), []
    for job in jobs:
        key = json.dumps({k: job.config[k] for k in ("space", "seed")}, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        pitches = job.config.get("sweep", {}).get("values", [job.config["seed"]["a"]])
        out.append(pytest.param(job.config, pitches, id=f"{job.command}-{job.name}"))
    return out


FAMILIES = _families()


def _explicit(label, kappa, tau, m, a, u_range, U, dU=None):
    seed = {"family": "explicit", "m": m, "a": a, "u_range": u_range, "U": U}
    if dU is not None:
        seed["dU"] = dU
    config = {"space": {"kappa": kappa, "tau": tau}, "seed": seed}
    return pytest.param(config, [a], id=f"failing-{label}")


FAILING = [
    _explicit("radicand", 0.0, 0.0, 2.0, 0.0, [-2.0, 2.0], "sqrt(u*u + 1)", "u / sqrt(u*u + 1)"),
    _explicit("expression", 0.0, 0.5, 1.0, 0.3, [-2.0, 2.0], "sqrt(1.5 - u*u)"),
    _explicit("pitch", 0.0, 0.5, 1.0, 1.2, [0.5, 3.0], "(u*u + 2)/2", "u"),
]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _float_or_error(f, u):
    try:
        return f(u)
    except MATH_ERRORS as exc:
        return exc


def _charts(config, pitches):
    job = cli.parse_config(config, "chart")
    U, meta = cli.resolve_profile(job)
    return job, U, [cli.make_chart(job, U, meta, a=a)[0] for a in pitches]


def _scan_abscissae(lo, hi, anchor, step):
    return np.concatenate((_walk(anchor, hi, step), _walk(anchor, lo, step)))


def _fill_nodes(chart):
    """The K15 nodes of the first panel of every cell, both sides of u0."""
    quad = chart._xi2_quad
    sides = []
    for side, sign in ((quad._right, 1.0), (quad._left, -1.0)):
        sides.append(sign * _kronrod_nodes(side.lo, side.hi).ravel())
    return np.concatenate(sides)


@pytest.mark.parametrize("config, pitches", FAMILIES + FAILING)
def test_profile_and_chart_kernel_match_float_path(config, pitches):
    job, U, charts = _charts(config, pitches)
    for chart in charts:
        space, seed, tol = chart.space, chart.seed, job.tol
        lo, hi = seed.u_domain
        scan = _scan_abscissae(lo, hi, 0.5 * (lo + hi), (hi - lo) / 2048)
        nodes = _fill_nodes(chart)
        us = np.concatenate((scan, nodes))
        floats = us.tolist()

        # U and U': NaN exactly where the float call raises
        for got, f in zip(U.values(us), (U, U.deriv)):
            want = [_float_or_error(f, u) for u in floats]
            failed = [isinstance(w, Exception) for w in want]
            assert np.isnan(got).tolist() == failed
            assert _bits(got[~np.array(failed)]) == _bits(
                [w for w in want if not isinstance(w, Exception)]
            )

        # the validity predicate
        verdicts = bour._valid_on(space, seed, scan, tol)
        assert verdicts.tolist() == [bour._valid_at(space, seed, u, tol) for u in scan.tolist()]

        # the xi2 and theta0 integrands, values and failure masks
        integrands = bour._chart_integrands(space, seed, tol)
        values, failed = integrands.batch(us)
        assert failed[:, len(scan):].sum() == 0  # every fill node is valid
        if config in [p.values[0] for p in FAILING]:
            assert failed[:, : len(scan)].any() and not verdicts.all()
        for j, f in enumerate(integrands.scalars):
            want = [_float_or_error(f, u) for u in floats]
            raised = [isinstance(w, Exception) for w in want]
            assert failed[j].tolist() == raised
            assert _bits(values[j][~failed[j]]) == _bits([w for w in want if not isinstance(w, Exception)])
            # a failed node is evaluated again by the float integrand: the same error
            for u, w in zip(us[failed[j]].tolist(), np.array(want, dtype=object)[failed[j]]):
                again = _float_or_error(f, u)
                assert (type(again), str(again)) == (type(w), str(w))


@pytest.mark.parametrize(
    "config, pitches", [p for p in FAMILIES if p.values[0]["seed"]["family"] != "explicit"]
)
def test_family_margins_match_float_path(config, pitches):
    job = cli.parse_config(config, "chart")
    space, tol = job.space, job.tol
    H = job.H if job.seed_family == "cmc-case" else 0.0
    case = cmc.select_case(space, H, job.a, job.c, tol)
    U2, _, _, excluded, freq = cmc._build_case(space, job.m, job.a, H, job.c, case, tol)
    lo, hi = job.u_range
    n = max(4097, 1 + int(512.0 * (hi - lo) * freq / (2.0 * math.pi)))
    grid = lo + (hi - lo) * np.arange(n) / (n - 1)
    assert grid.tolist() == [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    margins = cmc._margin(job.m, job.a, U2, excluded, tol, grid)
    anchor = float(grid[int(np.argmax(margins))])
    walk = _scan_abscissae(lo, hi, anchor, (hi - lo) / (n - 1))
    for us in (grid, walk):
        got = cmc._margin(job.m, job.a, U2, excluded, tol, us)
        want = [cmc._margin(job.m, job.a, U2, excluded, tol, u) for u in us.tolist()]
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("config, pitches", FAMILIES + FAILING)
def test_xi1_column_matches_float_path(config, pitches):
    # NaturalChart.xi1 on an array, bit for bit the float calls, inside the
    # validity; over the seed's whole domain the array call raises the float
    # path's error at the first element whose float call raises
    job, _, charts = _charts(config, pitches)
    failing = config in [p.values[0] for p in FAILING]
    for chart in charts:
        space, seed, tol = chart.space, chart.seed, job.tol
        inside = np.concatenate((np.linspace(*chart.u_valid, 2001), _fill_nodes(chart)))
        assert _bits(chart.xi1(inside)) == _bits([chart.xi1(u) for u in inside.tolist()])

        lo, hi = seed.u_domain
        us = _scan_abscissae(lo, hi, 0.5 * (lo + hi), (hi - lo) / 2048)
        want = [_float_or_error(lambda u: bour.xi1_from_seed(space, seed, u, tol), u) for u in us.tolist()]
        raised = np.array([isinstance(w, Exception) for w in want])
        values = [w for w in want if not isinstance(w, Exception)]
        if raised.any():
            first = want[int(np.argmax(raised))]
            with pytest.raises(type(first)) as got:
                bour.xi1_from_seed(space, seed, us, tol)
            assert str(got.value) == str(first)
        else:
            assert _bits(bour.xi1_from_seed(space, seed, us, tol)) == _bits(values)
        assert _bits(bour.xi1_from_seed(space, seed, us[~raised], tol)) == _bits(values)
        # the radicand member fails in its xi2 radicand only, not in xi1
        assert raised.any() == (failing and "sqrt(u*u + 1)" not in config["seed"]["U"])
