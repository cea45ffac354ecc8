"""The library's xi2 and theta0 against a 50-digit reference.

``tests/data/chart_reference.json`` holds, for every benchmark family, mpmath
integrals of the chart's integrands from u0 to a few abscissae on each side
of it (``tools/chart_reference.py`` writes it; this test only reads it).
Each value must be within the quadrature's budget ``quad_abs`` for its side
of u0, plus rounding.
"""

import json
from pathlib import Path

import pytest

from bcvhelix import DEFAULT_TOL, cli

DATA = Path(__file__).resolve().parent / "data" / "chart_reference.json"
REFERENCE = json.loads(DATA.read_text())

# ROADMAP item 4(e): radicands below radicand_clamp count as 0, so at the
# double root of m^2 U^2 - a^2 that anchors this member both integrands read
# 0 inside a band around u0 instead of their limits -0.5 and 0.25
CLAMP_BAND = {"cmc-oscillatory"}


def _chart(config):
    job = cli.parse_config(config, "chart")
    U, meta = cli.resolve_profile(job)
    return cli.make_chart(job, U, meta)[0]


def _params():
    for family in REFERENCE["families"]:
        marks = ()
        if family["name"] in CLAMP_BAND:
            marks = pytest.mark.xfail(
                strict=True, reason="ROADMAP 4(e): radicand clamp band at a double root"
            )
        yield pytest.param(family, id=family["name"], marks=marks)


@pytest.mark.parametrize("family", _params())
def test_chart_matches_reference(family):
    chart = _chart(family["config"])
    assert chart.u0 == family["u0"]
    for point in family["points"]:
        u = point["u"]
        for name in ("xi2", "theta0"):
            ref = float(point[name])
            value = getattr(chart, name)(u)
            bound = DEFAULT_TOL.quad_abs + 1e-14 * max(1.0, abs(ref))
            assert abs(value - ref) <= bound, (name, u, value, ref)
