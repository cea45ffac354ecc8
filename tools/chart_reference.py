"""50-digit reference values of the natural chart's xi2 and theta0.

    PYTHONPATH=src python tools/chart_reference.py [OUT]

For every benchmark family (the twelve acceptance-C3 families of the
``verify`` workload and the explicit catenoid of ``construct``) this
integrates the xi2 and theta0 integrands from the chart's anchor u0 to a few
abscissae on each side of it, with mpmath at 50 significant digits.  U and
the chart formulas are transcribed here from the paper's closed forms, apart
from ``bcvhelix``; the library only supplies u0 and the validity interval
that picks the abscissae.  U' is mpmath's numerical derivative of U at the
working precision.  The result goes to ``tests/data/chart_reference.json``
(or OUT), which ``tests/test_chart_reference.py`` reads; the test does not
run this script.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "tests", "data", "chart_reference.json")
DIGITS = 50
# abscissae at these fractions of the way from u0 to each end of u_valid
FRACTIONS = (0.25, 0.5, 0.75)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (the benchmark's job lists)


def _jobs() -> list[tuple[str, dict]]:
    """(name, config) of every benchmark family, in a fixed order."""
    jobs = [(job.name, job.config) for job in inputs._fixed_jobs("verify")]
    jobs += [(job.name, job.config) for job in inputs._fixed_jobs("construct")
             if job.command == "chart"]
    return jobs


def _U2_closed_form(kappa, tau, m, a, H, c):
    """U^2(u) of the CMC-H family with integration constant c, by case."""
    kappa, tau, m, a, H, c = (mp.mpf(x) for x in (kappa, tau, m, a, H, c))
    m2 = m * m
    b = (1 - 2 * a * tau) * (kappa * (1 + 2 * a * tau) - 8 * tau**2) - c**2
    if kappa == 4 * tau**2:
        if H == 0 and tau == 0 and kappa == 0:
            return lambda u: (u**2 + a**2 + c**2 / 4) / m2
        lam = H**2 + 4 * tau**2
        c1 = 1 + (1 - 2 * a * tau) ** 2 - c * H
        c2 = -c**2 - 4 * a**2 * (1 - a * tau) ** 2
        amp = mp.sqrt(c1**2 + c2 * lam)
        return lambda u: (c1 + amp * mp.sin(mp.sqrt(lam) * u)) / (m2 * lam)
    nu = H**2 + kappa
    if nu == 0:
        b1 = 2 * a * tau * H**2 + 4 * tau**2 - c * H
        b2 = -b / (2 * b1)
        b3 = a**2 * H**2 + 4 * a * tau - 1
        mu = 4 * tau**2 + H**2
        return lambda u: ((b1 * u**2 / 2 + b2) ** 2 + b3) / (m2 * mu)
    b1 = 4 * tau**2 - 2 * a * kappa * tau - c * H
    b3 = 4 * a * tau - a**2 * kappa - 1
    S = mp.sqrt(b1**2 + b * nu)
    denom = m2 * (4 * tau**2 - kappa) * nu**2
    if nu > 0:
        w = lambda u: b1 + S * mp.sin(mp.sqrt(nu) * u)
    else:
        w = lambda u: b1 - S * mp.cosh(mp.sqrt(-nu) * u)
    return lambda u: (nu**2 * b3 + w(u) ** 2) / denom


def _U(cfg: dict):
    seed = cfg["seed"]
    if seed["family"] == "explicit":
        assert seed["U"] == "sqrt(u*u + 1)", seed["U"]
        return lambda u: mp.sqrt(u * u + 1)
    H = seed.get("H", 0.0) if seed["family"] == "cmc-case" else 0.0
    U2 = _U2_closed_form(
        cfg["space"]["kappa"], cfg["space"]["tau"], seed["m"], seed["a"], H, seed["c"]
    )
    return lambda u: mp.sqrt(U2(u))


def _integrands(cfg: dict):
    """The xi2 and theta0 integrands of the family's chart, u -> (xi2', theta0')."""
    kappa, tau = (mp.mpf(cfg["space"][k]) for k in ("kappa", "tau"))
    m, a = mp.mpf(abs(cfg["seed"]["m"])), mp.mpf(cfg["seed"]["a"])
    U = _U(cfg)

    def f(u):
        # the anchor of the oscillatory member is a double root of m^2 U^2 - a^2,
        # which cancels to ~(u - u0)^2 at the quadrature's nodes next to it
        with mp.workdps(3 * DIGITS + 20):
            Uv, dU = U(u), mp.diff(U, u)
            num = m**2 * Uv**2 - a**2
            D = (1 - 2 * a * tau) ** 2 + num * (4 * tau**2 - kappa)
            den = (1 + mp.sqrt(D)) ** 2 - 4 * tau**2 * m**2 * Uv**2
            xi1sq = 4 * num / den
            p = m**2 * Uv * dU
            R = xi1sq - p**2 * (4 + kappa * xi1sq) ** 2 / (16 * D)
            root = mp.sqrt(max(R, 0))
            xi2 = m * Uv * (4 + kappa * xi1sq) / (4 * xi1sq) * root
            theta0 = ((4 * tau - a * kappa) * xi1sq - 4 * a) / (4 * m * Uv * xi1sq) * root
        return xi2, theta0

    return f


def _chart(cfg: dict):
    """The library's chart of the job, built as the CLI builds it."""
    from bcvhelix import cli

    job = cli.parse_config(cfg, "chart")
    U, meta = cli.resolve_profile(job)
    return cli.make_chart(job, U, meta)[0]


def reference() -> dict:
    mp.mp.dps = DIGITS
    families = []
    for name, cfg in _jobs():
        chart = _chart(cfg)
        u0, (lo, hi) = chart.u0, chart.u_valid
        f = _integrands(cfg)
        points = []
        for end in (lo, hi):
            for frac in FRACTIONS:
                u = u0 + frac * (end - u0)
                xi2 = mp.quad(lambda x: f(x)[0], [mp.mpf(u0), mp.mpf(u)])
                theta0 = mp.quad(lambda x: f(x)[1], [mp.mpf(u0), mp.mpf(u)])
                points.append({"u": u, "xi2": mp.nstr(xi2, 30), "theta0": mp.nstr(theta0, 30)})
                print(f"{name} u={u:+.6f} xi2={mp.nstr(xi2, 20)} theta0={mp.nstr(theta0, 20)}",
                      file=sys.stderr)
        points.sort(key=lambda p: p["u"])
        families.append({"name": name, "config": cfg, "u0": u0, "points": points})
    return {
        "generator": "tools/chart_reference.py",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "families": families,
    }


def main(argv: list[str]) -> int:
    out = argv[0] if argv else DEFAULT_OUT
    data = reference()
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
