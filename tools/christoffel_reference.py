"""50-digit reference values of the BCV metric's Christoffel symbols.

    python tools/christoffel_reference.py [OUT]

For one space of each isometry class of the BCV family this computes the
second-kind symbols Gamma^k_ij at a few points, with mpmath at 50
significant digits: the metric is transcribed here from its definition,
apart from ``bcvhelix``, its first derivatives are mpmath's numerical
derivatives and its inverse is mpmath's matrix inverse.  Each class with
kappa < 0 gets one more point 1e-6 inside the edge of the metric domain.
The result goes to ``tests/data/christoffel_reference.json`` (or OUT),
which ``tests/test_spaces.py`` reads; the test does not run this script.
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "tests", "data", "christoffel_reference.json")
DIGITS = 50

# (class, kappa, tau): one space of each class, as ``spaces.classify`` names them
SPACES = [
    ("Euclidean", 0.0, 0.0),
    ("Heisenberg", 0.0, 0.5),
    ("Sphere", 1.0, 0.5),
    ("SphereProduct", 1.5, 0.0),
    ("HyperbolicProduct", -0.75, 0.0),
    ("SU2", 2.0, 0.5),
    ("SL2R-cover", -1.0, 0.35),
]
# (radius as a fraction of the domain's radius, or of 1.5 where the domain
# is all of R^3; angle; z)
POINTS = [(0.2, 0.3, -0.7), (0.55, 2.1, 0.4), (0.85, -1.9, 1.3)]
EDGE_GAP = 1e-6  # the edge point's distance inside the domain's radius


def _points(kappa: float) -> list[list[float]]:
    """Cartesian points of one space, as floats."""
    r_max = 2.0 / math.sqrt(-kappa) if kappa < 0 else 1.5
    pts = [(f * r_max, th, z) for f, th, z in POINTS]
    if kappa < 0:
        pts.append((r_max - EDGE_GAP, 0.8, 0.2))
    return [[r * math.cos(th), r * math.sin(th), z] for r, th, z in pts]


def _metric(kappa, tau, x, y):
    """The Cartesian metric g = (dx^2 + dy^2)/B^2 + (dz + tau (y dx - x dy)/B)^2."""
    B = 1 + kappa * (x * x + y * y) / 4
    w = [tau * y / B, -tau * x / B, mp.mpf(1)]
    return [[(1 / B**2 if i == j < 2 else 0) + w[i] * w[j] for j in range(3)] for i in range(3)]


def christoffels(kappa: float, tau: float, p: list[float]) -> list:
    """Gamma^k_ij at p, as mpf values indexed [k][i][j]."""
    kappa, tau = mp.mpf(kappa), mp.mpf(tau)
    x, y, z = (mp.mpf(c) for c in p)
    g_inv = mp.inverse(mp.matrix(_metric(kappa, tau, x, y)))
    # dg[l][i][j] = d_l g_ij; g does not depend on z
    dg = [[[mp.mpf(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            dg[0][i][j] = mp.diff(lambda s: _metric(kappa, tau, x + s, y)[i][j], 0)
            dg[1][i][j] = mp.diff(lambda s: _metric(kappa, tau, x, y + s)[i][j], 0)
    return [
        [
            [
                sum(g_inv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(3)) / 2
                for j in range(3)
            ]
            for i in range(3)
        ]
        for k in range(3)
    ]


def reference() -> dict:
    mp.mp.dps = DIGITS
    spaces = []
    for name, kappa, tau in SPACES:
        points = []
        for p in _points(kappa):
            gamma = christoffels(kappa, tau, p)
            points.append({"p": p, "gamma": [[[mp.nstr(v, 30) for v in row] for row in m] for m in gamma]})
            print(f"{name} p={p}", file=sys.stderr)
        spaces.append({"class": name, "kappa": kappa, "tau": tau, "points": points})
    return {
        "generator": "tools/christoffel_reference.py",
        "digits": DIGITS,
        "mpmath": mp.__version__,
        "spaces": spaces,
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
