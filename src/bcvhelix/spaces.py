"""BCV spaces: metrics, frames, Killing fields, and Christoffel symbols.

The two-parameter metric family

    g = (dx^2 + dy^2)/B^2 + (dz + tau (y dx - x dy)/B)^2,
    B = 1 + (kappa/4)(x^2 + y^2),

is defined on the open subset of R^3 where B > 0.  Christoffel symbols come
from the exact first derivatives of the metric's coefficients and the
inverse metric E^T E of the orthonormal frame E.  That algebra differentiates
``metric_cartesian`` only; it shares nothing with the profile formulas of
``bour`` and ``cmc``, so the extrinsic oracle built on it stays independent
of the main pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .numerics import DEFAULT_TOL, Tolerances, diff_central

__all__ = [
    "BcvSpace",
    "SpaceClass",
    "scaling_factor",
    "domain_errors",
    "metric_cartesian",
    "metric_cylindrical",
    "inverse_metric",
    "orthonormal_frame",
    "killing_basis",
    "christoffels",
    "classify",
    "killing_residual",
]


class SpaceClass(Enum):
    EUCLIDEAN = "Euclidean"
    SPHERE = "Sphere"
    SPHERE_PRODUCT = "SphereProduct"
    HYPERBOLIC_PRODUCT = "HyperbolicProduct"
    HEISENBERG = "Heisenberg"
    SU2 = "SU2"
    SL2R_COVER = "SL2R-cover"


@dataclass(frozen=True)
class BcvSpace:
    """The pair (kappa, tau) selecting one metric of the family."""

    kappa: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.tau)):
            raise ValueError("kappa and tau must be finite")

    def B(self, rsq: float) -> float:
        return scaling_factor(self, rsq)

    @property
    def max_radius(self) -> float:
        """Radius of the domain boundary (inf unless kappa < 0)."""
        if self.kappa >= 0:
            return math.inf
        return 2.0 / math.sqrt(-self.kappa)


def _points(p) -> np.ndarray:
    """Cartesian coordinates of one point, shape (3,), or of a (..., 3) array."""
    return np.asarray(p, dtype=float)


def _any(flags) -> bool:
    """Whether any flag is set, for one flag or an array of them."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def domain_errors(space: BcvSpace, rsq, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """(B, errors): B = 1 + (kappa/4) rsq, and {k: DomainError} for each
    entry k of the flattened rsq outside the metric domain (B < margin),
    the error ``scaling_factor`` raises there; empty when none is."""
    B = 1.0 + 0.25 * space.kappa * rsq
    outside = B < tol.domain_margin
    if not _any(outside):
        return B, {}
    flat_B, flat_rsq = np.ravel(B), np.ravel(rsq)
    return B, {
        k: DomainError(
            f"point outside the metric domain: B={flat_B[k]:.3e} at r^2={flat_rsq[k]} (kappa={space.kappa})"
        )
        for k in np.flatnonzero(outside).tolist()
    }


def scaling_factor(space: BcvSpace, rsq, tol: Tolerances = DEFAULT_TOL):
    """B = 1 + (kappa/4) rsq with the domain guard B >= margin.

    ``rsq`` may be an array; the guard then holds for every entry.
    """
    if _any(rsq < 0):
        raise ValueError(f"rsq must be >= 0, got {rsq}")
    B, errors = domain_errors(space, rsq, tol)
    if errors:
        raise next(iter(errors.values()))  # the first entry outside
    return B


def metric_cartesian(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Metric components in (x, y, z); symmetric positive definite.

    ``p`` is one point (result (3, 3)) or a (..., 3) array of points
    (result (..., 3, 3)); DomainError if any point is outside the domain.
    """
    q = _points(p)
    x, y = q[..., 0], q[..., 1]
    B = scaling_factor(space, x * x + y * y, tol)
    # one-form dz + alpha dx + beta dy
    alpha = space.tau * y / B
    beta = -space.tau * x / B
    invB2 = 1.0 / (B * B)
    g = np.empty(q.shape[:-1] + (3, 3))
    g[..., 0, 0] = invB2 + alpha * alpha
    g[..., 1, 1] = invB2 + beta * beta
    g[..., 2, 2] = 1.0
    g[..., 0, 1] = g[..., 1, 0] = alpha * beta
    g[..., 0, 2] = g[..., 2, 0] = alpha
    g[..., 1, 2] = g[..., 2, 1] = beta
    return g


def metric_cylindrical(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Metric components in (r, theta, z).

    Defined at r = 0 as well (g_thth = 0 there), but the matrix is singular
    on the axis; callers needing invertibility keep r >= tol.r_min.
    """
    r = float(p[0])
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    rsq = r * r
    B = scaling_factor(space, rsq, tol)
    tau = space.tau
    return np.array(
        [
            [1.0 / (B * B), 0.0, 0.0],
            [0.0, rsq * (1.0 + tau * tau * rsq) / (B * B), -tau * rsq / B],
            [0.0, -tau * rsq / B, 1.0],
        ]
    )


def orthonormal_frame(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The global orthonormal frame E1, E2, E3 as rows of coordinate components."""
    x, y, z = _points(p)
    B = scaling_factor(space, x * x + y * y, tol)
    tau = space.tau
    return np.array(
        [
            [B, 0.0, -tau * y],
            [0.0, B, tau * x],
            [0.0, 0.0, 1.0],
        ]
    )


def killing_basis(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The four Killing fields X1..X4 as rows of coordinate components.

    Frame components are converted to coordinate components eagerly; vectors
    live in one representation throughout.
    """
    x, y, z = _points(p)
    B = scaling_factor(space, x * x + y * y, tol)
    kappa, tau = space.kappa, space.tau
    E = orthonormal_frame(space, p, tol)
    coeffs = np.array(
        [
            [1.0 - kappa * y * y / (2 * B), kappa * x * y / (2 * B), 2 * tau * y / B],
            [kappa * x * y / (2 * B), 1.0 - kappa * x * x / (2 * B), -2 * tau * x / B],
            [-y / B, x / B, -tau * (x * x + y * y) / B],
            [0.0, 0.0, 1.0],
        ]
    )
    return coeffs @ E


def classify(space: BcvSpace) -> SpaceClass:
    """Simply connected model of the isometry class of (kappa, tau)."""
    kappa, tau = space.kappa, space.tau
    if kappa == 0.0 and tau == 0.0:
        return SpaceClass.EUCLIDEAN
    if kappa == 4.0 * tau * tau:
        return SpaceClass.SPHERE
    if tau == 0.0:
        return SpaceClass.SPHERE_PRODUCT if kappa > 0 else SpaceClass.HYPERBOLIC_PRODUCT
    if kappa == 0.0:
        return SpaceClass.HEISENBERG
    return SpaceClass.SU2 if kappa > 0 else SpaceClass.SL2R_COVER


def inverse_metric(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """g^{-1} = E^T E in (x, y, z), E the rows of ``orthonormal_frame``.

    ``p`` is one point (result (3, 3)) or a (..., 3) array of points
    (result (..., 3, 3)); DomainError if any point is outside the domain.
    """
    q = _points(p)
    x, y = q[..., 0], q[..., 1]
    rsq = x * x + y * y
    B = scaling_factor(space, rsq, tol)
    tau = space.tau
    g_inv = np.zeros(q.shape[:-1] + (3, 3))
    g_inv[..., 0, 0] = g_inv[..., 1, 1] = B * B
    g_inv[..., 0, 2] = g_inv[..., 2, 0] = -tau * y * B
    g_inv[..., 1, 2] = g_inv[..., 2, 1] = tau * x * B
    g_inv[..., 2, 2] = 1.0 + tau * tau * rsq
    return g_inv


def christoffels(space: BcvSpace, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Gamma^k_{ij} of the Cartesian metric from its exact derivatives.

    ``metric_cartesian`` is g = D/B^2 + w w^T with D = diag(1, 1, 0) and
    w = (alpha, beta, 1), so d_l g_ij = d_l(B^-2) D_ij + d_l w_i w_j +
    w_i d_l w_j, with d_z g = 0; the inverse is ``inverse_metric``.
    Symmetric in (i, j) by construction.  ``p`` is one point (result
    (3, 3, 3)) or a (..., 3) array of points (result (..., 3, 3, 3));
    DomainError if any point is outside the domain.
    """
    q = _points(p)
    x, y = q[..., 0], q[..., 1]
    B = scaling_factor(space, x * x + y * y, tol)
    tau = space.tau
    B_x, B_y = 0.5 * space.kappa * x, 0.5 * space.kappa * y
    alpha, beta = tau * y / B, -tau * x / B
    w = np.zeros(q.shape[:-1] + (3,))
    w[..., 0], w[..., 1], w[..., 2] = alpha, beta, 1.0
    dw = np.zeros(q.shape[:-1] + (3, 3))  # dw[..., l, i] = d_l w_i
    dw[..., 0, 0] = -alpha * B_x / B
    dw[..., 1, 0] = (tau - alpha * B_y) / B
    dw[..., 0, 1] = -(tau + beta * B_x) / B
    dw[..., 1, 1] = -beta * B_y / B
    # dg[..., l, i, j] = d_l g_ij; a sum with its transpose is exactly symmetric
    dg = dw[..., :, :, None] * w[..., None, None, :]
    dg = dg + np.swapaxes(dg, -1, -2)
    for l, B_l in ((0, B_x), (1, B_y)):
        d_inv_B2 = -2.0 * B_l / (B * B * B)
        dg[..., l, 0, 0] += d_inv_B2
        dg[..., l, 1, 1] += d_inv_B2
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    term = dg + np.swapaxes(dg, -3, -2)
    term -= np.moveaxis(dg, -3, -1)
    return np.einsum("...kl,...ijl->...kij", 0.5 * inverse_metric(space, q, tol), term)


def killing_residual(
    space: BcvSpace,
    p,
    k: int,
    h: float = DEFAULT_TOL.fd_first,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Max |nabla_i X_j + nabla_j X_i| for the k-th Killing field at p.

    The covariant components X_j = g_jl X^l are differentiated numerically;
    Christoffel terms come from ``christoffels``.  Zero (to tolerance) iff
    X_k generates isometries.
    """
    x0 = _points(p)

    def lowered(q: np.ndarray) -> np.ndarray:
        return metric_cartesian(space, q, tol) @ killing_basis(space, q, tol)[k]

    dX = np.empty((3, 3))  # dX[i, j] = d_i X_j
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        dX[axis] = diff_central(lambda s: lowered(x0 + s * e), 0.0, 1, h)
    gamma = christoffels(space, x0, tol=tol)
    X_low = lowered(x0)
    nabla = dX - np.einsum("kij,k->ij", gamma, X_low)
    return float(np.max(np.abs(nabla + nabla.T)))
