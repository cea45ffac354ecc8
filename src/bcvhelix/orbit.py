"""Orbit space of the helicoidal action and the reduced mean curvature.

The action generated by X = d/dtheta + a d/dz has orbit space
{(xi1, xi2) : xi1 >= 0} with orbital metric

    g~ = dxi1^2/B^2 + xi1^2 dxi2^2 / (xi1^2 + (a B - tau xi1^2)^2),

volume function omega = sqrt(g(X, X)), and the mean curvature of the swept
surface reduces to data of the profile curve:  H = sigma' + (1/xi1 -
(kappa/4) xi1) sin(sigma).

Curvature convention: H is the TRACE of the shape operator (the Euclidean
cylinder of radius R gives H = 1/R), matching the extrinsic oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InconsistentCurve
from .numerics import DEFAULT_TOL, Tolerances, diff_central
from .spaces import BcvSpace, scaling_factor

__all__ = [
    "HelicoidalAction",
    "ProfileDomain",
    "ProfileCurve",
    "orbital_metric",
    "volume_omega",
    "induced_metric",
    "arclength_residual",
    "sigma_angle",
    "geodesic_curvature",
    "mean_curvature_reduced",
    "normal_derivative_log_omega",
]


@dataclass(frozen=True)
class HelicoidalAction:
    """A BCV space together with the pitch a of X = d/dtheta + a d/dz.

    a = 0 is the rotational action.
    """

    space: BcvSpace
    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("pitch a must be finite")


def _orbit_terms(act: HelicoidalAction, xi1: float, tol: Tolerances):
    if xi1 <= 0:
        raise DomainError(f"xi1 must be > 0, got {xi1}")
    B = scaling_factor(act.space, xi1 * xi1, tol)
    w = act.a * B - act.space.tau * xi1 * xi1  # a B - tau xi1^2
    return B, w


def orbital_metric(
    act: HelicoidalAction, xi1: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float]:
    """Diagonal components (g~_11, g~_22) of the orbital distance metric."""
    B, w = _orbit_terms(act, xi1, tol)
    return 1.0 / (B * B), xi1 * xi1 / (xi1 * xi1 + w * w)


def volume_omega(act: HelicoidalAction, xi1: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Length of the Killing field along the orbit through radius xi1."""
    B, w = _orbit_terms(act, xi1, tol)
    return math.sqrt((xi1 * xi1 + w * w) / (B * B))


@dataclass(frozen=True)
class ProfileDomain:
    """The u at which a profile evaluates: [lo, hi] and up to 1e-12 past
    either end.  ``clamps`` says where such a u is read: clamped into [lo,
    hi] (a natural chart) or at u itself (a profile curve).  The default
    admits every u but NaN."""

    lo: float = -math.inf
    hi: float = math.inf
    clamps: bool = False

    def admits(self, u):
        """Whether u is in the domain: a bool at a float u, an array of them
        at an array."""
        return (self.lo - 1e-12 <= u) & (u <= self.hi + 1e-12)

    def read(self, u):
        """The abscissa at which an admitted u, a float or an array, is read."""
        if not self.clamps:
            return u
        if not isinstance(u, np.ndarray):
            return min(max(u, self.lo), self.hi)
        return np.minimum(np.maximum(u, self.lo), self.hi)


class ProfileCurve:
    """An arc-length-parametrized curve in the orbit space, given by exact functions.

    xi1, xi2, xi1' and xi2' are read from the callables passed in, at the u
    its ``domain`` admits (u_range and 1e-12 past it).  An n-point
    grid over u_range serves three purposes: construction rejects curves whose
    arc-length residual exceeds tolerance at any grid point, its step is the
    difference step of sigma', and the angle unwrapped along it picks the 2 pi
    branch of sigma, so that sigma is continuous along the curve.
    """

    def __init__(
        self,
        act: HelicoidalAction,
        xi1: Callable[[float], float],
        xi2: Callable[[float], float],
        dxi1: Callable[[float], float],
        dxi2: Callable[[float], float],
        u_range: tuple[float, float],
        n: int = 2001,
        tol: Tolerances = DEFAULT_TOL,
    ):
        if n < 4:
            raise ValueError("need at least 4 grid points")
        lo, hi = float(u_range[0]), float(u_range[1])
        if not lo < hi:
            raise ValueError("u_range must be increasing")
        self.act = act
        self.domain = ProfileDomain(lo, hi)
        self.u_grid = np.linspace(lo, hi, n)
        self.tol = tol
        self._fns = (xi1, xi2, dxi1, dxi2)
        worst = 0.0
        sig = np.empty(n)
        for i, u in enumerate(self.u_grid):
            r, d1, d2 = xi1(u), dxi1(u), dxi2(u)
            if r <= 0:
                raise DomainError("profile curve must keep xi1 > 0")
            worst = max(worst, abs(_arclength_residual_values(act, r, d1, d2, tol)))
            sig[i] = _sigma_raw(act, r, d1, d2, tol)
        if worst > tol.arclength:
            raise InconsistentCurve(
                f"arc-length residual {worst:.3e} exceeds {tol.arclength:.1e}"
            )
        self._sigma_grid = np.unwrap(sig)

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self.u_grid[0]), float(self.u_grid[-1])

    def _check_u(self, u: float):
        if not self.domain.admits(u):
            lo, hi = self.u_range
            raise DomainError(f"u={u} outside curve domain [{lo}, {hi}]")

    def xi1(self, u: float) -> float:
        self._check_u(u)
        return self._fns[0](u)

    def xi2(self, u: float) -> float:
        self._check_u(u)
        return self._fns[1](u)

    def dxi1(self, u: float) -> float:
        self._check_u(u)
        return self._fns[2](u)

    def dxi2(self, u: float) -> float:
        self._check_u(u)
        return self._fns[3](u)

    def sigma(self, u: float) -> float:
        """Profile angle at u, on the 2 pi branch of the nearest grid point."""
        raw = _sigma_raw(self.act, self.xi1(u), self.dxi1(u), self.dxi2(u), self.tol)
        lo, hi = self.u_range
        n = len(self.u_grid)
        i = min(max(round((u - lo) / (hi - lo) * (n - 1)), 0), n - 1)
        return raw + 2.0 * math.pi * round((self._sigma_grid[i] - raw) / (2.0 * math.pi))

    def grid_step(self) -> float:
        return float(np.min(np.diff(self.u_grid)))


def _arclength_residual_values(
    act: HelicoidalAction, xi1: float, dxi1: float, dxi2: float, tol: Tolerances
) -> float:
    B, w = _orbit_terms(act, xi1, tol)
    return (dxi1 * dxi1) / (B * B) + xi1 * xi1 * dxi2 * dxi2 / (xi1 * xi1 + w * w) - 1.0


def _sigma_raw(
    act: HelicoidalAction, xi1: float, dxi1: float, dxi2: float, tol: Tolerances
) -> float:
    B, w = _orbit_terms(act, xi1, tol)
    cos_part = dxi1 / B
    sin_part = dxi2 * xi1 / math.sqrt(xi1 * xi1 + w * w)
    return math.atan2(sin_part, cos_part)


def arclength_residual(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """xi1'^2/B^2 + xi1^2 xi2'^2/(xi1^2 + (aB - tau xi1^2)^2) - 1 at u."""
    return _arclength_residual_values(act, curve.xi1(u), curve.dxi1(u), curve.dxi2(u), tol)


def induced_metric(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float, float]:
    """(E, F, G) of the swept helicoidal surface at parameter u.

    Assumes arc-length parametrization; then E G - F^2 = omega^2 exactly.
    """
    xi1 = curve.xi1(u)
    dxi2 = curve.dxi2(u)
    B, w = _orbit_terms(act, xi1, tol)
    omega_sq = (xi1 * xi1 + w * w) / (B * B)
    if omega_sq <= 0:
        raise DomainError(f"orbit degenerates at u={u} (omega = 0)")
    omega = math.sqrt(omega_sq)
    g = dxi2 * w / (B * omega)
    E = 1.0 + g * g
    F = dxi2 * w / B
    return E, F, omega_sq


def sigma_angle(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Angle sigma with xi1' = B cos(sigma), xi2' = sin(sigma) sqrt(...)/xi1.

    Continuous (unwrapped) along the curve.  Raises InconsistentCurve when
    the two defining relations disagree beyond tolerance, i.e. the curve is
    not arc-length parametrized at u.
    """
    res = arclength_residual(act, curve, u, tol)
    if abs(res) > 10.0 * tol.arclength:
        raise InconsistentCurve(
            f"sigma undefined at u={u}: arc-length residual {res:.3e}"
        )
    return curve.sigma(u)


def geodesic_curvature(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Geodesic curvature of the profile curve in the orbital metric."""
    xi1 = curve.xi1(u)
    B, w = _orbit_terms(act, xi1, tol)
    sig = sigma_angle(act, curve, u, tol)
    h_sig = curve.grid_step()
    dsig = diff_central(lambda v: curve.sigma(v), u, order=1, h=h_sig)
    dg22 = diff_central(
        lambda r: orbital_metric(act, r, tol)[1], xi1, order=1, h=1e-4
    )
    return B * (xi1 * xi1 + w * w) * dg22 / (2.0 * xi1 * xi1) * math.sin(sig) + dsig


def normal_derivative_log_omega(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """D_n ln(omega) along the profile normal n = (-B sin s, sqrt(...) cos s / xi1).

    omega depends on xi1 only, so only the first normal component acts.
    """
    xi1 = curve.xi1(u)
    B, _ = _orbit_terms(act, xi1, tol)
    sig = sigma_angle(act, curve, u, tol)
    dlog = diff_central(
        lambda r: math.log(volume_omega(act, r, tol)), xi1, order=1, h=1e-5
    )
    return -B * math.sin(sig) * dlog


def mean_curvature_reduced(
    act: HelicoidalAction, curve: ProfileCurve, u: float, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Mean curvature of the swept surface: sigma' + (1/xi1 - kappa xi1/4) sin sigma."""
    xi1 = curve.xi1(u)
    sig = sigma_angle(act, curve, u, tol)
    h_sig = curve.grid_step()
    dsig = diff_central(lambda v: curve.sigma(v), u, order=1, h=h_sig)
    return dsig + (1.0 / xi1 - 0.25 * act.space.kappa * xi1) * math.sin(sig)
