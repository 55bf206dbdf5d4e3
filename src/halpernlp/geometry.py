"""Geometry of the finite-dimensional lp space and its dual.

All points are plain float arrays; an ``LpSpace`` carries the dimension
and the exponent and provides norms, the pairing, the normalized duality
map J and its inverse, the Lyapunov functional phi, and convex
combinations taken in dual coordinates.

J has the closed form  (Jx)_i = ||x||_p^{2-p} |x_i|^{p-1} sign(x_i),
with J0 = 0; the inverse is the same formula on the dual space with the
conjugate exponent q = p / (p - 1).

Input is checked once, where it enters the library: by the public
``LpSpace`` methods, ``operators.resolvent``, ``sets.generalized_projection``,
``driver.HalpernConfig`` and ``experiments.config_from_dict``.  The solver
loops behind them (Newton, projected gradient, bisection, the driver step)
run the private kernels below on arrays that were already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

P_MIN = 1.1
P_MAX = 10.0


class DimensionMismatchError(ValueError):
    pass


def _as_finite_array(x, dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (dim,):
        raise DimensionMismatchError(
            f"expected a vector of length {dim}, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError("vector has non-finite coordinates")
    return a


# The private kernels below take validated float arrays and do not check
# them again; the public LpSpace methods validate each input once.


def _power_norm(x: np.ndarray, exponent: float) -> float:
    # rescale by the max coordinate so large exponents cannot overflow
    a = np.abs(x)
    m = float(np.maximum.reduce(a, initial=0.0))
    if m == 0.0:
        return 0.0
    return m * float(np.add.reduce((a / m) ** exponent)) ** (1.0 / exponent)


def _signed_power(x: np.ndarray, exponent: float) -> np.ndarray:
    # |x_i|^e * sign(x_i); needs e > 0, so that 0^e = 0 and no zero mask is
    # needed.  Every caller passes e = p - 1 or q - 1, which is > 0 for p in
    # [P_MIN, P_MAX].  np.sign(-0.0) is +0.0, so a zero coordinate maps to
    # +0.0 whatever its sign (np.copysign would give -0.0 for -0.0).
    return np.abs(x) ** exponent * np.sign(x)


def _dual_map(x: np.ndarray, exponent: float, nx: float | None = None) -> np.ndarray:
    """Duality map of the l^exponent norm; nx is ||x||_exponent if known."""
    if nx is None:
        nx = _power_norm(x, exponent)
    if nx == 0.0:
        return np.zeros_like(x)
    # Jx = nx * (|x|/nx)^{e-1} sign(x): every factor is scale-safe
    return nx * _signed_power(x / nx, exponent - 1.0)


class NormedPoint(NamedTuple):
    """A checked point with its p-norm and its image under J.

    The solver loops compute ||x||_p and Jx once per point and pass this
    along, so that a later consumer of the same point does not recompute them.
    """

    x: np.ndarray
    norm: float
    jx: np.ndarray


def _normed(x: np.ndarray, p: float) -> NormedPoint:
    nx = _power_norm(x, p)
    return NormedPoint(x, nx, _dual_map(x, p, nx))


def _phi(x: np.ndarray, nx: float, jy: np.ndarray, ny: float) -> float:
    """phi(x, y) from x, ||x||, Jy and ||y||."""
    v = nx * nx - 2.0 * float(np.dot(x, jy)) + ny * ny
    # exact nonnegativity can be lost to rounding near x == y
    return max(v, 0.0)


def _dual_combination(
    lam: float, x: np.ndarray, y: np.ndarray, p: float, q: float, jx=None, jy=None
) -> np.ndarray:
    """J^{-1}(lam*Jx + (1-lam)*Jy), x or y itself at the ends; jx and jy are
    Jx and Jy if known."""
    if lam == 1.0:
        return x.copy()
    if lam == 0.0:
        return y.copy()
    if jx is None:
        jx = _dual_map(x, p)
    if jy is None:
        jy = _dual_map(y, p)
    return _dual_map(lam * jx + (1.0 - lam) * jy, q)


@dataclass(frozen=True)
class LpSpace:
    """R^dim with the p-norm; smooth and uniformly convex for p in (1, inf)."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not (P_MIN <= self.p <= P_MAX):
            raise ValueError(
                f"exponent must lie in [{P_MIN}, {P_MAX}], got {self.p}"
            )

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    def check(self, x) -> np.ndarray:
        return _as_finite_array(x, self.dim)

    # --- norms and pairing -------------------------------------------------

    def norm(self, x) -> float:
        return _power_norm(self.check(x), self.p)

    def dual_norm(self, xstar) -> float:
        return _power_norm(self.check(xstar), self.q)

    def pairing(self, x, xstar) -> float:
        return float(np.dot(self.check(x), self.check(xstar)))

    # --- duality maps ------------------------------------------------------

    def duality_map(self, x) -> np.ndarray:
        """J: <x, Jx> = ||x||^2 and ||Jx||_q = ||x||_p; identity for p = 2."""
        return _dual_map(self.check(x), self.p)

    def inverse_duality_map(self, xstar) -> np.ndarray:
        """J^{-1}, the duality map of the dual space (exponent q)."""
        return _dual_map(self.check(xstar), self.q)

    # --- Lyapunov functional ----------------------------------------------

    def lyapunov(self, x, y) -> float:
        """phi(x, y) = ||x||^2 - 2<x, Jy> + ||y||^2 >= (||x|| - ||y||)^2."""
        x = self.check(x)
        y = self.check(y)
        ny = _power_norm(y, self.p)
        return _phi(x, _power_norm(x, self.p), _dual_map(y, self.p, ny), ny)

    def dual_convex_combination(self, lam: float, x, y) -> np.ndarray:
        """J^{-1}(lam*Jx + (1-lam)*Jy); ordinary convex combination at p = 2."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"combination weight must lie in [0, 1], got {lam}")
        x = self.check(x)
        y = self.check(y)
        return _dual_combination(lam, x, y, self.p, self.q)
