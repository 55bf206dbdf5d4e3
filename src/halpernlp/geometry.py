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
loops behind them (Newton, projected gradient, the scalar and multiplier
solves of the sets, the driver step) run the private kernels below on
arrays that were already checked.
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


def _row_power_norms(rows: np.ndarray, exponent: float) -> list[float]:
    """_power_norm of each row of a 2-d array, bit for bit, in one reduction."""
    a = np.abs(rows)
    m = np.maximum.reduce(a, axis=1, initial=0.0)
    # a zero row is divided by 1, and its norm is 0 as in _power_norm
    s = np.add.reduce((a / np.where(m > 0.0, m, 1.0)[:, None]) ** exponent, axis=1)
    return [mi * si ** (1.0 / exponent) if mi else 0.0 for mi, si in zip(m.tolist(), s.tolist())]


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


def _row_dual_maps(rows: np.ndarray, exponent: float, norms) -> np.ndarray:
    """_dual_map of each row with its known norm, bit for bit; a zero row is
    divided by 1 and scaled by 0, which gives +0.0s as _dual_map does."""
    n = np.asarray(norms, dtype=float)[:, None]
    return n * _signed_power(rows / np.where(n == 0.0, 1.0, n), exponent - 1.0)


def _dual_map_jacobian(x: np.ndarray, exponent: float, nx: float | None = None):
    """Jacobian of the l^exponent duality map at x as (d, gamma, u), meaning
    diag(d) + gamma u u'; nx is ||x||_exponent if known.

    With e = exponent and s = ||x||_e: d_i = (e-1) s^{2-e} |x_i|^{e-2},
    gamma = (2-e) s^{2-2e} and u_i = |x_i|^{e-1} sign(x_i) = x_i |x_i|^{e-2}.
    The matrix is PSD since the duality map is monotone, and it is
    0-homogeneous in x.
    """
    if exponent == 2.0:
        return np.ones(x.size), 0.0, np.zeros(x.size)
    if nx is None:
        nx = _power_norm(x, exponent)
    if nx == 0.0:
        # J is differentiable at 0 only for e < 2 (with dJ = 0 limit direction
        # issues); return a small multiple of I as a usable Newton model
        return np.full(x.size, 1e-8), 0.0, np.zeros(x.size)
    ax = np.abs(x)
    # 0^{e-2} is 0 for e > 2; for e < 2 it is inf, and zeros are masked
    diag = ax ** (exponent - 2.0) if exponent > 2.0 else np.where(ax > 0, ax ** (exponent - 2.0), 0.0)
    u = x * diag
    if exponent < 2.0:
        # |x_i|^{e-2} blows up at zeros only for e < 2; clipping it for e > 2
        # would bind at large |x_i| and make the Newton model indefinite
        diag = np.minimum(diag, 1e12)
    d = (exponent - 1.0) * nx ** (2.0 - exponent) * diag
    return d, (2.0 - exponent) * nx ** (2.0 - 2.0 * exponent), u


class NormedPoint(NamedTuple):
    """A checked point with its p-norm and its image under J.

    The solver loops compute ||x||_p and Jx once per point and pass this
    along, so that a later consumer of the same point does not recompute them.
    A blend's S x is given in the dual only, with x None.
    """

    x: np.ndarray | None
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


def _dual_combination(lam: float, x: np.ndarray, y: np.ndarray, p: float, q: float) -> np.ndarray:
    """J^{-1}(lam*Jx + (1-lam)*Jy), x or y itself at the ends."""
    if lam == 1.0:
        return x.copy()
    if lam == 0.0:
        return y.copy()
    return _dual_map(lam * _dual_map(x, p) + (1.0 - lam) * _dual_map(y, p), q)


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
