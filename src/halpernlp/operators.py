"""Maximal monotone operators on the lp space with computable resolvents.

Every implemented variant is a single-valued continuous monotone map
defined on the whole space (hence maximal).  The resolvent
L_r = (J + rA)^{-1} J solves J z + r A z = J x; linear cases at p = 2
use a direct solve, the duality-residual variant has a closed form, and
the rest use a damped Newton iteration on the residual with analytic
Jacobians and Levenberg regularization.

The Jacobian of J is diagonal plus rank one.  When the operator's
Jacobian is a constant diagonal matrix (``GradientOfQuadratic`` or
``LinearMonotone`` with a diagonal matrix), so is the Newton matrix, and
each Newton step is solved by the Sherman-Morrison formula in O(dim);
otherwise the matrix is assembled and solved densely.

Newton computes ||z||_p and J z once per trial point, in the residual, and
keeps them with its accepted iterate (and its best-so-far fallback) as a
``NormedPoint``: the Jacobian of J takes ||z||_p from there, and
``ResolventResult.normed`` returns them with the answer.  A caller that has
J x or a warm start's norm and J passes them in instead of having them
recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LpSpace, NormedPoint, _dual_map, _normed, _power_norm
from .sets import AffineSet
from . import tolerances

_NEWTON_MAX_ITER = 200
_NEWTON_GRAD_TOL = 1e-11

PSD_EIG_TOL = -1e-10


def _check_psd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    sym = 0.5 * (m + m.T)
    if float(np.min(np.linalg.eigvalsh(sym))) < PSD_EIG_TOL:
        raise ValueError(f"{name} is not positive semidefinite")
    return m


class MonotoneOperator:
    """Single-valued maximal monotone map of the space into its dual.

    ``evaluate`` and ``jacobian`` take a checked float array.
    ``jacobian_diagonal`` is the diagonal of the Jacobian when that is a
    constant diagonal matrix, and None otherwise.
    """

    jacobian_diagonal = None

    def evaluate(self, space: LpSpace, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, space: LpSpace, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_set(self, space: LpSpace):
        """A^{-1}0 as a point or an AffineSet; raises if empty."""
        raise NotImplementedError

    def closed_form_resolvent(self, space: LpSpace, r: float, x, jx):
        """L_r(x) in closed form, or None when Newton must solve for it."""
        return None


def _affine_zero_set(m: np.ndarray, rhs: np.ndarray):
    """Solution set of m @ x = rhs: a point, an AffineSet, or None if empty."""
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if not np.allclose(m @ sol, rhs, atol=1e-8):
        return None
    u, s, vt = np.linalg.svd(m)
    null = vt[s <= 1e-12 * max(float(s[0]), 1.0)] if s.size else vt
    if null.shape[0] == 0:
        return sol
    return AffineSet(point=sol, directions=null)


class _AffineOperator(MonotoneOperator):
    """A(x) = B x + b0 with B positive semidefinite.

    Subclasses pass B and b0 to ``_set_affine`` in ``__post_init__``.
    """

    def _set_affine(self, bmat: np.ndarray, b0: np.ndarray) -> None:
        object.__setattr__(self, "_bmat", bmat)
        object.__setattr__(self, "_b0", b0)
        diag = np.diagonal(bmat).copy()
        if np.array_equal(bmat, np.diag(diag)):
            object.__setattr__(self, "jacobian_diagonal", diag)

    def evaluate(self, space, x):
        if self.jacobian_diagonal is not None:
            return self.jacobian_diagonal * x + self._b0
        return self._bmat @ x + self._b0

    def jacobian(self, space, x):
        return self._bmat

    def zero_set(self, space):
        zs = _affine_zero_set(self._bmat, -self._b0)
        if zs is None:
            raise ValueError("operator has no zero: B x = -b0 is inconsistent")
        return zs

    def closed_form_resolvent(self, space, r, x, jx):
        if space.p != 2.0:
            return None
        # J is the identity at p = 2, so (I + rB) z = x - r b0
        if self.jacobian_diagonal is not None:
            return (x - r * self._b0) / (1.0 + r * self.jacobian_diagonal)
        return np.linalg.solve(np.eye(space.dim) + r * self._bmat, x - r * self._b0)


@dataclass(frozen=True, eq=False)
class LinearMonotone(_AffineOperator):
    """A(x) = M x + b with M positive semidefinite (not necessarily symmetric)."""

    m: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _check_psd(self.m, "M"))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        self._set_affine(self.m, self.b)


@dataclass(frozen=True, eq=False)
class DualityResidual(MonotoneOperator):
    """A(x) = Jx - Jz; monotone because J is, with unique zero z."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))

    def evaluate(self, space, x):
        return _dual_map(x, space.p) - _dual_map(self.z, space.p)

    def zero_set(self, space):
        return self.z.copy()

    def closed_form_resolvent(self, space, r, x, jx):
        # Jz + r(Jz - Jz0) = Jx  =>  Jz = (Jx + r Jz0) / (1 + r)
        return space.inverse_duality_map(
            (jx + r * space.duality_map(self.z)) / (1.0 + r)
        )


@dataclass(frozen=True, eq=False)
class GradientOfQuadratic(_AffineOperator):
    """A(x) = Q x - c, the gradient of (1/2) x'Qx - c'x with Q symmetric PSD."""

    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        q = _check_psd(self.q, "Q")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        # q @ x + (-c) equals q @ x - c bit for bit
        self._set_affine(q, -self.c)


def duality_map_jacobian(space: LpSpace, x: np.ndarray, s: float | None = None):
    """dJ/dx = diag(d) + gamma u u', returned as (d, gamma, u); s is ||x||_p if known.

    With s = ||x||_p: d_i = (p-1) s^{2-p} |x_i|^{p-2}, gamma = (2-p) s^{2-2p}
    and u_i = |x_i|^{p-1} sign(x_i) = x_i |x_i|^{p-2}.  The matrix is PSD
    since J is monotone.
    """
    p = space.p
    if p == 2.0:
        return np.ones(space.dim), 0.0, np.zeros(space.dim)
    if s is None:
        s = _power_norm(x, p)
    if s == 0.0:
        # J is differentiable at 0 only for p < 2 (with dJ = 0 limit direction
        # issues); return a small multiple of I as a usable Newton model
        return np.full(space.dim, 1e-8), 0.0, np.zeros(space.dim)
    ax = np.abs(x)
    diag = np.where(ax > 0, ax ** (p - 2.0), 0.0)
    u = x * diag
    if p < 2.0:
        # |x_i|^{p-2} blows up at zeros only for p < 2; clipping it for p > 2
        # would bind at large |x_i| and make the Newton model indefinite
        diag = np.minimum(diag, 1e12)
    return (p - 1.0) * s ** (2.0 - p) * diag, (2.0 - p) * s ** (2.0 - 2.0 * p), u


@dataclass
class ResolventResult:
    point: np.ndarray
    residual: float  # ||J(point) + r A(point) - J(x)||_q
    inner_iterations: int
    converged: bool
    jx: np.ndarray  # J(x), the right-hand side of J z + r A z = J x
    normed: NormedPoint  # the point with its norm and J, from the residual


def resolvent(
    space: LpSpace, op: MonotoneOperator, r: float, x, z0=None, jx=None
) -> ResolventResult:
    """L_r(x) = (J + rA)^{-1} J x.

    ``jx`` is J x when the caller already has it, for an x it has checked;
    without it J x is computed here and x is checked.  ``z0`` starts
    Newton: a point, or a ``NormedPoint`` whose norm and J are reused.
    """
    if r <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {r}")
    if jx is None:
        jx = space.duality_map(x)  # checks x
    x = np.asarray(x, dtype=float)
    point = op.closed_form_resolvent(space, r, x, jx)
    if point is None:
        return _newton_resolvent(space, op, r, x, jx, z0)
    z = _normed(space.check(point), space.p)
    res = _q_norm(space, _residual(space, op, r, z, jx))
    return ResolventResult(point, res, 0, res <= tolerances.RESOLVENT_TOL, jx, z)


def _residual(space, op, r, z: NormedPoint, jx) -> np.ndarray:
    """J z + r A z - J x at a checked z."""
    return z.jx + r * op.evaluate(space, z.x) - jx


def _q_norm(space, g) -> float:
    """||g||_q, or inf for a non-finite g: it is no nearer a solution."""
    res = _power_norm(g, space.q)
    return math.inf if math.isnan(res) else res


def _newton_direction(space, op, r, z: NormedPoint, g, lam) -> np.ndarray:
    """Solve (dJ(z) + r dA(z) + lam I) dz = -g; LinAlgError if it is singular."""
    d, gamma, u = duality_map_jacobian(space, z.x, z.norm)
    bdiag = op.jacobian_diagonal
    if bdiag is None:
        jac = gamma * np.outer(u, u) + np.diag(d) + r * op.jacobian(space, z.x)
        if lam > 0.0:
            jac = jac + lam * np.eye(space.dim)
        return np.linalg.solve(jac, -g)
    # Sherman-Morrison on diag(dd) + gamma u u'; like a dense solve, a model
    # that overflowed to NaN gives a NaN step, which ends the solve
    dd = d + r * bdiag
    if lam > 0.0:
        dd = dd + lam
    if (dd <= 0.0).any():
        raise np.linalg.LinAlgError("non-positive diagonal in the Newton matrix")
    du = u / dd
    denom = 1.0 + gamma * float(np.dot(u, du))
    if denom <= 0.0:
        raise np.linalg.LinAlgError("non-positive Sherman-Morrison denominator")
    dg = -g / dd
    return dg - (gamma * float(np.dot(u, dg)) / denom) * du


def _newton_start(space, x, z0) -> NormedPoint:
    """The first Newton iterate, off the origin, with its norm and J."""
    if isinstance(z0, NormedPoint):
        if np.any(z0.x):
            return NormedPoint(z0.x.copy(), z0.norm, z0.jx)
        z0 = z0.x
    z = np.asarray(x if z0 is None else z0, dtype=float)
    # nudge off the origin where the Jacobian of J degenerates
    z = z.copy() if np.any(z) else z + 1e-6
    return _normed(z, space.p)


def _newton_resolvent(space, op, r, x, jx, z0) -> ResolventResult:
    p = space.p
    z = _newton_start(space, x, z0)
    g = _residual(space, op, r, z, jx)
    gnorm = math.sqrt(g.dot(g))
    gq = _q_norm(space, g)
    if gq == math.inf:
        # r A z or J z overflowed: no Newton direction from here is finite
        return ResolventResult(z.x, gq, 0, False, jx, z)
    lam = 0.0
    best = (z, gq)
    for k in range(1, _NEWTON_MAX_ITER + 1):
        if gq <= _NEWTON_GRAD_TOL:
            break
        try:
            dz = _newton_direction(space, op, r, z, g, lam)
        except np.linalg.LinAlgError:
            lam = max(2.0 * lam, 1e-8)
            continue
        if not np.isfinite(dz).all():
            # the Newton model overflowed; regularizing cannot make it finite
            break
        step = 1.0
        accepted = False
        for _ in range(60):
            cand = _normed(z.x + step * dz, p)
            gc = _residual(space, op, r, cand, jx)
            gcn = math.sqrt(gc.dot(gc))
            # a non-finite trial residual fails this test and is rejected
            if gcn < gnorm * (1.0 - 1e-4 * step):
                z, g, gnorm = cand, gc, gcn
                accepted = True
                break
            step *= 0.5
        if accepted:
            lam *= 0.25
            gq = _q_norm(space, g)
            if gq < best[1]:
                best = (z, gq)
        else:
            lam = max(4.0 * lam, 1e-8)
            if lam > 1e12:
                break
    if gq > best[1]:
        z, gq = best
    return ResolventResult(z.x, gq, k, gq <= tolerances.RESOLVENT_TOL, jx, z)


def monotonicity_gap(space: LpSpace, op: MonotoneOperator, x, y) -> float:
    """<x - y, Ax - Ay>; nonnegative for monotone operators."""
    x = space.check(x)
    y = space.check(y)
    return float(np.dot(x - y, op.evaluate(space, x) - op.evaluate(space, y)))
