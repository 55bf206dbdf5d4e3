"""Maximal monotone operators on the lp space with computable resolvents.

Every implemented variant is a single-valued continuous monotone map
defined on the whole space (hence maximal).  The resolvent
L_r = (J + rA)^{-1} J solves J z + r A z = J x; linear cases at p = 2
use a direct solve, the duality-residual variant has a closed form, and
the rest use a damped Newton iteration on the residual with analytic
Jacobians and Levenberg regularization.  A zero set is an AffineSet: a
singleton, with no directions, for a unique zero.

The Jacobian of J is diagonal plus rank one.  When the operator's
Jacobian is a constant diagonal matrix (``GradientOfQuadratic`` or
``LinearMonotone`` with a diagonal matrix), so is the Newton matrix: r dA
is formed once per solve and each step solved by Sherman-Morrison in O(dim),
skipping the positivity scan when r dA > 0.  Otherwise it is solved densely.

Newton computes ||z||_p and J z once per trial point, in the residual, and
keeps them with its accepted iterate as a ``NormedPoint``: the Jacobian of J
takes ||z||_p from there, and ``ResolventResult.normed`` returns them with
the answer.  A caller that has J x or a warm start's norm and J passes them
in instead of having them recomputed.  A Newton answer also carries
h = J z + r A z, and a solve from it for the same space, operator and r takes
its first residual as h - J x.  A direction is checked for finiteness only
where its full step is rejected.  Newton steers by ||g||_2 and stops on
||g||_q <= tol for the residual g.  By Hoelder c ||g||_2 <= ||g||_q <= c_hi ||g||_2,
c = dim^{min(0, 1/q - 1/2)}, c_hi = dim^{max(0, 1/q - 1/2)}: a c_hi ||g||_2 clear of
the bound certifies the stop, whose ||g||_q is formed when the residual is read;
else ||g||_q is taken where c ||g||_2 is within the bound, and, on a solve that
ends without meeting it, for its accepted iterates, to return the best.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import LpSpace, NormedPoint, _dual_map, _dual_map_jacobian, _normed, _power_norm
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
    ``jacobian_diagonal`` is the diagonal of the Jacobian when that is a constant
    diagonal matrix, else None; ``_diagonal_min`` is its least entry, -inf if unknown.
    """

    jacobian_diagonal, _diagonal_min = None, -math.inf

    def evaluate(self, space: LpSpace, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, space: LpSpace, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_set(self, space: LpSpace):
        """A^{-1}0 as a ConvexSet; raises if empty."""
        raise NotImplementedError

    def closed_form_resolvent(self, space: LpSpace, r: float, x, jx):
        """L_r(x) in closed form, or None when Newton must solve for it."""
        return None


def _affine_zero_set(m: np.ndarray, rhs: np.ndarray):
    """Solution set of m @ x = rhs as an AffineSet, or None if empty."""
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if not np.allclose(m @ sol, rhs, atol=1e-8):
        return None
    u, s, vt = np.linalg.svd(m)
    null = vt[s <= 1e-12 * max(float(s[0]), 1.0)] if s.size else vt
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
            object.__setattr__(self, "_diagonal_min", float(diag.min()))

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
        return AffineSet(self.z, [])

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
    """dJ/dx = diag(d) + gamma u u', returned as (d, gamma, u); s is ||x||_p if known."""
    return _dual_map_jacobian(x, space.p, s)


@dataclass
class ResolventResult:
    point: np.ndarray
    residual: float  # ||J(point) + r A(point) - J(x)||_q; after a certified stop, formed on first read
    inner_iterations: int
    converged: bool
    jx: np.ndarray  # J(x), the right-hand side of J z + r A z = J x
    normed: NormedPoint  # the point with its norm and J, from the residual
    inner, warm = None, property(lambda self: self.normed)  # as a map's result, the answer is the warm start


class _CertifiedResult(ResolventResult):
    """Newton's certified stop, converged; ||g||_q is formed when first read."""

    def __init__(self, space, g, k, jx, z):
        self.point, self.inner_iterations, self.converged, self.jx, self.normed = z.x, k, True, jx, z
        self._space_g = space, g

    @functools.cached_property
    def residual(self) -> float:
        return _q_norm(*self._space_g)


class _Carried(NormedPoint):
    def __new__(cls, z: NormedPoint, h: np.ndarray, key: tuple):
        """A Newton answer z with h = J z + r A z, formed for key = (space, op, r)."""
        c = tuple.__new__(cls, z)
        c.h, c.key = h, key
        return c


def resolvent(
    space: LpSpace, op: MonotoneOperator, r: float, x, z0=None, jx=None
) -> ResolventResult:
    """L_r(x) = (J + rA)^{-1} J x.

    ``jx`` is J x when the caller already has it, for an x it has checked;
    without it J x is computed here and x is checked.  ``z0`` starts
    Newton: a point, or a ``NormedPoint`` whose norm and J are reused; a
    Newton answer's ``normed`` also gives J z + r A z for its space, op and r.
    """
    if r <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {r}")
    if jx is None:
        jx = space.duality_map(x)  # checks x
    if type(z0) is _Carried and z0.key == (space, op, r) and z0.norm > 0.0:
        # Newton formed z0 for these three, so they have no closed form
        return _newton_resolvent(space, op, r, jx, z0, z0.h)
    x = np.asarray(x, dtype=float)
    point = op.closed_form_resolvent(space, r, x, jx)
    if point is None:
        # start from z0, or x with J x = jx; Newton writes into no iterate, so z0 is used as it is
        if z0 is None:
            z0 = NormedPoint(x.copy(), _power_norm(x, space.p), jx)
        if not (isinstance(z0, NormedPoint) and z0.norm > 0.0):
            z = np.asarray(z0.x if isinstance(z0, NormedPoint) else z0, dtype=float)
            z0 = _normed(z.copy() if np.any(z) else z + 1e-6, space.p)  # off the origin, where dJ degenerates
        return _newton_resolvent(space, op, r, jx, z0, _image(space, op, r, z0))
    z = _normed(space.check(point), space.p)
    res = _q_norm(space, _residual(space, op, r, z, jx))
    return ResolventResult(point, res, 0, res <= tolerances.RESOLVENT_TOL, jx, z)


def _image(space, op, r, z: NormedPoint) -> np.ndarray:
    """J z + r A z at a checked z."""
    return z.jx + (op.evaluate(space, z.x) if r == 1.0 else r * op.evaluate(space, z.x))


def _residual(space, op, r, z: NormedPoint, jx) -> np.ndarray:
    """J z + r A z - J x at a checked z."""
    return _image(space, op, r, z) - jx


def _q_norm(space, g) -> float:
    """||g||_q, or inf for a non-finite g: it is no nearer a solution."""
    res = _power_norm(g, space.q)
    return math.inf if math.isnan(res) else res


def _newton_direction(space, op, r, z: NormedPoint, g, lam, rb, rb_positive) -> np.ndarray:
    """Solve (dJ(z) + r dA(z) + lam I) dz = -g; LinAlgError if it is singular.
    rb is r dA for a constant diagonal dA, else None; rb_positive is rb > 0."""
    d, gamma, u = duality_map_jacobian(space, z.x, z.norm)
    if rb is None:
        jac = gamma * np.outer(u, u) + np.diag(d) + r * op.jacobian(space, z.x)
        if lam > 0.0:
            jac = jac + lam * np.eye(space.dim)
        return np.linalg.solve(jac, -g)
    # Sherman-Morrison on diag(dd) + gamma u u'.  As in a dense solve, a NaN model
    # gives a NaN step, which ends the solve; d >= 0 or NaN, so dd <= 0 needs r b_ii <= 0
    dd = d + rb
    if lam > 0.0:
        dd = dd + lam
    if not rb_positive and (dd <= 0.0).any():
        raise np.linalg.LinAlgError("non-positive diagonal in the Newton matrix")
    du = u / dd
    denom = 1.0 + gamma * float(u.dot(du))
    if denom <= 0.0:
        raise np.linalg.LinAlgError("non-positive Sherman-Morrison denominator")
    gd = g / dd
    return (gamma * float(u.dot(gd)) / denom) * du - gd


def _newton_resolvent(space, op, r, jx, z: NormedPoint, h) -> ResolventResult:
    """Newton from z, off the origin and with its norm and J, where J z + r A z = h."""
    p, key = space.p, (space, op, r)
    g = h - jx
    gnorm = math.sqrt(g.dot(g))
    # a finite ||g||_2 puts every |g_i| below 1e155, so ||g||_q is finite too
    if not gnorm < math.inf and _q_norm(space, g) == math.inf:
        # r A z or J z overflowed: no Newton direction from here is finite
        return ResolventResult(z.x, math.inf, 0, False, jx, z)
    c = 1.0 if space.q <= 2.0 else space.dim ** (1.0 / space.q - 0.5)
    # ||g||_q <= c_hi ||g||_2 (Hoelder): ||g||_2 <= sure certifies ||g||_q <= tol and convergence.  In
    # 2^-53, relative, ||g||_2 is off by <= dim/2 + 2, ||g||_q by dim + ln(dim) + 5, c_hi by ln(dim) + 2,
    # sure by 3: the margin 8 (dim + 8) exceeds their sum, and from dim 2^50 on none passes
    c_hi = space.dim ** max(0.0, 1.0 / space.q - 0.5)
    sure = min(_NEWTON_GRAD_TOL, tolerances.RESOLVENT_TOL) * (1.0 - (space.dim + 8) * 2.0**-50) / c_hi
    rb = op.jacobian_diagonal if r == 1.0 or op.jacobian_diagonal is None else r * op.jacobian_diagonal
    rb_positive = rb is not None and r * op._diagonal_min > 0.0  # = min(rb) > 0, as rounding is monotone
    lam = 0.0
    accepted_iterates = [(z, h, g)]  # the start, then each accepted iterate
    for k in range(1, _NEWTON_MAX_ITER + 1):
        # every earlier iterate failed the stop test: one that passes is the best
        if gnorm <= sure:
            return _CertifiedResult(space, g, k, jx, _Carried(z, h, key))
        # ||g||_q >= c ||g||_2; the margin covers rounding in both norms
        if c * gnorm <= _NEWTON_GRAD_TOL * (1.0 + 1e-12):
            gq = _q_norm(space, g)
            if gq <= _NEWTON_GRAD_TOL:
                return ResolventResult(z.x, gq, k, gq <= tolerances.RESOLVENT_TOL, jx, _Carried(z, h, key))
        try:
            dz = _newton_direction(space, op, r, z, g, lam, rb, rb_positive)
        except np.linalg.LinAlgError:
            lam = max(2.0 * lam, 1e-8)
            continue
        step, trial = 1.0, z.x + dz
        for _ in range(60):
            cand = _normed(trial, p)
            gc = (hc := _image(space, op, r, cand)) - jx
            gcn = math.sqrt(gc.dot(gc))
            # a non-finite trial residual fails this test and is rejected
            if gcn < gnorm * (1.0 - 1e-4 * step):
                z, h, g, gnorm = cand, hc, gc, gcn
                break
            # a non-finite dz makes the full-step trial, hence its residual, NaN
            if step == 1.0 and not np.logical_and.reduce(np.isfinite(dz)):
                break
            step *= 0.5
            trial = z.x + step * dz
        if z is cand:  # accepted
            lam *= 0.25
            accepted_iterates.append((z, h, g))
        elif step == 1.0:  # the Newton model overflowed; regularizing cannot make dz finite
            break
        else:
            lam = max(4.0 * lam, 1e-8)
            if lam > 1e12:
                break
    # the iterate of least ||g||_q: the first one of them, or the last iterate
    # on a tie with it
    gqs = [_q_norm(space, gi) for _, _, gi in accepted_iterates]
    i = -1 if gqs[-1] <= min(gqs) else gqs.index(min(gqs))
    (z, h, _), gq = accepted_iterates[i], gqs[i]
    return ResolventResult(z.x, gq, k, gq <= tolerances.RESOLVENT_TOL, jx, _Carried(z, h, key))
