"""Closed convex sets with membership, Euclidean and generalized projection.

The generalized projection Q_C(x) minimizes phi(y, x) over C.  Each
variant solves it in its own way:

- ``HalfSpace``: safeguarded Newton on the one multiplier t of <a, y> = b,
  where y = J_q(Jx - t a);
- ``Box``: Newton on the scalar t = log ||y||_p, since fixing the norm
  splits the problem into coordinates (Alber 1996; Kamimura-Takahashi 2002);
- ``AffineSet``: damped Newton on the coordinates of y in the direction
  space for p > 2, and on the multipliers of the complement for p < 2;
- ``EuclideanBall``: projected gradient descent on
  h(y) = ||y||_p^2 - 2<y, Jx> (phi minus the constant ||x||^2), with
  Euclidean projection per step and Armijo backtracking.  Tests keep it as
  the reference for the box and the affine set.

The Newton solves take the Jacobian of J from ``geometry``, as the
resolvent's Newton does.  The result carries the residual of the
variational inequality <z - Q_C(x), Jx - J Q_C(x)> <= 0, probed at random
points of C; without an rng the probes are drawn once per dimension.
``euclidean_project`` maps a point, or each row of a stack of points.
Membership within a tolerance is the Euclidean distance to that projection,
except for ``HalfSpace``, which tests <a, x> - b <= tol ||a||_2 in closed
form: no projection, and no positive excess lost to the projection's
rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DimensionMismatchError, LpSpace, _dual_map, _dual_map_jacobian, _normed, _power_norm
)
from . import tolerances

_PGD_GRAD_TOL = 1e-9
_PGD_MAX_ITER = 10_000
_ARMIJO_C = 1e-4
_VI_PROBES = 100
_BOX_MAX_ITER = 100
_NEWTON_MAX_ITER = 100
_EPS = 2.220446049250313e-16
# g(t) = log||y||_p - log||x||_p - t sums terms each rounded to about eps
# times its size; below eps times their sizes its sign is noise
_BOX_G_TOL = 2.2e-16


@functools.lru_cache(maxsize=32)
def _default_probes(dim: int) -> np.ndarray:
    """The VI probe draws of a projection made without an rng: those of
    np.random.default_rng(0), drawn once per dimension and read-only."""
    draws = np.random.default_rng(0).standard_normal((_VI_PROBES, dim))
    draws.flags.writeable = False
    return draws


class ConvexSet:
    """Base for the canonical nonempty closed convex sets."""

    def euclidean_project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the set to x, or to each row of a 2-d x."""
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        """x as floats: a vector of length dim, or with rows=True also a 2-d
        stack of such vectors."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in ((1, 2) if rows else (1,)) or x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected a vector of length {self.dim}"
                f"{' or a stack of them' if rows else ''}, got shape {x.shape}"
            )
        return x

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        if tol < 0:
            raise ValueError("membership tolerance must be >= 0")
        x = self._check_dim(x)
        return float(np.linalg.norm(x - self.euclidean_project(x))) <= tol

    def minimize_phi(self, space: LpSpace, x: np.ndarray):
        """(argmin of phi(., x) over the set, iterations) for a checked x
        outside it."""
        p = space.p
        jx = _dual_map(x, p)

        def h(y, ny):  # phi(y, x) - ||x||^2, given ny = ||y||
            return ny ** 2 - 2.0 * float(np.dot(y, jx))

        y = self.euclidean_project(x)  # seed inside C, away from the origin
        hy = h(y, space.norm(y))  # the public norm checks the seed once
        # gradients scale with x, so the stationarity cutoff is scale-relative
        grad_tol = _PGD_GRAD_TOL * max(1.0, float(np.linalg.norm(jx)))
        prev_y = None
        prev_grad = None
        stuck = False  # the last step left y bit-for-bit unchanged
        for k in range(1, _PGD_MAX_ITER + 1):
            grad = 2.0 * (_dual_map(y, p) - jx)
            if float(np.linalg.norm(y - self.euclidean_project(y - grad))) <= grad_tol:
                return y, k - 1
            # Barzilai-Borwein trial step, backtracked by Armijo halving
            step = 1.0
            if prev_y is not None:
                dy = y - prev_y
                dg = grad - prev_grad
                denom = float(np.dot(dy, dg))
                if denom > 0.0:
                    step = min(max(float(np.dot(dy, dy)) / denom, 1e-12), 1e8)
            prev_y, prev_grad = y, grad
            while True:
                cand = self.euclidean_project(y - step * grad)
                hc = h(cand, _power_norm(cand, p))
                if hc <= hy + _ARMIJO_C * float(np.dot(grad, cand - y)):
                    break
                step *= 0.5
                if step < 1e-18:
                    # no descent at float precision: stationary for our purposes
                    return y, k
            if np.array_equal(cand, y):
                if stuck:
                    # this step began at the default trial step (dy = 0), so
                    # every later step would repeat it exactly
                    return y, k
                stuck = True
            else:
                stuck = False
            y, hy = cand, hc
        return y, _PGD_MAX_ITER

    def vi_residual(self, space: LpSpace, x, proj, rng) -> float:
        """max over probe points z in C of <z - proj, Jx - J(proj)>, for a
        checked x; the public duality map checks proj."""
        g = _dual_map(x, space.p) - space.duality_map(proj)
        scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(proj)))
        # one probe per row: the same draws, in the same order, as one
        # standard_normal(dim) call per probe
        draws = _default_probes(space.dim) if rng is None else rng.standard_normal((_VI_PROBES, space.dim))
        z = self.euclidean_project(proj + scale * draws)
        return max(0.0, float(np.max((z - proj) @ g)))


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    def euclidean_project(self, x):
        return np.asarray(x, dtype=float).copy()

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        return True

    def vi_residual(self, space, x, proj, rng):
        # every x is its own projection, so Jx - J(proj) vanishes
        return 0.0


@dataclass(frozen=True, eq=False)
class HalfSpace(ConvexSet):
    """{x : <a, x> <= b} with a != 0."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if not np.any(a):
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "_aa", float(np.dot(a, a)))
        object.__setattr__(self, "_norm_a", math.sqrt(self._aa))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        # the distance to the set is max(<a, x> - b, 0) / ||a||_2
        if tol < 0:
            raise ValueError("membership tolerance must be >= 0")
        return float(self._check_dim(x) @ self.a) - self.b <= tol * self._norm_a

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        excess = np.maximum(x @ self.a - self.b, 0.0)
        return x - (excess / self._aa)[..., None] * self.a

    def minimize_phi(self, space, x):
        """The optimality condition pins the minimizer to y(t) = J_q(Jx - t a)
        for the one multiplier t >= 0 at which m(t) = <a, y(t)> - b is 0.
        m is nonincreasing, with m'(t) = -a' DJ_q(Jx - t a) a, and m(0) > 0
        since x is outside.  Newton on t from 0, safeguarded by a bracket
        [lo, hi] with m(lo) > 0 >= m(hi): a Newton step that leaves the
        bracket, or is not half as long as the step before it, gives way to
        bisection, or to doubling lo while no hi is known, so the bracket
        grows at any scale.  The solve ends when m(hi) is at its rounding
        level, or lo and hi are adjacent floats, and returns y(hi), the
        feasible end.  A NaN margin (Jx overflowed) ends it with the
        non-finite y, which the VI check rejects with a ValueError.
        """
        a, b, q, jx = self.a, self.b, space.q, _dual_map(x, space.p)
        aa, abs_a = a * a, np.abs(a)
        lo, hi, y_hi, t, dt = 0.0, math.inf, None, 0.0, math.inf  # m(lo) > 0 >= m(hi)
        for k in range(1, _NEWTON_MAX_ITER + 1):
            v, nv, y = _normed(jx - t * a, q)
            m = float(y @ a) - b  # as in euclidean_project, so that y(hi) is inside
            if m <= 0.0:
                hi, y_hi = t, y
                if -m <= 4.0 * _EPS * (abs(b) + float(np.abs(y) @ abs_a)):
                    return y, k  # m is at its rounding level: the root is found
            elif m > 0.0:
                lo = t
            else:
                break
            # DJ_q is 0-homogeneous: take it at v/||v||, where no power overflows
            d, gamma, u = _dual_map_jacobian(v / (nv or 1.0), q, nv and 1.0)
            au = float(np.dot(a, u))
            slope = float(np.dot(d, aa)) + gamma * au * au  # -m'(t)
            t_new = t + m / slope if slope > 0.0 else math.nan
            if m > 0.0 and t_new == t:  # a step below half an ulp of t
                t_new = math.nextafter(t, math.inf)
            dt_old, dt = dt, abs(t_new - t)
            if lo < t_new < hi and dt <= 0.5 * dt_old:
                t = t_new
            elif hi == math.inf:
                t = t_new if t_new > lo else (2.0 * lo if lo > 0.0 else 1.0)
            else:
                t, dt = 0.5 * (lo + hi), 0.5 * (hi - lo)
                if not lo < t < hi:
                    break  # lo and hi are adjacent floats
        return (y if y_hi is None else y_hi), k


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi coordinate-wise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def euclidean_project(self, x):
        return np.clip(self._check_dim(x, rows=True), self.lo, self.hi)

    def minimize_phi(self, space, x):
        """Fixing s = ||y||_p splits the optimality conditions by coordinate:
        wherever lo_i < y_i < hi_i, (Jy)_i = s^{2-p} |y_i|^{p-1} sign(y_i)
        equals (Jx)_i, so y_i = (s/||x||)^e x_i with e = (p-2)/(p-1).  The
        minimizer is y(s) = clip((s/||x||)^e x, lo, hi) at the one root of
        ||y(s)||_p = s.  In t = log(s/||x||) that root solves
        g(t) = log(||y||/||x||) - t = 0, where g'(t) = e*F - 1 < 0 and F is
        the share of ||y||^p on unclipped coordinates.  Newton on t from
        t = 0 (s = ||x||), safeguarded by a bracket, until g is at its
        rounding level.  Magnitudes are carried as logs: (s/||x||)^e x
        saturates to +-inf instead of overflowing when s is far from ||x||,
        and g stays finite even then.
        """
        p = space.p
        e = (p - 2.0) / (p - 1.0)
        if not np.any(x):
            return self.euclidean_project(x), 0  # y(s) = clip(0) for every s
        sx = np.sign(x)
        t = 0.0
        lo_t, hi_t = -math.inf, math.inf  # g > 0 below the root, g < 0 above
        with np.errstate(divide="ignore", over="ignore"):
            lx = np.log(np.abs(x))  # -inf on zero coordinates
            lnx = _log_power_norm(lx, p)[0]
            for k in range(1, _BOX_MAX_ITER + 1):
                lz = e * t + lx
                z = sx * np.exp(lz)
                y = np.clip(z, self.lo, self.hi)
                free = y == z
                ly = np.where(free, lz, np.log(np.abs(y)))
                lny, w = _log_power_norm(ly, p)
                if lny == -math.inf:
                    return y, k  # every coordinate clips to 0, whatever s is
                g = lny - lnx - t
                if abs(g) <= _BOX_G_TOL * (1.0 + abs(lny) + abs(lnx) + abs(t)):
                    return y, k  # g is at its rounding level: the root is found
                if g > 0.0:
                    lo_t = t
                else:
                    hi_t = t
                t += g / (1.0 - e * float(w[free].sum()) / float(w.sum()))
                if not lo_t < t < hi_t:  # Newton left the bracket: bisect it
                    t = 0.5 * (lo_t + hi_t)
                    if not lo_t < t < hi_t:
                        return y, k  # the bracket can no longer shrink
        return y, _BOX_MAX_ITER


def _log_power_norm(la: np.ndarray, p: float):
    """(log ||a||_p, w) from la = log|a|, where w = (|a|/max|a|)^p is each
    coordinate's share of ||a||_p^p up to a common factor; (-inf, None)
    when a = 0."""
    m = float(la.max())
    if m == -math.inf:
        return m, None
    w = np.exp(p * (la - m))
    return m + math.log(float(w.sum())) / p, w


@dataclass(frozen=True, eq=False)
class EuclideanBall(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        d = x - self.center
        if x.ndim > 1:
            nd = np.linalg.norm(d, axis=-1, keepdims=True)
            return self.center + (self.radius / np.maximum(nd, self.radius)) * d
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d


@dataclass(frozen=True, eq=False)
class AffineSet(ConvexSet):
    """point + span(directions); a singleton when directions is empty."""

    point: np.ndarray
    directions: np.ndarray  # shape (k, dim), rows spanning the direction space

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        d = np.asarray(self.directions, dtype=float)
        if d.size == 0:
            d = np.zeros((0, p.shape[0]))
        if d.shape[1] != p.shape[0]:
            raise ValueError("direction rows must match the point dimension")
        # orthonormal basis; rank-deficient direction sets are fine
        if d.shape[0] > 0:
            u, s, vt = np.linalg.svd(d, full_matrices=False)
            basis = vt[s > 1e-12 * max(s[0], 1.0)] if s.size else vt[:0]
        else:
            basis = d
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "_basis", basis)
        k = basis.shape[0]  # the complement's orthonormal rows follow the basis in the SVD
        object.__setattr__(self, "_complement", np.linalg.svd(basis)[2][k:] if k else np.eye(p.shape[0]))

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        r = x - self.point
        basis = self._basis
        if basis.shape[0] == 0:
            return np.broadcast_to(self.point, x.shape).copy()
        # row-vector form: for one point, the same BLAS calls as basis.T @ (basis @ r)
        return self.point + (r @ basis.T) @ basis

    def minimize_phi(self, space, x):
        """Q_C(x) minimizes ||y||_p^2 / 2 - <y, Jx> over y in C.  For p > 2,
        damped Newton on y = point + basis' theta, from the Euclidean
        projection.  For p < 2 the Jacobian of J_p is unbounded at zero
        coordinates, while that of J_q is bounded, so Newton runs on the
        dual problem: y = J_q(Jx + complement' mu), where mu minimizes
        ||Jx + complement' mu||_q^2 / 2 - <Jx + complement' mu, point>,
        from mu = 0.
        """
        jx = _dual_map(x, space.p)
        if space.p > 2.0:  # (z, k): the answer is z
            return _newton_in_span(self.euclidean_project(x), self._basis, space.p, jx)[::2]
        return _newton_in_span(jx, self._complement, space.q, self.point)[1:]  # (J_q z, k)


def _newton_in_span(z, rows, e, s):
    """(z*, J_e z*, iterations) for z* the minimizer of
    f(z) = ||z||_e^2 / 2 - <z, s> over z + span(rows), rows orthonormal.

    Damped Newton on the coordinates theta of z + rows' theta: the gradient
    is rows(J_e z - s) and the Hessian (rows d) rows' + gamma (rows u)(rows u)',
    with (d, gamma, u) the Jacobian of J_e at z.  Armijo backtracking on f,
    until the gradient is at its rounding level.
    """
    z, nz, jz = _normed(z, e)
    fz = 0.5 * nz * nz - float(np.dot(z, s))
    grad_eps = 4.0 * e * _EPS  # each (J_e z)_i is rounded to about e eps of its size
    for k in range(1, _NEWTON_MAX_ITER + 1):
        g = rows @ (jz - s)
        if (np.abs(g) <= grad_eps * (np.abs(rows) @ (np.abs(jz) + np.abs(s)))).all():
            return z, jz, k - 1  # also when there are no rows
        d, gamma, u = _dual_map_jacobian(z / (nz or 1.0), e, nz and 1.0)  # as in HalfSpace
        ru = rows @ u
        try:
            dtheta = np.linalg.solve((rows * d) @ rows.T + gamma * np.outer(ru, ru), -g)
        except np.linalg.LinAlgError:
            dtheta = -g  # a singular model: fall back to the gradient
        slope = float(np.dot(g, dtheta))  # df along dtheta, < 0
        if not slope < 0.0:
            return z, jz, k  # a non-finite model, or no descent left
        dz = dtheta @ rows
        # near the minimizer a step moves f by less than f's rounding error
        f_noise = 4.0 * _EPS * (0.5 * nz * nz + abs(float(np.dot(z, s))))
        for step in 0.5 ** np.arange(60.0):  # down to 2^-59, about 1.7e-18
            cand, nc, jc = _normed(z + step * dz, e)
            fc = 0.5 * nc * nc - float(np.dot(cand, s))
            if fc <= fz + _ARMIJO_C * step * slope + f_noise:
                break
        else:
            return z, jz, k  # no descent at float precision
        z, nz, jz, fz = cand, nc, jc, fc
    return z, jz, _NEWTON_MAX_ITER


@dataclass
class ProjectionResult:
    point: np.ndarray
    vi_residual: float
    inner_iterations: int
    converged: bool


def generalized_projection(
    space: LpSpace, cset: ConvexSet, x, rng: np.random.Generator | None = None
) -> ProjectionResult:
    """Q_C(x), the unique minimizer of phi(y, x) over C."""
    x = space.check(x)
    if cset.contains(x, 0.0):
        point, iters = x.copy(), 0
    elif space.p == 2.0:
        point, iters = cset.euclidean_project(x), 0
    else:
        point, iters = cset.minimize_phi(space, x)

    residual = cset.vi_residual(space, x, point, rng)
    return ProjectionResult(point, residual, iters, residual <= tolerances.VI_TOL)
