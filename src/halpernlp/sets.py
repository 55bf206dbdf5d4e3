"""Closed convex sets with membership, Euclidean and generalized projection.

The generalized projection Q_C(x) minimizes phi(y, x) over C.  It is
computed by minimizing h(y) = ||y||_p^2 - 2<y, Jx> (phi minus the
constant ||x||^2) with projected gradient descent, Euclidean projection
per step and Armijo backtracking.  The result carries the residual of
the variational inequality <z - Q_C(x), Jx - J Q_C(x)> <= 0, probed at
random points of C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DimensionMismatchError, LpSpace, _dual_map, _power_norm
from . import tolerances

_PGD_GRAD_TOL = 1e-9
_PGD_MAX_ITER = 10_000
_ARMIJO_C = 1e-4
_VI_PROBES = 100


class ConvexSet:
    """Base for the canonical nonempty closed convex sets."""

    def euclidean_project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if hasattr(self, "dim") and x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dim}, got shape {x.shape}"
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
        if rng is None:
            rng = np.random.default_rng(0)
        g = _dual_map(x, space.p) - space.duality_map(proj)
        worst = 0.0
        scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(proj)))
        for _ in range(_VI_PROBES):
            z = self.euclidean_project(proj + scale * rng.standard_normal(space.dim))
            worst = max(worst, float(np.dot(z - proj, g)))
        return worst


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

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x)
        excess = float(np.dot(self.a, x)) - self.b
        if excess <= 0.0:
            return x.copy()
        return x - excess / float(np.dot(self.a, self.a)) * self.a

    def minimize_phi(self, space, x):
        """The optimality condition pins the minimizer to J(y) = J(x) - t*a
        for a single multiplier t > 0 fixed by <a, y> = b, and
        <a, J^{-1}(Jx - t*a)> is nonincreasing in t, so a bracket-and-bisect
        scalar solve suffices.
        """
        jx = _dual_map(x, space.p)
        a, q = self.a, space.q

        def margin(t: float) -> float:
            return float(np.dot(a, _dual_map(jx - t * a, q))) - self.b

        lo, hi = 0.0, 1.0
        k = 0
        while margin(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
            k += 1
            if hi > 1e30:
                break
        while hi - lo > 1e-16 * max(1.0, hi) and k < 300:
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            k += 1
        return space.inverse_duality_map(jx - hi * a), k


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
        return np.clip(self._check_dim(x), self.lo, self.hi)


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
        x = self._check_dim(x)
        d = x - self.center
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

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x)
        r = x - self.point
        basis = self._basis
        if basis.shape[0] == 0:
            return self.point.copy()
        return self.point + basis.T @ (basis @ r)


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
