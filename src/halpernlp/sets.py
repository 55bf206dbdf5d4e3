"""Closed convex sets with membership, Euclidean and generalized projection.

The generalized projection Q_C(x) minimizes phi(y, x) over C.  Each
variant solves it in its own way:

- ``HalfSpace``: bracket-and-bisect on the one multiplier of <a, y> = b;
- ``Box``: Newton on the scalar t = log ||y||_p, since fixing the norm
  splits the problem into coordinates (Alber 1996; Kamimura-Takahashi 2002);
- ``EuclideanBall`` and ``AffineSet``: projected gradient descent on
  h(y) = ||y||_p^2 - 2<y, Jx> (phi minus the constant ||x||^2), with
  Euclidean projection per step and Armijo backtracking.

The result carries the residual of the variational inequality
<z - Q_C(x), Jx - J Q_C(x)> <= 0, probed at random points of C.
``euclidean_project`` maps a point, or each row of a stack of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DimensionMismatchError, LpSpace, _dual_map, _power_norm
from . import tolerances

_PGD_GRAD_TOL = 1e-9
_PGD_MAX_ITER = 10_000
_ARMIJO_C = 1e-4
_VI_PROBES = 100
_BOX_MAX_ITER = 100
# g(t) = log||y||_p - log||x||_p - t sums terms each rounded to about eps
# times its size; below eps times their sizes its sign is noise
_BOX_G_TOL = 2.2e-16


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
        if rng is None:
            rng = np.random.default_rng(0)
        g = _dual_map(x, space.p) - space.duality_map(proj)
        scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(proj)))
        # one probe per row: the same draws, in the same order, as one
        # standard_normal(dim) call per probe
        z = self.euclidean_project(proj + scale * rng.standard_normal((_VI_PROBES, space.dim)))
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

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        excess = np.maximum(x @ self.a - self.b, 0.0)
        return x - (excess / self._aa)[..., None] * self.a

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
        while hi - lo > 1e-16 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # lo and hi are adjacent floats
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
