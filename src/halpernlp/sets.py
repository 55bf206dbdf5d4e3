"""Closed convex sets with membership, Euclidean and generalized projection.

The generalized projection Q_C(x) minimizes phi(y, x) over C.  Each
variant solves it in its own way:

- ``HalfSpace``: the ``AffineSet`` solves on its boundary hyperplane
  <a, y> = b, where Q_C(x) lies for x outside, given by its unit normal;
- ``Box``: Newton on the scalar t = log ||y||_p, since fixing the norm
  splits the problem into coordinates (Alber 1996; Kamimura-Takahashi 2002);
- ``AffineSet``: damped Newton on the coordinates of y in the direction
  space for p > 2, and on the multipliers of the complement for p < 2;
- ``EuclideanBall``: Newton on its KKT system in (y, mu), with each
  iterate kept on the sphere.

The Newton solves take J x and the Jacobian of J and return (y, iterations,
stopped), stopped False when a solve ended short of its stopping test; one-row
models are solved by division.  converged means stopped and the VI residual
max <z - Q_C(x), Jx - J Q_C(x)> over random probes z of C (drawn once per
dimension without an rng) at most VI_TOL.  Each set's ``vi_bound(y, g, rho)``
bounds <z - y, g> over the z of C within rho of y's Euclidean projection in
closed form: with g = Jx - Jy and rho the probes' reach, a bound on the
residual.  Without an rng, one below VI_TOL certifies it, and the probes
decide only where the bound cannot; an x in C, where g = 0, certifies at once.
``euclidean_project`` maps a point, or each row of a stack of points.
Membership within a tolerance is the Euclidean distance to that projection,
except for ``HalfSpace`` and ``EuclideanBall``, which test
<a, x> - b <= tol ||a||_2 and ||x - c||_2 - R <= tol in closed form: no
projection, and no positive excess lost to the projection's rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DimensionMismatchError, LpSpace, _dual_map, _dual_map_jacobian, _normed, _power_norm
from . import tolerances

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


@functools.lru_cache(maxsize=32)
def _probe_reach(dim: int) -> float:
    return float(np.max(np.linalg.norm(_default_probes(dim), axis=1)))  # of a default draw


def _checked(name: str, v, inf_ok: bool = False) -> np.ndarray:
    """v as floats; a ValueError names it if a coordinate is NaN, or infinite unless inf_ok."""
    v = np.asarray(v, dtype=float)
    if not (~np.isnan(v) if inf_ok else np.isfinite(v)).all():
        raise ValueError(f"{name} must be {'free of NaN' if inf_ok else 'finite'}")
    return v


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
        d = self._check_dim(x) - self.euclidean_project(x)
        return math.sqrt(float(d.dot(d))) <= tol  # np.linalg.norm's value for a 1-d d

    def vi_residual(self, space: LpSpace, x, proj, rng) -> float:
        """max over probe points z in C of <z - proj, Jx - J(proj)>, for a
        checked x; the public duality map checks proj."""
        g = _dual_map(x, space.p) - space.duality_map(proj)
        scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(proj)))
        # one probe per row: the same draws, in the same order, as one
        # standard_normal(dim) call per probe
        draws = _default_probes(space.dim) if rng is None else rng.standard_normal((_VI_PROBES, space.dim))
        z = self.euclidean_project(proj + scale * draws)
        worst = float(np.max((z - proj) @ g))  # NaN where the probes could not be formed
        return math.inf if math.isnan(worst) else max(0.0, worst)


@dataclass(frozen=True)
class WholeSpace(ConvexSet):
    def euclidean_project(self, x):
        return np.asarray(x, dtype=float).copy()

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        return True

    def vi_residual(self, space, x, proj, rng):
        # every x is its own projection, so Jx - J(proj) vanishes
        return 0.0

    def vi_bound(self, y, g, rho):
        return 0.0


@dataclass(frozen=True, eq=False)
class HalfSpace(ConvexSet):
    """{x : <a, x> <= b} with a != 0."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = _checked("half-space normal a", self.a)
        if not np.any(a):
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(_checked("half-space offset b", self.b)))
        object.__setattr__(self, "_aa", float(np.dot(a, a)))
        object.__setattr__(self, "_norm_a", math.sqrt(self._aa))
        object.__setattr__(self, "_unit_normal", a / self._norm_a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        # the distance to the set is max(<a, x> - b, 0) / ||a||_2
        if tol < 0:
            raise ValueError("membership tolerance must be >= 0")
        return float(self._check_dim(x).dot(self.a)) - self.b <= tol * self._norm_a

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        excess = np.maximum(x @ self.a - self.b, 0.0)
        return x - (excess / self._aa)[..., None] * self.a

    def vi_bound(self, y, g, rho):
        # <z - y, g> <= mu (b - <a, y>) + ||z - y||_2 ||g - mu a||_2 on C, any mu >= 0
        slack, mu = self.b - float(y @ self.a), max(float(self.a @ g), 0.0) / self._aa
        reach, v = rho + max(-slack, 0.0) / self._norm_a, g - mu * self.a  # reach >= ||z - y||_2
        return mu * slack + reach * math.sqrt(v.dot(v))

    def minimize_phi(self, space, x, jx):
        """x is outside, so Q_C(x) is Q_H(x) for the boundary hyperplane H.
        The affine set's solves, given H's unit normal n for a basis, so that
        a step costs O(dim): dual Newton on the multiplier mu of
        y = J_q(Jx + mu n), and for p > 2, where the root can sit on a riser
        of J_q below the rounding of mu, primal Newton on H from there.
        """
        n, beta = self._unit_normal, self.b / self._norm_a
        _, y, k, stopped = _newton_in_span(jx, n[None, :], space.q, beta * n)
        if stopped or space.p < 2.0:
            return y, k, stopped
        z, _, k_primal, stopped = _newton_in_span(y - (float(y @ n) - beta) * n, None, space.p, jx, normal=n)
        return z, k + k_primal, stopped


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _checked("box bound lo", self.lo, inf_ok=True)
        hi = _checked("box bound hi", self.hi, inf_ok=True)
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
        return np.minimum(np.maximum(self._check_dim(x, rows=True), self.lo), self.hi)

    def vi_bound(self, y, g, rho):
        c = np.minimum(np.maximum(y, self.lo), self.hi)  # y's projection; each z_i - c_i is +-rho
        z = np.minimum(np.maximum(c + rho * np.sign(g), self.lo), self.hi)  # or a bound, as g_i points
        return float((z - y).dot(g))

    def minimize_phi(self, space, x, jx):
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
        if not x.any():
            return self.euclidean_project(x), 0, True  # y(s) = clip(0) for every s
        sx = np.sign(x)
        t = 0.0
        lo_t, hi_t = -math.inf, math.inf  # g > 0 below the root, g < 0 above
        with np.errstate(divide="ignore", over="ignore"):
            lx = np.log(np.abs(x))  # -inf on zero coordinates
            lnx = _log_power_norm(lx, p)[0]
            for k in range(1, _BOX_MAX_ITER + 1):
                lz = e * t + lx
                z = sx * np.exp(lz)
                y = np.minimum(np.maximum(z, self.lo), self.hi)  # np.clip's bytes, at a third of its cost
                free = y == z
                ly = np.where(free, lz, np.log(np.abs(y)))
                lny, w, w_sum = _log_power_norm(ly, p)
                if lny == -math.inf:
                    return y, k, True  # every coordinate clips to 0, whatever s is
                g = lny - lnx - t
                if abs(g) <= _BOX_G_TOL * (1.0 + abs(lny) + abs(lnx) + abs(t)):
                    return y, k, True  # g is at its rounding level: the root is found
                if g > 0.0:
                    lo_t = t
                else:
                    hi_t = t
                t += g / (1.0 - e * float(np.add.reduce(w[free])) / w_sum)
                if not lo_t < t < hi_t:  # Newton left the bracket: bisect it
                    t = 0.5 * (lo_t + hi_t)
                    if not lo_t < t < hi_t:
                        return y, k, True  # the bracket can no longer shrink
        return y, _BOX_MAX_ITER, False


def _log_power_norm(la: np.ndarray, p: float):
    """(log ||a||_p, w, w.sum()) from la = log|a|, where w = (|a|/max|a|)^p
    is each coordinate's share of ||a||_p^p up to a common factor;
    (-inf, None, 0.0) when a = 0."""
    m = float(np.maximum.reduce(la))
    if m == -math.inf:
        return m, None, 0.0
    w = np.exp(p * (la - m))
    w_sum = float(np.add.reduce(w))
    return m + math.log(w_sum) / p, w, w_sum


@dataclass(frozen=True, eq=False)
class EuclideanBall(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _checked("ball center", self.center)
        if not self.radius > 0:  # also for a NaN radius
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def euclidean_project(self, x):
        x = self._check_dim(x, rows=True)
        if self.radius == math.inf:  # the whole space, where R / max(||d||, R) would be NaN
            return x.copy()
        d = x - self.center
        if x.ndim > 1:
            nd = np.linalg.norm(d, axis=-1, keepdims=True)
            return self.center + (self.radius / np.maximum(nd, self.radius)) * d
        nd = float(np.linalg.norm(d))
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d

    def contains(self, x, tol: float = tolerances.MEMBERSHIP_TOL) -> bool:
        # the distance to the ball is max(||x - c||_2 - R, 0), and 0 for R = inf also where ||x - c||_2 overflows
        if tol < 0:
            raise ValueError("membership tolerance must be >= 0")
        return float(np.linalg.norm(self._check_dim(x) - self.center)) - self.radius <= tol or self.radius == math.inf

    def vi_bound(self, y, g, rho):
        r, ng = y - self.center, math.sqrt(g.dot(g))  # <z - c, g> <= R ||g||_2 on the ball
        reach = rho + max(math.sqrt(r.dot(r)) - self.radius, 0.0)
        return min(self.radius * ng - float(r.dot(g)), reach * ng)

    def minimize_phi(self, space, x, jx):
        """x is outside, so Q_C(x) is on the sphere and solves the KKT system
        F(y, mu) = [Jy - Jx + mu r; (||r||_2^2 - R^2)/2] = 0, r = y - c,
        mu >= 0.  Newton from the Euclidean projection and least-squares mu:
        with M = diag(d + mu) + gamma u u' from the Jacobian of J at
        y/||y||_p, a step solves M a = F_1 and M b = r by Sherman-Morrison and
        moves to y - t a - nu b, max(0, mu + nu), for nu the root of F_2 there
        nearest 0.  So iterates stay on the sphere, whose curvature would swamp
        ||F|| when a step moves far where J is flat (p > 2, mu near 0).  t
        halves until ||F_1||_2 decreases; the solve stops when F is at its
        rounding level.  A zero of d + mu is regularized by lam I, doubled
        from 1e-8, as in the resolvent's Newton.
        """
        p, c, rad2 = space.p, self.center, self.radius * self.radius
        tol = 4.0 * max(p, 2.0) * _EPS  # each (J y)_i is rounded to about p eps of its size
        n_jx, n_c = math.sqrt(jx.dot(jx)), math.sqrt(c.dot(c))
        y, ny, jy = _normed(self.euclidean_project(x), p)
        r = y - c
        rr = float(r.dot(r))
        if rr == 0.0:  # ||x - c||_2 overflowed, or R is lost to the rounding of c or of R^2
            raise ValueError("the Euclidean projection onto the ball rounds to its center: ||x - c||_2 overflows")
        mu = max(0.0, float(r.dot(jx - jy)) / rr)
        f1 = jy - jx + mu * r
        fn, lam = math.sqrt(f1.dot(f1)), 0.0
        for k in range(_NEWTON_MAX_ITER + 1):
            rr, n_y = float(r.dot(r)), math.sqrt(y.dot(y))
            if (fn <= tol * (math.sqrt(jy.dot(jy)) + n_jx + mu * (n_y + n_c))
                    and abs(rr - rad2) <= 2.0 * tol * (rad2 + math.sqrt(rr) * (n_y + n_c))):
                return y, k, True
            if k == _NEWTON_MAX_ITER or not fn < math.inf:
                break
            d, gamma, u = _dual_map_jacobian(y / ny, p, 1.0)
            dd = d + (mu + lam)  # d >= 0, so only mu + lam = 0 can leave a zero
            solve, denom = _diag_rank1_solver(dd, gamma, u)
            if not (denom > 0.0 and (mu + lam > 0.0 or (dd > 0.0).all())):
                lam = max(2.0 * lam, 1e-8)
                continue
            a, b = solve(f1), solve(r)
            bb, t = float(b.dot(b)), 1.0
            for _ in range(60):
                ta = t * a
                ra = r - ta
                half_b, cq = float(b.dot(ra)), float(ra.dot(ra)) - rad2
                disc = half_b * half_b - bb * cq
                if disc >= 0.0:  # else this line misses the sphere
                    root = half_b + math.copysign(math.sqrt(disc), half_b)
                    nu = cq / root if root else 0.0
                    cy, cny, cjy = _normed(y - ta - nu * b, p)
                    cr, cmu = cy - c, max(0.0, mu + nu)
                    cf1 = cjy - jx + cmu * cr
                    cfn = math.sqrt(cf1.dot(cf1))
                    if cfn < fn * (1.0 - 1e-4 * t):
                        break
                t *= 0.5
            else:
                break  # no decrease at float precision
            y, ny, jy, r, mu, f1, fn = cy, cny, cjy, cr, cmu, cf1, cfn
            lam *= 0.25
        return y, k, False


@dataclass(frozen=True, eq=False)
class AffineSet(ConvexSet):
    """point + span(directions); a singleton when directions is empty."""

    point: np.ndarray
    directions: np.ndarray  # shape (k, dim), rows spanning the direction space

    def __post_init__(self):
        p = _checked("affine point", self.point)
        d = _checked("affine directions", self.directions)
        if d.size == 0:
            d = np.zeros((0, p.shape[0]))
        if d.shape[1] != p.shape[0]:
            raise ValueError("direction rows must match the point dimension")
        # orthonormal basis; rank-deficient direction sets are fine
        basis = d
        if d.shape[0] > 0:
            _, s, vt = np.linalg.svd(d, full_matrices=False)
            basis = vt[s > 1e-12 * max(s[0], 1.0)]
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "_basis", basis)
        k = basis.shape[0]  # the complement's orthonormal rows follow the basis in the SVD
        object.__setattr__(self, "_complement", np.linalg.svd(basis)[2][k:] if k else None)

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

    def vi_bound(self, y, g, rho):
        r, v = y - self.point, self._basis @ g  # z - P(y) is in the span, P(y) - y = (r b') b - r
        return rho * math.sqrt(v.dot(v)) + float(((r @ self._basis.T) @ self._basis - r) @ g)

    def minimize_phi(self, space, x, jx):
        """Q_C(x) minimizes ||y||_p^2 / 2 - <y, Jx> over y in C.  For p > 2,
        damped Newton on y = point + basis' theta, from the Euclidean
        projection.  For p < 2 the Jacobian of J_p is unbounded at zero
        coordinates, while that of J_q is bounded, so Newton runs on the
        dual problem: y = J_q(Jx + complement' mu), where mu minimizes
        ||Jx + complement' mu||_q^2 / 2 - <Jx + complement' mu, point>,
        from mu = 0.  A singleton stores no complement: the primal solve
        returns its point, at 0 iterations.
        """
        if space.p > 2.0 or self._complement is None:  # the answer is z
            z, _, k, stopped = _newton_in_span(self.euclidean_project(x), self._basis, space.p, jx)
            return z, k, stopped
        return _newton_in_span(jx, self._complement, space.q, self.point)[1:]  # J_q z is the answer


def _diag_rank1_solver(dd, gamma, u):
    """(v -> (diag(dd) + gamma u u')^-1 v by Sherman-Morrison, its denominator
    1 + gamma u' diag(dd)^-1 u); dd > 0."""
    du = u / dd
    denom = 1.0 + gamma * float(u.dot(du))

    def solve(v):
        vd = v / dd
        return vd - (gamma * float(u.dot(vd)) / denom) * du

    return solve, denom


def _newton_in_span(z, rows, e, s, normal=None):
    """(z*, J_e z*, iterations, stopped) for z* the minimizer of
    f(z) = ||z||_e^2 / 2 - <z, s> over z + span(rows), rows orthonormal, or
    with rows None over z + the complement of the unit vector normal.

    Damped Newton with M = diag(d) + gamma u u' the Jacobian of J_e at z: on
    the coordinates theta of z + rows' theta, with gradient rows(J_e z - s)
    and Hessian rows M rows'; or given a normal, on the KKT system
    [M, normal; normal', 0] by Sherman-Morrison, d floored at eps max(d).
    A step that does not descend gives way to the gradient.  Armijo
    backtracking on f; stopped only when the gradient is at its rounding level.
    """
    z, nz, jz = _normed(z, e)
    zs = float(np.dot(z, s))
    fz = 0.5 * nz * nz - zs
    grad_eps = 4.0 * e * _EPS  # each (J_e z)_i is rounded to about e eps of its size
    abs_s = np.abs(s)
    abs_rows = np.abs(rows) if normal is None else np.abs(normal)
    row = rows[0] if normal is None and rows.shape[0] == 1 else None
    for k in range(1, _NEWTON_MAX_ITER + 1):
        if normal is None:
            g, bound = rows @ (jz - s), abs_rows @ (np.abs(jz) + abs_s)
        else:  # projecting off normal adds |normal_i| <|normal|, error> to each error
            r, w = jz - s, np.abs(jz) + abs_s
            g, bound = r - float(normal @ r) * normal, w + float(abs_rows @ w) * abs_rows
        if (np.abs(g) <= grad_eps * bound).all():
            return z, jz, k - 1, True  # also when there are no rows
        # DJ_e is 0-homogeneous: take it at z/||z||, where no power overflows
        d, gamma, u = _dual_map_jacobian(z / (nz or 1.0), e, nz and 1.0)
        if row is not None:  # a 1x1 model: division gives LAPACK's bits
            ru = float(row @ u)
            m = float((row * d) @ row) + gamma * (ru * ru)
            dtheta = -g / m if m else -g
        elif normal is None:
            ru = rows @ u
            try:
                dtheta = np.linalg.solve((rows * d) @ rows.T + gamma * (ru[:, None] * ru), -g)
            except np.linalg.LinAlgError:
                dtheta = -g  # a singular model: fall back to the gradient
        else:
            solve = _diag_rank1_solver(np.maximum(d, _EPS * float(d.max())), gamma, u)[0]
            mg, mn = solve(g), solve(normal)
            dtheta = (float(normal @ mg) / float(normal @ mn)) * mn - mg
            dtheta -= float(normal @ dtheta) * normal  # cancellation can leave a part along normal
        slope = float(np.dot(g, dtheta))  # df along dtheta, < 0
        if not slope < 0.0:  # a model singular at rounding level: fall back to the gradient
            dtheta, slope = -g, -float(np.dot(g, g))
            if not slope < 0.0:
                return z, jz, k, False  # a non-finite gradient
        dz = dtheta @ rows if normal is None else dtheta
        # near the minimizer a step moves f by less than f's rounding error
        f_noise = 4.0 * _EPS * (0.5 * nz * nz + abs(zs))
        step = 1.0
        for _ in range(60):  # down to 2^-59, about 1.7e-18
            cand, nc, jc = _normed(z + step * dz, e)
            cs = float(np.dot(cand, s))
            fc = 0.5 * nc * nc - cs
            if fc <= fz + _ARMIJO_C * step * slope + f_noise:
                break
            step *= 0.5
        else:
            return z, jz, k, False  # no descent at float precision
        z, nz, jz, zs, fz = cand, nc, jc, cs, fc
    return z, jz, _NEWTON_MAX_ITER, False


@dataclass
class ProjectionResult:
    """Q_C(x).  converged is the solve's stop and a probe VI residual at most
    VI_TOL; after a certifying VI bound, the residual is formed on first read."""

    point: np.ndarray
    vi_residual: float
    inner_iterations: int
    converged: bool


class _CertifiedProjection(ProjectionResult):
    def __init__(self, point, iters, stopped, probe):
        self.point, self.inner_iterations, self.converged, self._probe = point, iters, stopped, probe

    vi_residual = functools.cached_property(lambda self: self._probe())


def generalized_projection(
    space: LpSpace, cset: ConvexSet, x, rng: np.random.Generator | None = None
) -> ProjectionResult:
    """Q_C(x), the unique minimizer of phi(y, x) over C; without an rng, the
    probes run only if the VI bound, plus its rounding margin, exceeds VI_TOL,
    and an x in C certifies at once.  An x whose p-norm overflows raises
    ValueError, as does one whose ball projection rounds to the center."""
    x = space.check(x)
    nx = _power_norm(x, space.p)
    if nx == math.inf:
        raise ValueError("the p-norm of the point overflows, so its duality map is not finite")
    inside = cset.contains(x, 0.0)
    jx = None if inside else _dual_map(x, space.p, nx)
    if inside:
        point, iters, stopped = x.copy(), 0, True
    elif space.p == 2.0:
        point, iters, stopped = cset.euclidean_project(x), 0, True
    else:
        point, iters, stopped = cset.minimize_phi(space, x, jx)

    xx = float(x.dot(x))
    if rng is None and (inside or xx < math.inf):  # an infinite rho makes the margin inf or NaN
        if not inside:  # inside, g = Jx - Jx = 0 and every bound is 0
            g = jx - _dual_map(point, space.p)  # not finite, so not certified, for a non-finite point
            rho = max(1.0, math.sqrt(xx), math.sqrt(float(point.dot(point)))) * _probe_reach(space.dim)
            # the probes' <z - y, g> and the bound sum terms of size <= rho ||g||_2 (rho >= 2.3 ||y||_2,
            # and the set's data near y no larger), each off by <= (dim + 8) 2^-53 of it: twice covers both
            margin = (space.dim + 8) * 2.0**-52 * rho * math.sqrt(g.dot(g))
        if inside or cset.vi_bound(point, g, rho) + margin <= tolerances.VI_TOL:
            probe = functools.partial(cset.vi_residual, space, x.copy(), point, None)
            return _CertifiedProjection(point, iters, stopped, probe)
    residual = cset.vi_residual(space, x, point, rng)
    return ProjectionResult(point, residual, iters, stopped and residual <= tolerances.VI_TOL)
