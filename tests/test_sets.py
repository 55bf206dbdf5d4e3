import hashlib

import numpy as np
import pytest
from conftest import P_GRID
from scipy.optimize import brentq

from halpernlp import (
    AffineSet,
    Box,
    EuclideanBall,
    HalfSpace,
    LpSpace,
    WholeSpace,
    generalized_projection,
)
from halpernlp import sets, tolerances
from halpernlp.geometry import DimensionMismatchError, _dual_map, _power_norm
from halpernlp.sets import _ARMIJO_C, ConvexSet, _default_probes

EPS = np.finfo(float).eps

# Projected gradient descent on h(y) = ||y||_p^2 - 2<y, Jx> (phi minus the
# constant ||x||^2): a Barzilai-Borwein step from the Euclidean projection,
# projected back onto the set and backtracked by Armijo halving.  The oracle
# for the Newton solves of the box, the affine set and the ball.  Its first
# argument, self, is the set.
_PGD_GRAD_TOL = 1e-9
_PGD_MAX_ITER = 10_000


def projected_gradient(self, space: LpSpace, x: np.ndarray):
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


def sample_sets(dim=3):
    rng = np.random.default_rng(7)
    return [
        HalfSpace(a=rng.standard_normal(dim), b=0.5),
        Box(lo=-np.ones(dim), hi=np.ones(dim)),
        EuclideanBall(center=rng.standard_normal(dim) * 0.3, radius=1.5),
    ]


class TestMembershipAndEuclideanProjection:
    def test_whole_space(self, rng):
        assert WholeSpace().contains(rng.standard_normal(4))

    def test_half_space_examples(self):
        hs = HalfSpace(a=np.array([1.0, 0.0]), b=0.0)
        assert hs.contains(np.array([-1.0, 5.0]), tol=0.0)
        np.testing.assert_allclose(
            hs.euclidean_project(np.array([2.0, 3.0])), [0.0, 3.0]
        )

    def test_box_examples(self):
        box = Box(lo=np.zeros(2), hi=np.ones(2))
        # distance from (1.5, 0.5) to the box is 0.5 > 0.1
        assert not box.contains(np.array([1.5, 0.5]), tol=0.1)
        box3 = Box(lo=np.zeros(3), hi=np.ones(3))
        np.testing.assert_allclose(
            box3.euclidean_project(np.array([2.0, -1.0, 0.5])), [1.0, 0.0, 0.5]
        )

    def test_interior_point_is_its_own_projection(self, rng):
        for cset in sample_sets():
            x = cset.euclidean_project(rng.standard_normal(3))
            np.testing.assert_allclose(cset.euclidean_project(x), x, atol=1e-12)

    def test_projection_idempotent(self, rng):
        for cset in sample_sets():
            for _ in range(20):
                p1 = cset.euclidean_project(rng.standard_normal(3) * 3)
                np.testing.assert_allclose(
                    cset.euclidean_project(p1), p1, atol=1e-10
                )

    def test_midpoint_convexity_sampling(self, rng):
        for cset in sample_sets():
            for _ in range(50):
                a = cset.euclidean_project(rng.standard_normal(3) * 2)
                b = cset.euclidean_project(rng.standard_normal(3) * 2)
                assert cset.contains(0.5 * (a + b), tol=1e-9)

    def test_rows_project_like_single_points(self, rng):
        line = AffineSet(point=np.ones(3), directions=np.array([[1.0, 2.0, 0.0]]))
        point = AffineSet(point=np.ones(3), directions=np.zeros((0, 3)))
        for cset in sample_sets() + [line, point, WholeSpace()]:
            rows = rng.standard_normal((40, 3)) * np.repeat([0.1, 1.0, 3.0, 10.0], 10)[:, None]
            each = np.stack([cset.euclidean_project(r) for r in rows])
            np.testing.assert_allclose(cset.euclidean_project(rows), each, rtol=1e-13, atol=1e-13)

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            HalfSpace(a=np.zeros(2), b=1.0)
        with pytest.raises(ValueError):
            Box(lo=np.array([1.0]), hi=np.array([0.0]))
        with pytest.raises(ValueError):
            EuclideanBall(center=np.zeros(2), radius=0.0)

    # NaN data would construct a set that contains no point, and a
    # projection would then fail naming no field
    def test_ball_rejects_nan_and_infinite_data(self):
        with pytest.raises(ValueError, match="radius"):
            EuclideanBall(center=np.zeros(3), radius=np.nan)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="center"):
                EuclideanBall(center=np.array([0.0, bad, 0.0]), radius=1.0)
        assert EuclideanBall(center=np.zeros(3), radius=np.inf).contains(np.full(3, 1e100))

    def test_box_rejects_nan_bounds_and_keeps_infinite_ones(self):
        with pytest.raises(ValueError, match="lo"):
            Box(lo=np.array([0.0, np.nan, 0.0]), hi=np.ones(3))
        with pytest.raises(ValueError, match="hi"):
            Box(lo=np.zeros(3), hi=np.array([np.nan, 1.0, 1.0]))
        box = Box(lo=np.array([-np.inf, 0.0, 0.0]), hi=np.array([np.inf, np.inf, 1.0]))
        assert box.contains(np.array([-1e300, 1e300, 0.5]))

    def test_half_space_rejects_non_finite_data(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="normal a"):
                HalfSpace(a=np.array([1.0, bad, 0.0]), b=0.0)
            with pytest.raises(ValueError, match="offset b"):
                HalfSpace(a=np.array([1.0, 0.0, 0.0]), b=bad)

    def test_affine_set_rejects_non_finite_data(self):
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="point"):
                AffineSet(np.array([0.0, bad]), [])
            with pytest.raises(ValueError, match="directions"):
                AffineSet(np.zeros(2), np.array([[1.0, bad]]))

    def test_dimension_mismatch(self):
        hs = HalfSpace(a=np.array([1.0, 0.0]), b=0.0)
        with pytest.raises(DimensionMismatchError):
            hs.contains(np.zeros(3))

    def test_membership_takes_one_point_and_projection_at_most_a_stack(self):
        for cset in sample_sets() + [AffineSet(point=np.ones(3), directions=np.eye(3)[:1])]:
            for shape in [(), (2,), (4, 3), (2, 4, 3)]:
                with pytest.raises(DimensionMismatchError):
                    cset.contains(np.zeros(shape))
            for shape in [(), (2,), (2, 4, 3)]:
                with pytest.raises(DimensionMismatchError):
                    cset.euclidean_project(np.zeros(shape))
            assert cset.euclidean_project(np.zeros((4, 3))).shape == (4, 3)

    def test_halfspace_projects_one_point_by_the_scalar_formula(self, rng):
        # the row formula on a single point keeps the bits of
        # x - (<a, x> - b) / <a, a> * a, and leaves points inside unchanged
        hs = HalfSpace(a=rng.standard_normal(5), b=0.3)
        for _ in range(50):
            x = 2.0 * rng.standard_normal(5)
            excess = float(np.dot(hs.a, x)) - hs.b
            want = x if excess <= 0.0 else x - excess / float(np.dot(hs.a, hs.a)) * hs.a
            np.testing.assert_array_equal(hs.euclidean_project(x), want)

    def test_affine_set(self, rng):
        # the line {(2, t)}
        line = AffineSet(point=np.array([2.0, 0.0]), directions=np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(
            line.euclidean_project(np.array([5.0, 3.0])), [2.0, 3.0]
        )
        singleton = AffineSet(point=np.array([1.0, 2.0]), directions=np.zeros((0, 2)))
        np.testing.assert_allclose(
            singleton.euclidean_project(rng.standard_normal(2)), [1.0, 2.0]
        )


def halfspace_gp_oracle(space, hs, x):
    """KKT route: Q_C(x) = J^{-1}(Jx - t a) with t >= 0 chosen so the
    constraint is active; scalar root-finding, independent of the solver."""
    jx = space.duality_map(x)

    def active_gap(t):
        y = space.inverse_duality_map(jx - t * hs.a)
        return float(np.dot(hs.a, y)) - hs.b

    if active_gap(0.0) <= 0.0:
        return x.copy()
    t_hi = 1.0
    while active_gap(t_hi) > 0.0:
        t_hi *= 2.0
    t = brentq(active_gap, 0.0, t_hi, xtol=1e-14)
    return space.inverse_duality_map(jx - t * hs.a)


def halfspace_vi_gap(space, hs, x, y):
    """An upper bound on max <z - y, Jx - Jy> over the z of the half-space
    with ||z - y||_2 <= ||x||_2: write Jx - Jy = t a + g with g orthogonal
    to a, and bound the two parts separately."""
    jg = space.duality_map(x) - space.duality_map(y)
    t = float(jg @ hs.a) / float(hs.a @ hs.a)
    radius = float(np.linalg.norm(x))
    along = t * (hs.b - float(hs.a @ y)) if t >= 0.0 else -t * radius * np.linalg.norm(hs.a)
    return radius * float(np.linalg.norm(jg - t * hs.a)) + along


class TestHalfSpaceMembership:
    """HalfSpace.contains tests <a, x> - b <= tol ||a||_2 in closed form,
    and EuclideanBall.contains tests ||x - c||_2 - R <= tol."""

    def test_agrees_with_projection_distance_away_from_the_boundary(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 12))
            hs = HalfSpace(a=rng.standard_normal(dim), b=float(rng.standard_normal()))
            x = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(dim)
            dist = max(float(x @ hs.a) - hs.b, 0.0) / np.linalg.norm(hs.a)
            for tol in (0.0, 1e-7, 1e-3, 1.0):
                if abs(dist - tol) > 1e-9 * (1.0 + np.abs(x).max()):
                    assert hs.contains(x, tol) == ConvexSet.contains(hs, x, tol), (x, tol)

    def test_every_positive_excess_is_outside_at_zero_tolerance(self, rng):
        # walk a boundary point outward until <a, x> - b > 0; the projection
        # formula reports some of these as inside, when its correction of
        # x rounds away
        generic_inside = 0
        for _ in range(1000):
            dim = int(rng.integers(1, 12))
            hs = HalfSpace(a=rng.standard_normal(dim), b=float(rng.standard_normal()) * 10.0 ** rng.uniform(-3, 3))
            x = hs.euclidean_project(10.0 ** rng.uniform(-3, 3) * rng.standard_normal(dim))
            i = int(np.argmax(np.abs(hs.a)))
            step = np.spacing(max(abs(x[i]), 1e-300))
            while float(x @ hs.a) - hs.b <= 0.0:
                x[i] += np.copysign(step, hs.a[i])
                step *= 2.0
            assert not hs.contains(x, 0.0), x
            generic_inside += ConvexSet.contains(hs, x, 0.0)
        assert generic_inside > 0

    def test_ball_agrees_with_projection_distance_away_from_the_sphere(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 12))
            scale = 10.0 ** rng.uniform(-3, 3)
            ball = EuclideanBall(center=scale * rng.standard_normal(dim), radius=scale * rng.uniform(0.1, 2.0))
            x = ball.center + 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(dim)
            dist = max(float(np.linalg.norm(x - ball.center)) - ball.radius, 0.0)
            for tol in (0.0, 1e-7, 1e-3, 1.0):
                if abs(dist - tol) > 1e-9 * (1.0 + np.abs(x).max()):
                    assert ball.contains(x, tol) == ConvexSet.contains(ball, x, tol), (x, tol)

    def test_ball_every_positive_excess_is_outside_at_zero_tolerance(self, rng):
        # as for the half-space: walk a point of the sphere outward along its
        # largest coordinate of x - c until ||x - c||_2 - R > 0
        generic_inside = 0
        for _ in range(1000):
            dim = int(rng.integers(1, 12))
            scale = 10.0 ** rng.uniform(-3, 3)
            ball = EuclideanBall(center=scale * rng.standard_normal(dim), radius=scale * rng.uniform(0.1, 2.0))
            x = ball.euclidean_project(ball.center + 10.0 * scale * rng.standard_normal(dim))
            i = int(np.argmax(np.abs(x - ball.center)))
            step = np.spacing(max(abs(x[i]), 1e-300))
            while float(np.linalg.norm(x - ball.center)) - ball.radius <= 0.0:
                x[i] += np.copysign(step, x[i] - ball.center[i])
                step *= 2.0
            assert not ball.contains(x, 0.0), x
            generic_inside += ConvexSet.contains(ball, x, 0.0)
        assert generic_inside > 0

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            HalfSpace(a=np.ones(2), b=0.0).contains(np.zeros(2), -1.0)


class TestHalfSpaceNewton:
    """The half-space projects an outside x onto its boundary hyperplane
    with the affine set's Newton solve, given the hyperplane's normal."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0, 10.0])
    def test_matches_the_oracle(self, p, scale):
        # b = 0.5 scale, and b = 0.5, where the multiplier exceeds 1 at scale 1e3
        sp = LpSpace(10, p)
        for b in (0.5 * scale, 0.5):
            rng = np.random.default_rng(3)
            hs = HalfSpace(a=np.ones(10), b=b)
            for _ in range(3):
                x = scale * (rng.standard_normal(10) + 1.0)
                res = generalized_projection(sp, hs, x, rng=rng)
                y = res.point
                assert res.converged and res.inner_iterations <= 80
                # the solve puts y on either side of the hyperplane at rounding level
                assert float(hs.a @ y) - hs.b <= 10 * EPS * (abs(hs.b) + float(np.abs(hs.a * y).sum()))
                np.testing.assert_allclose(y, halfspace_gp_oracle(sp, hs, x), atol=1e-9 * scale)

    @pytest.mark.parametrize("seed", [[0, 10], [74, 10]], ids=["0-10", "74-10"])
    def test_high_p_answers_lie_on_the_hyperplane(self, seed):
        # a bracket on the multiplier used to report these as converged,
        # about 1e-3 ||x||_2 inside the half-space
        rng = np.random.default_rng(seed)
        sp = LpSpace(5, 10.0)
        hs = HalfSpace(a=rng.standard_normal(5), b=float(rng.standard_normal()))
        x = rng.standard_normal(5)
        res = generalized_projection(sp, hs, x)
        nx = float(np.linalg.norm(x))
        assert res.converged
        assert abs(float(hs.a @ res.point) - hs.b) <= 1e-12 * float(np.linalg.norm(hs.a)) * nx
        oracle, _ = projected_gradient(hs, sp, x)
        assert abs(phi_objective(sp, res.point, x) - phi_objective(sp, oracle, x)) <= 1e-13 * nx * nx

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    def test_one_dimensional_hyperplane_is_a_point(self, p):
        # a's orthogonal complement is {0}, so Q_C(x) is b / a for x outside
        res = generalized_projection(LpSpace(1, p), HalfSpace(a=np.array([-2.0]), b=3.0), np.array([-7.0]))
        assert res.converged
        np.testing.assert_allclose(res.point, [-1.5], rtol=1e-15)

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_a_long_normal_needs_no_basis(self, p):
        # a basis of a's orthogonal complement would hold dim^2 floats, and a
        # Newton step on it would cost dim^3
        rng = np.random.default_rng(5)
        dim = 10_000
        hs = HalfSpace(a=rng.standard_normal(dim), b=1.0)
        x = rng.standard_normal(dim) + 0.1 * hs.a  # <a, x> is about 1e3: outside
        res = generalized_projection(LpSpace(dim, p), hs, x)
        assert res.converged
        assert abs(float(hs.a @ res.point) - hs.b) <= 1e-12 * float(np.linalg.norm(hs.a) * np.linalg.norm(x))

    @pytest.mark.parametrize("lam", [1e20, 1e31, 1e40])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_far_scales_stay_feasible_and_optimal(self, p, lam):
        # a bracket capped at t = 1e30 used to return a point infeasible by
        # 8e31 here, with a VI probe residual of 0
        rng = np.random.default_rng(9)
        sp = LpSpace(10, p)
        hs = HalfSpace(a=np.ones(10), b=0.5)
        for _ in range(3):
            x = lam * (rng.standard_normal(10) + 1.0)
            y = generalized_projection(sp, hs, x).point
            assert float(hs.a @ y) - hs.b <= 4 * EPS * (abs(hs.b) + float(np.abs(hs.a * y).sum()))
            assert halfspace_vi_gap(sp, hs, x, y) <= 1e-13 * lam**2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_dual_point_is_rejected(self):
        # ||x||_3 overflows, so Jx is NaN: the solve must not report success
        sp = LpSpace(10, 3.0)
        hs = HalfSpace(a=np.ones(10), b=0.5)
        with pytest.raises(ValueError):
            generalized_projection(sp, hs, np.full(10, 1e308))


def phi_objective(space, y, x):
    """phi(y, x) - ||x||^2 = ||y||_p^2 - 2<y, Jx>."""
    return space.norm(y) ** 2 - 2.0 * float(np.dot(y, space.duality_map(x)))


def calls_workload_inputs():
    """(directions, [(variant, p, scale, inputs)]): the affine set's
    directions and the inputs of each cell of the benchmark's calls
    workload, drawn the same way.  Variants 0-3 are the half-space, the box,
    the ball and the affine set; 4-7 are the operators."""
    d = 10
    base = np.random.default_rng(1)
    directions = base.standard_normal((2, d))
    base.standard_normal((d, d))
    base.standard_normal((d, d))
    for _ in range(4):
        base.standard_normal(d)
    cells = []
    for p in (1.5, 2.0, 3.0, 6.0):
        for scale in (1.0, 1e3):
            for variant in range(8):
                cells.append((variant, p, scale, base.standard_normal((2, d)) * scale))
    return directions, cells


def calls_workload_sets(directions):
    """The half-space, box, ball and affine set of the calls workload."""
    return [
        HalfSpace(a=np.ones(10), b=0.5),
        Box(lo=-0.5 * np.ones(10), hi=0.5 * np.ones(10)),
        EuclideanBall(center=0.1 * np.ones(10), radius=0.8),
        AffineSet(point=np.zeros(10), directions=directions),
    ]


class TestAffineNewton:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0, 10.0])
    def test_no_worse_than_projected_gradient(self, p, scale):
        rng = np.random.default_rng(int(100 * p))
        sp = LpSpace(10, p)
        for _ in range(3):
            aff = AffineSet(
                point=scale * rng.standard_normal(10),
                directions=rng.standard_normal((int(rng.integers(1, 5)), 10)),
            )
            x = 2.0 * scale * rng.standard_normal(10)
            y, iters, stopped = aff.minimize_phi(sp, x, sp.duality_map(x))
            oracle, _ = projected_gradient(aff, sp, x)
            n2 = float(np.dot(x, x))
            assert stopped and iters <= 20
            assert aff.contains(y, 1e-12 * scale)
            assert phi_objective(sp, y, x) <= phi_objective(sp, oracle, x) + 1e-13 * n2

    def test_benchmark_census_inputs_pass(self):
        # the affine cells at scale 1e3 that projected gradient failed
        directions, cells = calls_workload_inputs()
        aff = AffineSet(point=np.zeros(10), directions=directions)
        passed = 0
        for variant, p, scale, inputs in cells:
            if variant != 3 or scale != 1e3 or p == 2.0:
                continue
            for x in inputs:
                res = generalized_projection(LpSpace(10, p), aff, x)
                assert res.inner_iterations <= 8
                passed += res.converged
        assert passed == 6

    @pytest.mark.parametrize("seed", [9, 93, 102, 291])
    def test_a_stop_is_claimed_only_at_the_minimizer(self, seed):
        # the first Newton model here is singular at rounding level, so its
        # step is not a descent direction; the solve used to report stopped
        # after it, with probe residuals from 3.75 to 34.3
        rng = np.random.default_rng(seed)
        a, b, x = rng.standard_normal(30), float(rng.standard_normal()), rng.standard_normal(30)
        hyperplane = AffineSet(point=(b / float(a @ a)) * a, directions=np.linalg.svd(a[None, :])[2][1:])
        sp = LpSpace(30, 10.0)
        y, _, stopped = hyperplane.minimize_phi(sp, x, sp.duality_map(x))
        assert not stopped or hyperplane.vi_residual(sp, x, y, None) <= tolerances.VI_TOL

    def test_singleton(self):
        single = AffineSet(point=np.array([1.0, -2.0, 0.5]), directions=np.zeros((0, 3)))
        for p in (1.5, 3.0):
            res = generalized_projection(LpSpace(3, p), single, np.array([3.0, 1.0, -1.0]))
            np.testing.assert_allclose(res.point, single.point, rtol=1e-15)
            assert res.converged

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_singleton_solves_at_once_and_stores_no_complement(self, p):
        # a unique zero or fixed point is a singleton: its projection is its
        # point's own bytes, with no Newton step, and certifies at once
        z = np.array([0.7, -1.3, 2.1e-3, 4.0])
        single = AffineSet(z, [])
        assert single._complement is None and single._basis.shape == (0, 4)
        for x in (np.array([3.0, 1.0, -1.0, 0.25]), z.copy()):
            res = generalized_projection(LpSpace(4, p), single, x)
            assert res.point.tobytes() == z.tobytes() and res.point is not z
            assert res.inner_iterations == 0 and res.converged
            assert isinstance(res, sets._CertifiedProjection)  # no probes formed


def ball_vi_gap(space, ball, x, y):
    """max of <z - y, Jx - Jy> over the z of the ball, in closed form:
    <c - y, g> + R ||g||_2 for g = Jx - Jy."""
    g = space.duality_map(x) - space.duality_map(y)
    return float(np.dot(ball.center - y, g)) + ball.radius * float(np.linalg.norm(g))


def sphere_points(ball, rng, excess, n):
    """n points at distance R + excess from the center, in random directions."""
    v = rng.standard_normal((n, ball.dim))
    return ball.center + (ball.radius + excess) * v / np.linalg.norm(v, axis=1, keepdims=True)


class TestBallNewton:
    # the ball of the benchmark's calls workload; criterion 3 uses it at dim 6
    BALL = EuclideanBall(center=0.1 * np.ones(10), radius=0.8)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0, 10.0])
    def test_no_worse_than_projected_gradient(self, p, scale):
        rng = np.random.default_rng(int(100 * p))
        sp, ball = LpSpace(10, p), self.BALL
        for _ in range(3):
            x = 2.0 * scale * rng.standard_normal(10)
            y, iters, stopped = ball.minimize_phi(sp, x, sp.duality_map(x))
            oracle, _ = projected_gradient(ball, sp, x)
            n2 = float(np.dot(x, x))
            assert stopped and iters <= 12
            assert ball.contains(y, 4 * EPS * ball.radius)
            assert ball_vi_gap(sp, ball, x, y) <= 1e-13 * n2
            assert phi_objective(sp, y, x) <= phi_objective(sp, oracle, x) + 1e-13 * n2

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0, 10.0])
    def test_inputs_just_outside_the_sphere(self, p):
        # where projected gradient ran to its 10,000-iteration cap and still
        # reported converged=True.  At p = 10, where J is nearly flat in the
        # small coordinates and mu is near 0, converged must mean the stop
        # test was met
        rng = np.random.default_rng(int(10 * p))
        sp, ball = LpSpace(10, p), self.BALL
        for excess in (0.1, 1e-3, 1e-6):
            for x in sphere_points(ball, rng, excess, 4):
                y, iters, stopped = ball.minimize_phi(sp, x, sp.duality_map(x))
                res = generalized_projection(sp, ball, x)
                np.testing.assert_array_equal(res.point, y)
                assert res.converged == (stopped and res.vi_residual <= tolerances.VI_TOL)
                if p < 10.0:
                    assert res.converged and iters <= 15
                if stopped:
                    assert ball_vi_gap(sp, ball, x, y) <= 1e-13 * max(1.0, float(np.dot(x, x)))

    def test_stopping_short_of_the_test_is_not_converged(self, monkeypatch):
        # one Newton step from the Euclidean projection leaves the VI probes
        # passing but F above its rounding level
        sp, ball = LpSpace(10, 3.0), self.BALL
        x = sphere_points(ball, np.random.default_rng(4), 1e-3, 1)[0]
        monkeypatch.setattr(sets, "_NEWTON_MAX_ITER", 1)
        y, iters, stopped = ball.minimize_phi(sp, x, sp.duality_map(x))
        assert iters == 1 and not stopped
        res = generalized_projection(sp, ball, x)
        assert res.vi_residual <= tolerances.VI_TOL
        assert not res.converged

    def test_benchmark_calls_inputs_pass(self):
        _, cells = calls_workload_inputs()
        ball, calls = self.BALL, 0
        for variant, p, scale, inputs in cells:
            if variant != 2 or p == 2.0:
                continue
            for x in inputs:
                res = generalized_projection(LpSpace(10, p), ball, x)
                assert res.converged and 1 <= res.inner_iterations <= 8
                assert ball.contains(res.point, 4 * EPS * ball.radius)
                calls += 1
        assert calls == 12


class TestGeneralizedProjection:
    def test_whole_space_identity(self, rng):
        sp = LpSpace(3, 3.0)
        x = rng.standard_normal(3)
        res = generalized_projection(sp, WholeSpace(), x)
        np.testing.assert_array_equal(res.point, x)
        assert res.vi_residual == 0.0

    def test_member_maps_to_itself(self, rng):
        sp = LpSpace(3, 3.0)
        for cset in sample_sets():
            x = cset.euclidean_project(rng.standard_normal(3) * 0.2)
            res = generalized_projection(sp, cset, x)
            np.testing.assert_allclose(res.point, x, atol=1e-9)
            assert res.vi_residual <= 1e-6

    def test_p2_matches_euclidean(self, rng):
        sp = LpSpace(3, 2.0)
        for cset in sample_sets():
            for _ in range(20):
                x = rng.standard_normal(3) * 2
                res = generalized_projection(sp, cset, x, rng=rng)
                np.testing.assert_allclose(
                    res.point, cset.euclidean_project(x), atol=1e-8
                )

    def test_p3_halfspace_against_dual_oracle(self, rng):
        sp = LpSpace(2, 3.0)
        hs = HalfSpace(a=np.array([1.0, 1.0]), b=1.0)
        x = np.array([2.0, 2.0])
        res = generalized_projection(sp, hs, x, rng=rng)
        assert float(np.dot(hs.a, res.point)) == pytest.approx(1.0, abs=1e-7)
        assert res.vi_residual <= 1e-6
        oracle = halfspace_gp_oracle(sp, hs, x)
        np.testing.assert_allclose(res.point, oracle, atol=1e-6)

    def test_p3_halfspace_oracle_random(self, rng):
        sp = LpSpace(4, 3.0)
        hs = HalfSpace(a=np.array([1.0, -2.0, 0.5, 1.0]), b=-0.3)
        for _ in range(25):
            x = rng.standard_normal(4) * 2
            res = generalized_projection(sp, hs, x, rng=rng)
            oracle = halfspace_gp_oracle(sp, hs, x)
            np.testing.assert_allclose(res.point, oracle, atol=1e-6)

    @pytest.mark.parametrize("cset", [
        Box(lo=-np.ones(10), hi=np.ones(10)),
        EuclideanBall(center=np.zeros(10), radius=1.0),
        AffineSet(point=np.zeros(10), directions=np.eye(10)[:2]),
    ], ids=["box", "ball", "affine"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_norm_is_rejected(self, cset):
        # ||x||_3 overflows, so Jx is NaN: every set must refuse the point,
        # as TestHalfSpaceNewton::test_overflowed_dual_point_is_rejected checks for the half-space
        with pytest.raises(ValueError, match="overflows"):
            generalized_projection(LpSpace(10, 3.0), cset, np.full(10, 1e308))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_ball_offset_that_overflows_is_rejected(self):
        # ||x||_3 is finite but ||x - c||_2^2 overflows, so the Euclidean
        # start of the ball's solve rounds to the center, where it divided by 0
        x = 1e154 * np.linspace(-1.0, 1.3, 10)
        assert _power_norm(x, 3.0) < np.inf
        ball = EuclideanBall(center=0.1 * np.ones(10), radius=0.8)
        with pytest.raises(ValueError, match="overflows"):
            generalized_projection(LpSpace(10, 3.0), ball, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_answer_is_rejected(self, monkeypatch, bad):
        # the certificate takes J of the answer with the private map, so a
        # non-finite answer gives a non-finite margin: the probes run, and
        # their public duality map refuses the point
        def broken(self, space, x, jx):
            y = self.euclidean_project(x)
            y[3] = bad
            return y, 1, True

        monkeypatch.setattr(HalfSpace, "minimize_phi", broken)
        with pytest.raises(ValueError, match="non-finite"):
            generalized_projection(LpSpace(10, 3.0), HalfSpace(a=np.ones(10), b=0.5), np.ones(10))

    def test_a_point_of_the_set_certifies_at_once(self, rng, monkeypatch):
        # g = Jx - Jx = 0, so every bound certifies: no duality map is formed
        sp = LpSpace(10, 3.0)
        points = [
            -rng.random(10),
            0.4 * rng.uniform(-1.0, 1.0, 10),
            0.1 + 0.05 * rng.standard_normal(10),
            np.concatenate([rng.standard_normal(2), np.zeros(8)]),
        ]
        for cset, x in zip(calls_workload_sets(np.eye(10)[:2]), points):
            with monkeypatch.context() as m:
                m.setattr(sets, "_dual_map", None)
                res = generalized_projection(sp, cset, x)
            assert isinstance(res, sets._CertifiedProjection) and res.converged
            assert res.point is not x and res.point.tobytes() == x.tobytes()
            assert res.inner_iterations == 0
            assert res.vi_residual == cset.vi_residual(sp, x, x, None)

    def test_idempotence(self, rng):
        sp = LpSpace(3, 3.0)
        for cset in sample_sets():
            x = rng.standard_normal(3) * 3
            first = generalized_projection(sp, cset, x, rng=rng).point
            second = generalized_projection(sp, cset, first, rng=rng).point
            assert np.linalg.norm(second - first) <= 1e-7

    def test_type_r_and_three_term_inequality(self, rng):
        # phi(z, Qx) + phi(Qx, x) <= phi(z, x) for z in C
        for p in [2.0, 3.0]:
            sp = LpSpace(3, p)
            for cset in sample_sets():
                for _ in range(10):
                    x = rng.standard_normal(3) * 2
                    qx = generalized_projection(sp, cset, x, rng=rng).point
                    for _ in range(10):
                        z = cset.euclidean_project(rng.standard_normal(3) * 2)
                        lhs = sp.lyapunov(z, qx) + sp.lyapunov(qx, x)
                        assert lhs <= sp.lyapunov(z, x) + 1e-7
                        assert sp.lyapunov(z, qx) <= sp.lyapunov(z, x) + 1e-8

    def test_result_stays_in_set(self, rng):
        sp = LpSpace(3, 2.5)
        for cset in sample_sets():
            for _ in range(10):
                res = generalized_projection(sp, cset, rng.standard_normal(3) * 4, rng=rng)
                assert cset.contains(res.point, tol=1e-6)

    def test_stops_when_descent_stalls_at_float_precision(self):
        # from this x the gradient steps stop moving y a little above the
        # stationarity cutoff; the solver used to repeat them to its cap.
        # Boxes have their own solver, so call the projected gradient directly.
        sp = LpSpace(6, 3.0)
        box = Box(lo=-0.5 * np.ones(6), hi=0.5 * np.ones(6))
        x = np.array([
            -0.8939044058324345, 0.9432871615609005, -2.2068367678240377,
            3.4794647225265805, 0.6281174661307066, -3.241828876643742,
        ])
        y, iters = projected_gradient(box, sp, x)
        assert iters < 100
        assert box.vi_residual(sp, x, y, None) <= 1e-6

    def test_default_probes_are_drawn_once_and_read_only(self, rng):
        for dim in (3, 10):
            sp = LpSpace(dim, 3.0)
            box = Box(lo=-np.ones(dim), hi=np.ones(dim))
            x = 3.0 * rng.standard_normal(dim)
            proj = generalized_projection(sp, box, x).point
            assert box.vi_residual(sp, x, proj, None) == box.vi_residual(
                sp, x, proj, np.random.default_rng(0)
            )
            assert not _default_probes(dim).flags.writeable
            assert _default_probes(dim) is _default_probes(dim)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the probes overflow
    def test_probes_that_overflow_do_not_certify(self):
        # at 1e154 the probes' pairings overflow to NaN, which proves nothing:
        # the residual is inf and the projection has not converged
        sp, cset = LpSpace(10, 3.0), HalfSpace(a=np.ones(10), b=0.5)
        x = 1e154 * np.linspace(-1.0, 1.3, 10)
        res = generalized_projection(sp, cset, x, rng=np.random.default_rng(0))
        assert res.vi_residual == np.inf and not res.converged
        assert cset.vi_residual(sp, x, res.point, np.random.default_rng(0)) == np.inf

    def test_batched_vi_probes_match_one_probe_at_a_time(self, rng):
        # the batch draws the same probes as one standard_normal(dim) per probe
        sp = LpSpace(4, 3.0)
        for cset in sample_sets(4) + [AffineSet(point=np.ones(4), directions=np.eye(4)[:2])]:
            x = 3.0 * rng.standard_normal(4)
            proj = generalized_projection(sp, cset, x).point
            probes = np.random.default_rng(5)
            g = sp.duality_map(x) - sp.duality_map(proj)
            scale = max(1.0, np.linalg.norm(x), np.linalg.norm(proj))
            worst = 0.0
            for _ in range(100):
                z = cset.euclidean_project(proj + scale * probes.standard_normal(4))
                worst = max(worst, float(np.dot(z - proj, g)))
            batched = np.random.default_rng(5)
            assert cset.vi_residual(sp, x, proj, batched) == pytest.approx(worst, rel=1e-12, abs=1e-15)
            assert batched.standard_normal() == probes.standard_normal()


def box_vi_gap(space, box, x, y):
    """Exact max of <z - y, Jx - Jy> over the box points z within sup-distance
    max(1, ||x||) of y: a linear function peaks at a vertex."""
    g = space.duality_map(x) - space.duality_map(y)
    z = np.clip(y + max(1.0, np.linalg.norm(x)) * np.sign(g), box.lo, box.hi)
    return float(np.dot(z - y, g))


def box_objective(space, y, x):
    return space.norm(y) ** 2 - 2.0 * float(np.dot(y, space.duality_map(x)))


class TestBoxScalarSolve:
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("p", P_GRID + [1.1, 10.0])
    def test_solves_the_vi_and_matches_projected_gradient(self, p, scale):
        rng = np.random.default_rng(int(10 * p))
        sp = LpSpace(6, p)
        box = Box(lo=-scale * rng.uniform(0.2, 1.0, 6), hi=scale * rng.uniform(0.2, 1.0, 6))
        for k in range(8):
            x = 2.0 * scale * rng.standard_normal(6)
            if box.contains(x, 0.0):
                continue
            y, iters, stopped = box.minimize_phi(sp, x, sp.duality_map(x))
            n2 = max(1.0, float(np.linalg.norm(x)) ** 2)
            assert stopped and iters <= 12
            assert box.contains(y, 0.0)
            assert box_vi_gap(sp, box, x, y) <= 1e-12 * n2
            # at p = 10 the objective is flat in the small coordinates:
            # projected gradient is slow there and ends near the minimum of
            # h but not near its minimizer, so two inputs compare h only
            if p == 10.0 and k >= 2:
                continue
            oracle, _ = projected_gradient(box, sp, x)
            h_y, h_oracle = box_objective(sp, y, x), box_objective(sp, oracle, x)
            assert h_oracle - 1e-12 * n2 <= h_y <= h_oracle + 1e-12 * n2
            if p < 10.0:
                assert np.linalg.norm(y - oracle) <= 1e-6 * max(1.0, np.linalg.norm(x))

    def test_infinite_and_pinched_bounds(self, rng):
        inf = np.inf
        box = Box(lo=np.array([-inf, -1.0, 0.3, -inf, 2.0]), hi=np.array([inf, 1.0, 0.3, 0.5, inf]))
        for p in (1.1, 1.5, 3.0, 10.0):
            sp = LpSpace(5, p)
            for _ in range(10):
                x = 3.0 * rng.standard_normal(5)
                res = generalized_projection(sp, box, x, rng=rng)
                assert res.converged and res.inner_iterations <= 12
                assert res.point[2] == 0.3 and res.point[4] >= 2.0
                assert box_vi_gap(sp, box, x, res.point) <= 1e-12 * max(1.0, np.linalg.norm(x) ** 2)

    def test_answer_at_the_origin(self):
        # every coordinate of x points out of the box through a face at 0
        box = Box(lo=np.array([-1.0, -1.0, 0.0]), hi=np.array([0.0, 0.0, 1.0]))
        x = np.array([2.0, 3.0, -1.0])
        for p in (1.5, 3.0, 6.0):
            sp = LpSpace(3, p)
            res = generalized_projection(sp, box, x)
            np.testing.assert_array_equal(res.point, np.zeros(3))
            assert res.converged
            oracle, _ = projected_gradient(box, sp, x)
            np.testing.assert_allclose(oracle, np.zeros(3), atol=1e-8)

    def test_answers_far_from_the_input_norm_do_not_overflow(self):
        # (s/||x||)^e overflows a float here: at p = 1.1, e = -9 and s is
        # 1e-40 times ||x||; at p = 10 s is 1e400 times ||x||
        tiny = Box(lo=np.zeros(2), hi=np.full(2, 1e-40))
        res = generalized_projection(LpSpace(2, 1.1), tiny, np.ones(2))
        np.testing.assert_array_equal(res.point, [1e-40, 1e-40])
        assert res.converged
        far = Box(lo=np.array([1e100, -np.inf]), hi=np.full(2, np.inf))
        x = np.full(2, 1e-300)
        res = generalized_projection(LpSpace(2, 10.0), far, x)
        assert res.converged and res.point[0] == 1e100
        # the free coordinate is (s/||x||)^e x_2 with s = ||y|| = 1e100 in
        # floats and e = 8/9
        log_y2 = 8.0 / 9.0 * (np.log(1e100) - np.log(2.0) / 10.0 - np.log(1e-300)) + np.log(1e-300)
        assert res.point[1] == pytest.approx(np.exp(log_y2), rel=1e-12)
        # the first Newton step from t = 0 goes to t = -92, where the free,
        # unbounded second coordinate is e^714 and saturates to inf
        half_open = Box(lo=np.array([0.0, -np.inf]), hi=np.array([1e-40, np.inf]))
        res = generalized_projection(LpSpace(2, 1.1), half_open, np.array([1.0, 1e-50]))
        assert res.converged and res.point[0] == 1e-40
        # y_2 = (s/||x||)^e x_2 with s = ||y|| = y_2 in floats: y_2^10 = 1e-50
        assert res.point[1] == pytest.approx(1e-5, rel=1e-12)

    @pytest.mark.parametrize("x, lo, hi", [
        # p = 3 inputs whose root has |g| near 3e-16 on both sides: Newton
        # steps just above a step tolerance swapped the sign of g until the
        # 100-iteration cap
        ([-0.08698069035424413, 4.643971432438595, -0.011670613401656574, 0.08417981438338719],
         [-0.2766195613107465, -0.7274126718410557, -0.05720174523017783, -0.038639277244517885],
         [-0.20286699549449438, 15.331447944953212, -0.019633876440858213, -0.020828784710803364]),
        ([0.004378161515721977, -1.1802587664178184, 17.33715103257781,
          -0.4343427340852176, 0.4463131143145291],
         [-0.7045793699744565, -2.5257154975551273, -12.541240939475237,
          -0.27302458614005964, -0.11344445522420721],
         [0.2603001120902544, -0.7344892412595121, 112.83015612158513,
          0.620373405289089, 0.22930274035026887]),
    ])
    def test_newton_stops_at_the_rounding_level_of_g(self, x, lo, hi):
        x = np.array(x)
        sp = LpSpace(x.size, 3.0)
        box = Box(lo=np.array(lo), hi=np.array(hi))
        y, iters, stopped = box.minimize_phi(sp, x, sp.duality_map(x))
        assert stopped and iters <= 4
        assert box_vi_gap(sp, box, x, y) <= 1e-14 * np.linalg.norm(x) ** 2

    def test_zero_input_goes_to_the_least_norm_point(self):
        box = Box(lo=np.array([1.0, -1.0]), hi=np.array([2.0, 1.0]))
        res = generalized_projection(LpSpace(2, 3.0), box, np.zeros(2))
        np.testing.assert_array_equal(res.point, [1.0, 0.0])
        assert res.converged

    @pytest.mark.parametrize("x", [
        # x ~ 3 N(0, I) against [-1, 1]^6 at p = 6, where projected gradient
        # ran to its 10,000-iteration cap, up to 0.019 away from the minimizer
        [8.267422674827854, 3.123729575084387, -2.344272125031945,
         -4.0121917245848735, -2.9267484917989743, -0.06507257854120532],
        [-0.8662995179861326, 0.2504260683210296, -2.5488178668304293,
         -1.5318674036943802, -0.034599185059760326, -4.456125552790636],
        [-1.486347142148616, -5.519155815667856, 3.1466463372021813,
         0.026344268897319105, 5.721078572894752, 1.0724013695069585],
    ])
    def test_inputs_that_capped_projected_gradient(self, x):
        sp = LpSpace(6, 6.0)
        box = Box(lo=-np.ones(6), hi=np.ones(6))
        x = np.array(x)
        res = generalized_projection(sp, box, x)
        assert res.converged and res.inner_iterations <= 10
        assert box_vi_gap(sp, box, x, res.point) <= 1e-12 * np.linalg.norm(x) ** 2


def certificate_cases(dim, scale, rng):
    """(set, inputs) pairs of every variant at one dimension and scale: boxes
    with infinite bounds, and balls with inputs 0.1, 1e-3 and 1e-6 outside
    the sphere."""
    lo, hi = -scale * rng.random(dim), scale * rng.random(dim)
    lo_open, hi_open = lo.copy(), hi.copy()
    lo_open[: dim // 2 + 1] = -np.inf
    hi_open[dim // 2:] = np.inf
    ball = EuclideanBall(center=0.3 * scale * rng.standard_normal(dim), radius=scale * (0.2 + rng.random()))
    near = np.concatenate([sphere_points(ball, rng, e * scale, 1) for e in (0.1, 1e-3, 1e-6)])
    cases = [
        (WholeSpace(), []),
        (HalfSpace(a=rng.standard_normal(dim), b=scale * rng.standard_normal()), []),
        (Box(lo=lo, hi=hi), []),
        (Box(lo=lo_open, hi=hi), []),
        (Box(lo=lo, hi=hi_open), []),
        (ball, list(near)),
        (AffineSet(point=scale * rng.standard_normal(dim),
                   directions=rng.standard_normal((int(rng.integers(0, dim)), dim))), []),
    ]
    return [(cset, extra + list(2.0 * scale * rng.standard_normal((3, dim)))) for cset, extra in cases]


class TestVIBound:
    """The closed-form VI bound certifies a projection without forming the
    probes; converged must stay what the probes alone would decide."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 6.0, 10.0])
    def test_certificate_leaves_converged_as_the_probes_decide(self, p, scale):
        rng = np.random.default_rng(int(10 * p) + int(np.log10(scale)))
        certified = 0
        for dim in (1, 2, 10, 30):
            sp = LpSpace(dim, p)
            for cset, inputs in certificate_cases(dim, scale, rng):
                for x in inputs:
                    inside = cset.contains(x, 0.0) or p == 2.0
                    stopped = inside or cset.minimize_phi(sp, x, sp.duality_map(x))[2]
                    res = generalized_projection(sp, cset, x)
                    eager = cset.vi_residual(sp, x, res.point, None)
                    assert res.converged == (stopped and eager <= tolerances.VI_TOL)
                    # the bound dominates the probes up to the rounding margin
                    g = sp.duality_map(x) - sp.duality_map(res.point)
                    rho = max(1.0, np.linalg.norm(x), np.linalg.norm(res.point)) * sets._probe_reach(dim)
                    margin = (dim + 8) * 2.0**-52 * rho * np.linalg.norm(g)
                    assert eager <= cset.vi_bound(res.point, g, rho) + margin
                    if isinstance(res, sets._CertifiedProjection):
                        certified += 1
                        assert eager <= tolerances.VI_TOL
                        assert res.vi_residual == eager  # read lazily, the same bits
                    # with an rng the probes are drawn as before: 100 rows per
                    # call, none for the whole space
                    drawn, expected = np.random.default_rng(5), np.random.default_rng(5)
                    with_rng = generalized_projection(sp, cset, x, rng=drawn)
                    if not isinstance(cset, WholeSpace):
                        expected.standard_normal((100, dim))
                    assert drawn.bit_generator.state == expected.bit_generator.state
                    assert with_rng.vi_residual == cset.vi_residual(sp, x, res.point, np.random.default_rng(5))
                    assert with_rng.converged == (stopped and with_rng.vi_residual <= tolerances.VI_TOL)
        assert certified > 0

    def test_calls_projections_certify_without_probes(self, monkeypatch):
        # the set cells of the benchmark's calls workload: each projection
        # without an rng certifies, so no probe is formed
        directions, cells = calls_workload_inputs()
        targets = calls_workload_sets(directions)

        def no_probes(*args):
            raise AssertionError("probes formed")

        monkeypatch.setattr(ConvexSet, "vi_residual", no_probes)
        calls = 0
        for variant, p, scale, inputs in cells:
            if variant < 4:
                for x in inputs:
                    res = generalized_projection(LpSpace(10, p), targets[variant], x)
                    assert isinstance(res, sets._CertifiedProjection) and res.converged
                    calls += 1
        assert calls == 64

    def test_a_bound_within_its_margin_of_vi_tol_does_not_certify(self):
        # at scale 1e3 the rounding margin alone exceeds VI_TOL: this box's
        # bound is 0, so only the margin keeps the probes deciding
        sp = LpSpace(10, 1.1)
        box = Box(lo=-500.0 * np.ones(10), hi=500.0 * np.ones(10))
        x = 2e3 * np.random.default_rng(0).standard_normal(10)
        y, _, stopped = box.minimize_phi(sp, x, sp.duality_map(x))
        g = sp.duality_map(x) - sp.duality_map(y)
        rho = max(1.0, np.linalg.norm(x), np.linalg.norm(y)) * sets._probe_reach(10)
        assert box.vi_bound(y, g, rho) <= tolerances.VI_TOL
        res = generalized_projection(sp, box, x)
        assert not isinstance(res, sets._CertifiedProjection)
        assert res.converged == (stopped and res.vi_residual <= tolerances.VI_TOL)

    # sha256 of the projection points of each set's cells of the calls
    # workload, in cell order: the solves' bits, which a change that claims
    # to keep them must keep
    CALLS_POINTS_SHA256 = [
        "db3479dc11e3a8f80929c7e33ec95a4dc42eda11a154e6cceef4223aaa16a4d3",  # half-space
        "0e3ca3df70e1377b461ace08333b5d4977a0c6ad22f72b83e204fb7193e98ec7",  # box
        "801e57fa4152dc2c6709d5048980af9a155cb61905a091e85b4e1945248230d0",  # ball
        "3a1faccab506a487afd16be8bd506579651fb145bb7b51d09ca420fe1cf9991e",  # affine set
    ]

    def test_calls_projection_points_are_pinned(self):
        directions, cells = calls_workload_inputs()
        targets, digests = calls_workload_sets(directions), [hashlib.sha256() for _ in range(4)]
        for variant, p, _, inputs in cells:
            if variant < 4:
                for x in inputs:
                    digests[variant].update(generalized_projection(LpSpace(10, p), targets[variant], x).point.tobytes())
        assert [d.hexdigest() for d in digests] == self.CALLS_POINTS_SHA256
