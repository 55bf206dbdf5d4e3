import numpy as np
import pytest
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
from halpernlp.geometry import DimensionMismatchError


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

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            HalfSpace(a=np.zeros(2), b=1.0)
        with pytest.raises(ValueError):
            Box(lo=np.array([1.0]), hi=np.array([0.0]))
        with pytest.raises(ValueError):
            EuclideanBall(center=np.zeros(2), radius=0.0)

    def test_dimension_mismatch(self):
        hs = HalfSpace(a=np.array([1.0, 0.0]), b=0.0)
        with pytest.raises(DimensionMismatchError):
            hs.contains(np.zeros(3))

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
        # stationarity cutoff; the solver used to repeat them to its cap
        sp = LpSpace(6, 3.0)
        box = Box(lo=-0.5 * np.ones(6), hi=0.5 * np.ones(6))
        x = np.array([
            -0.8939044058324345, 0.9432871615609005, -2.2068367678240377,
            3.4794647225265805, 0.6281174661307066, -3.241828876643742,
        ])
        res = generalized_projection(sp, box, x)
        assert res.inner_iterations < 100
        assert res.converged
