import warnings

import numpy as np
import pytest
from conftest import P_GRID
from scipy.optimize import root

from halpernlp import (
    AffineSet,
    DualityResidual,
    GradientOfQuadratic,
    LinearMonotone,
    LpSpace,
    MonotoneOperator,
)
from halpernlp.geometry import NormedPoint
from halpernlp import operators
from halpernlp.operators import duality_map_jacobian, monotonicity_gap, resolvent


def sample_operators(dim=2):
    rng = np.random.default_rng(3)
    g = rng.standard_normal((dim, dim))
    return [
        LinearMonotone(m=g @ g.T + 0.2 * np.eye(dim), b=rng.standard_normal(dim)),
        DualityResidual(z=rng.standard_normal(dim)),
        GradientOfQuadratic(
            q=np.diag(rng.uniform(0.2, 2.0, dim)), c=rng.standard_normal(dim)
        ),
    ]


class TestEvaluate:
    def test_identity_operator(self, rng):
        sp = LpSpace(3, 2.0)
        op = LinearMonotone(m=np.eye(3), b=np.zeros(3))
        x = rng.standard_normal(3)
        np.testing.assert_allclose(op.evaluate(sp, x), x)

    def test_duality_residual_at_anchor(self):
        sp = LpSpace(2, 3.0)
        z = np.array([1.0, -2.0])
        op = DualityResidual(z=z)
        np.testing.assert_allclose(op.evaluate(sp, z), np.zeros(2), atol=1e-15)

    def test_quadratic_gradient(self):
        sp = LpSpace(2, 2.0)
        op = GradientOfQuadratic(q=np.diag([1.0, 2.0]), c=np.array([1.0, 0.0]))
        np.testing.assert_allclose(op.evaluate(sp, np.array([1.0, 1.0])), [0.0, 2.0])

    def test_psd_rejected(self):
        with pytest.raises(ValueError):
            LinearMonotone(m=-np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            GradientOfQuadratic(q=np.array([[1.0, 2.0], [2.0, 1.0]]), c=np.zeros(2))
        # symmetric part PSD but matrix asymmetric: legal monotone operator
        LinearMonotone(m=np.array([[1.0, -1.0], [1.0, 1.0]]), b=np.zeros(2))

    def test_asymmetry_rejected_for_quadratic(self):
        with pytest.raises(ValueError):
            GradientOfQuadratic(q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2))

    def test_monotonicity_sampling(self, rng):
        for p in [2.0, 3.0]:
            sp = LpSpace(2, p)
            for op in sample_operators():
                for _ in range(1000):
                    x, y = rng.standard_normal(2), rng.standard_normal(2)
                    assert monotonicity_gap(sp, op, x, y) >= -1e-10


class TestZeroSet:
    def test_duality_residual(self):
        sp = LpSpace(2, 3.0)
        z = np.array([0.5, -1.5])
        np.testing.assert_allclose(DualityResidual(z=z).zero_set(sp), z)

    def test_invertible_linear(self):
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.array([-1.0, -2.0]))
        np.testing.assert_allclose(op.zero_set(sp), [1.0, 2.0])

    def test_singular_quadratic_gives_line(self):
        sp = LpSpace(2, 2.0)
        op = GradientOfQuadratic(q=np.diag([2.0, 0.0]), c=np.array([4.0, 0.0]))
        zs = op.zero_set(sp)
        assert isinstance(zs, AffineSet)
        np.testing.assert_allclose(zs.euclidean_project(np.array([7.0, 3.0])), [2.0, 3.0])

    def test_inconsistent_rejected(self):
        sp = LpSpace(2, 2.0)
        op = GradientOfQuadratic(q=np.diag([2.0, 0.0]), c=np.array([4.0, 1.0]))
        with pytest.raises(ValueError):
            op.zero_set(sp)


class TestResolvent:
    def test_p2_identity_operator_closed_form(self):
        # (I + rI) z = x
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.zeros(2))
        res = resolvent(sp, op, 1.0, np.array([2.0, 4.0]))
        np.testing.assert_allclose(res.point, [1.0, 2.0], atol=1e-12)
        assert res.converged

    def test_fixed_point_property(self, rng):
        # x in A^{-1}0 implies L_r x = x
        for p in [2.0, 3.0]:
            sp = LpSpace(2, p)
            for op in sample_operators():
                zs = op.zero_set(sp)
                z = zs.point if isinstance(zs, AffineSet) else zs
                for r in [0.1, 1.0, 10.0]:
                    res = resolvent(sp, op, r, z)
                    assert np.linalg.norm(res.point - z) <= 1e-7
                    assert res.converged

    def test_p3_against_independent_root_finder(self, rng):
        sp = LpSpace(2, 3.0)
        op = GradientOfQuadratic(q=np.diag([1.0, 2.0]), c=np.array([1.0, 0.0]))
        x = np.zeros(2)
        res = resolvent(sp, op, 1.0, x)
        jx = sp.duality_map(x)

        def residual_map(z):
            return sp.duality_map(z) + op.evaluate(sp, z) - jx

        oracle = root(residual_map, np.array([0.4, 0.1]), tol=1e-14)
        assert oracle.success
        np.testing.assert_allclose(res.point, oracle.x, atol=1e-8)

    def test_random_resolvents_match_root_finder(self, rng):
        for p in [2.5, 3.0]:
            sp = LpSpace(3, p)
            for op in sample_operators(3):
                for r in [0.1, 1.0, 10.0]:
                    x = rng.standard_normal(3) * 2
                    res = resolvent(sp, op, r, x)
                    assert res.converged, (p, type(op).__name__, r, res.residual)
                    jx = sp.duality_map(x)
                    sol = root(
                        lambda z: sp.duality_map(z) + r * op.evaluate(sp, z) - jx,
                        res.point + rng.standard_normal(3) * 0.01,
                        tol=1e-14,
                    )
                    if sol.success:
                        np.testing.assert_allclose(res.point, sol.x, atol=1e-7)

    def test_resolvent_inequality_and_type_r(self, rng):
        # phi(u, L_r x) + phi(L_r x, x) <= phi(u, x) for zeros u
        for p in [2.0, 3.0]:
            sp = LpSpace(2, p)
            for op in sample_operators():
                zs = op.zero_set(sp)
                u = zs.point if isinstance(zs, AffineSet) else zs
                for r in [0.1, 1.0, 10.0]:
                    for _ in range(20):
                        x = rng.standard_normal(2) * 2
                        res = resolvent(sp, op, r, x)
                        lhs = sp.lyapunov(u, res.point) + sp.lyapunov(res.point, x)
                        assert lhs <= sp.lyapunov(u, x) + 1e-7
                        assert sp.lyapunov(u, res.point) <= sp.lyapunov(u, x) + 1e-7

    def test_iterated_fixed_point_is_a_zero(self):
        # a fixed point found by iteration satisfies ||Az||_q small
        sp = LpSpace(2, 3.0)
        op = GradientOfQuadratic(q=np.diag([0.5, 1.5]), c=np.array([0.3, -0.6]))
        z = np.array([2.0, 2.0])
        for _ in range(400):
            z = resolvent(sp, op, 1.0, z).point
        q = sp.q
        assert float(np.sum(np.abs(op.evaluate(sp, z)) ** q)) ** (1 / q) <= 1e-6

    def test_invalid_r(self):
        sp = LpSpace(2, 2.0)
        op = DualityResidual(z=np.zeros(2))
        with pytest.raises(ValueError):
            resolvent(sp, op, 0.0, np.ones(2))

    def test_residual_definition(self, rng):
        sp = LpSpace(3, 3.0)
        op = sample_operators(3)[0]
        x = rng.standard_normal(3)
        res = resolvent(sp, op, 1.0, x)
        g = sp.duality_map(res.point) + op.evaluate(sp, res.point) - sp.duality_map(x)
        assert res.residual == pytest.approx(sp.dual_norm(g), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("r, s", [(1e300, 1e10), (1e200, 1e200), (1.0, 1e300)])
    def test_non_finite_trial_points_are_rejected(self, r, s):
        # r A z or the Newton model overflows at this scale; Newton must turn
        # that into a failed solve with a usable residual, not an exception
        sp = LpSpace(3, 3.0)
        op = GradientOfQuadratic(q=np.diag([1.0, 0.5, 0.0]), c=np.array([1.0, 1.0, 0.0]))
        x = np.array([1.0, -2.0, 3.0]) * s
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = resolvent(sp, op, r, x)
        assert not res.converged
        assert not np.isnan(res.residual)
        assert np.all(np.isfinite(res.point))
        np.testing.assert_array_equal(res.point, x)
        assert len(caught) < 10
        if (r, s) != (1.0, 1e300):
            # the starting residual is already non-finite: stop before any step
            assert res.inner_iterations == 0
            assert res.residual == np.inf
        else:
            # the residual is finite but |z|^{p-1} overflows, so the first
            # Newton direction is NaN and no regularization makes it finite
            assert res.inner_iterations <= 2
            assert np.isfinite(res.residual)


class TestCarriedDuals:
    """A resolvent returns its answer with the answer's norm and J, and they
    equal the public LpSpace values whichever branch produced the answer."""

    @staticmethod
    def assert_carries_its_dual(sp, res):
        assert res.normed.x is res.point
        assert res.normed.norm == sp.norm(res.point)
        np.testing.assert_array_equal(res.normed.jx, sp.duality_map(res.point))

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_newton_answers(self, rng, p):
        # a diagonal quadratic (Sherman-Morrison steps) and a dense operator
        sp = LpSpace(4, p)
        g = rng.standard_normal((4, 4))
        ops = [
            GradientOfQuadratic(q=np.diag(rng.uniform(0.1, 1.0, 4)), c=rng.standard_normal(4)),
            LinearMonotone(m=g @ g.T + 0.1 * np.eye(4), b=rng.standard_normal(4)),
        ]
        for op in ops:
            x = rng.standard_normal(4)
            res = resolvent(sp, op, 1.0, x)
            assert res.converged and res.inner_iterations > 0
            self.assert_carries_its_dual(sp, res)
            warm = resolvent(sp, op, 1.0, x + 0.1, z0=res.point)
            self.assert_carries_its_dual(sp, warm)

    def test_a_normed_warm_start_reaches_the_same_iterates(self, rng):
        # the carried norm and J replace a recomputation bit for bit
        sp = LpSpace(5, 3.0)
        op = GradientOfQuadratic(q=np.diag(np.linspace(0.1, 1.0, 5)), c=rng.standard_normal(5))
        for _ in range(5):
            x, z0 = rng.standard_normal(5), rng.standard_normal(5)
            plain = resolvent(sp, op, 1.0, x, z0=z0)
            normed = resolvent(
                sp, op, 1.0, x, z0=NormedPoint(z0, sp.norm(z0), sp.duality_map(z0)),
                jx=sp.duality_map(x),
            )
            assert normed.point.tobytes() == plain.point.tobytes()
            assert (normed.residual, normed.inner_iterations) == (
                plain.residual, plain.inner_iterations)

    def test_best_iterate_fallback(self, monkeypatch):
        # two Newton steps: the second lowers ||g||_2 but raises ||g||_q, so
        # the solve returns the first step's iterate
        seen = []

        def q_norm(space, g):
            seen.append(original(space, g))
            return seen[-1]

        original = operators._q_norm
        monkeypatch.setattr(operators, "_q_norm", q_norm)
        monkeypatch.setattr(operators, "_NEWTON_MAX_ITER", 2)
        sp = LpSpace(3, 1.3)
        op = GradientOfQuadratic(
            q=np.diag([0.881142117689546, 0.2903382669458343, 1.2815215472577717]),
            c=np.array([1.050466148144303, 0.03492581067673853, 1.0372184519800927]),
        )
        x = np.array([-0.47037463750439723, 0.5396657398799372, -0.3772941060329656])
        z0 = np.array([-0.32690780933926955, 0.6556749389345349, 1.3336074120478192])
        res = resolvent(sp, op, 1.0, x, z0=z0)
        assert seen[-1] > res.residual
        self.assert_carries_its_dual(sp, res)

    def test_nudged_start(self):
        # x = 0 starts Newton at 1e-6 * (1, ..., 1); at r = 1e300 its residual
        # overflows and that start is the answer
        sp = LpSpace(3, 3.0)
        op = GradientOfQuadratic(q=np.diag([1.0, 0.5, 0.2]), c=np.full(3, 1e10))
        zero = np.zeros(3)
        for r, warm in ((1e300, None), (1.0, None), (1.0, NormedPoint(zero, 0.0, zero))):
            with np.errstate(over="ignore", invalid="ignore"):
                res = resolvent(sp, op, r, zero, z0=warm)
            if r == 1e300:
                np.testing.assert_array_equal(res.point, np.full(3, 1e-6))
            self.assert_carries_its_dual(sp, res)

    def test_closed_forms(self, rng):
        x = rng.standard_normal(3)
        cases = [
            (LpSpace(3, 3.0), DualityResidual(z=rng.standard_normal(3))),
            (LpSpace(3, 2.0), LinearMonotone(m=np.eye(3) + 0.5, b=rng.standard_normal(3))),
            (LpSpace(3, 2.0), GradientOfQuadratic(q=np.diag([1.0, 2.0, 0.0]), c=np.ones(3))),
        ]
        for sp, op in cases:
            res = resolvent(sp, op, 0.7, x)
            assert res.inner_iterations == 0 and res.converged
            self.assert_carries_its_dual(sp, res)


class TestDualityMapJacobian:
    @staticmethod
    def dense(space, x):
        d, gamma, u = duality_map_jacobian(space, x)
        return np.diag(d) + gamma * np.outer(u, u)

    @pytest.mark.parametrize("p", P_GRID + [1.1, 10.0])
    def test_matches_central_differences(self, rng, p):
        sp = LpSpace(5, p)
        for _ in range(5):
            # keep coordinates off 0, where |x_i|^{p-2} is singular for p < 2
            x = rng.choice([-1.0, 1.0], 5) * rng.uniform(0.3, 2.0, 5)
            h = 1e-6
            fd = np.column_stack([
                (sp.duality_map(x + h * e) - sp.duality_map(x - h * e)) / (2 * h)
                for e in np.eye(5)
            ])
            jac = self.dense(sp, x)
            np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6 * np.abs(fd).max())

    @staticmethod
    def min_relative_eigenvalue(jac):
        return np.linalg.eigvalsh(jac).min() / np.abs(jac).max()

    @pytest.mark.parametrize("p", P_GRID + [1.1, 10.0])
    def test_symmetric_psd(self, rng, p):
        sp = LpSpace(6, p)
        for _ in range(20):
            jac = self.dense(sp, rng.standard_normal(6) * 10.0 ** rng.integers(-3, 1))
            np.testing.assert_array_equal(jac, jac.T)
            assert self.min_relative_eigenvalue(jac) >= -1e-12

    def test_psd_where_the_clip_binds(self, rng):
        # |x_i|^{p-2} > 1e12 here; the clip meant for p < 2 must not apply
        sp = LpSpace(6, 10.0)
        jac = self.dense(sp, rng.standard_normal(6) * 1e3)
        assert self.min_relative_eigenvalue(jac) >= -1e-12

    def test_identity_at_p2(self, rng):
        sp = LpSpace(4, 2.0)
        for x in (rng.standard_normal(4), np.zeros(4)):
            np.testing.assert_array_equal(self.dense(sp, x), np.eye(4))

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    def test_small_identity_at_zero(self, p):
        np.testing.assert_array_equal(self.dense(LpSpace(3, p), np.zeros(3)), 1e-8 * np.eye(3))


class _DenseDiagonalQuadratic(MonotoneOperator):
    """A(x) = Q x - c with a diagonal Q given to Newton only as a dense Jacobian."""

    def __init__(self, qdiag, c):
        self.q = np.diag(qdiag)
        self.c = c

    def evaluate(self, space, x):
        return self.q @ x - self.c

    def jacobian(self, space, x):
        return self.q


@pytest.mark.parametrize("dim", [3, 10, 200])
def test_structured_newton_matches_dense_oracle(dim):
    # a diagonal Q takes the O(dim) Sherman-Morrison step; the same Q seen
    # only through a dense Jacobian takes np.linalg.solve
    rng = np.random.default_rng(dim)
    dense_converged = 0
    for p in P_GRID + [1.1, 10.0]:
        sp = LpSpace(dim, p)
        for scale in (1.0, 1e3):
            qdiag = rng.uniform(0.1, 1.0, dim)
            c = scale * rng.standard_normal(dim)
            x = scale * rng.standard_normal(dim)
            oracle = resolvent(sp, _DenseDiagonalQuadratic(qdiag, c), 1.0, x)
            if not oracle.converged:
                continue
            dense_converged += 1
            res = resolvent(sp, GradientOfQuadratic(q=np.diag(qdiag), c=c), 1.0, x)
            tag = (dim, p, scale)
            assert res.converged, tag
            gap = np.linalg.norm(res.point - oracle.point)
            assert gap <= 1e-10 * np.linalg.norm(oracle.point), tag
    assert dense_converged >= 10


@pytest.mark.parametrize("p", [6.0, 10.0])
def test_cold_newton_converges_at_large_p(p):
    # large |z_i| at p > 2 once tripped the clip meant for p < 2, and the
    # indefinite Newton model then stalled at the iteration cap
    rng = np.random.default_rng(int(p))
    sp = LpSpace(10, p)
    op = GradientOfQuadratic(q=np.diag(np.linspace(0.1, 1.0, 10)), c=1e3 * rng.standard_normal(10))
    for _ in range(10):
        res = resolvent(sp, op, 1.0, 1e3 * rng.standard_normal(10))
        assert res.converged
        assert res.inner_iterations < 100


def test_diagonal_p2_closed_form_matches_dense_solve(rng):
    sp = LpSpace(5, 2.0)
    qdiag = rng.uniform(0.0, 2.0, 5)
    c = rng.standard_normal(5)
    ops = [GradientOfQuadratic(q=np.diag(qdiag), c=c), LinearMonotone(m=np.diag(qdiag), b=-c)]
    for r in (0.1, 1.0, 30.0):
        x = rng.standard_normal(5)
        dense = np.linalg.solve(np.eye(5) + r * np.diag(qdiag), x + r * c)
        for op in ops:
            res = resolvent(sp, op, r, x)
            assert res.inner_iterations == 0 and res.converged
            np.testing.assert_allclose(res.point, dense, rtol=1e-14, atol=1e-14)
