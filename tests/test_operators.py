import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import P_GRID
from scipy.optimize import root

from halpernlp import (
    AffineSet,
    Box,
    DualityResidual,
    GradientOfQuadratic,
    LinearMonotone,
    LpSpace,
    MonotoneOperator,
)
from halpernlp.geometry import NormedPoint, _normed
from halpernlp import geometry, operators, tolerances
from halpernlp.operators import ResolventResult, duality_map_jacobian, resolvent

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
                    # <x - y, Ax - Ay> >= 0 for a monotone A
                    assert np.dot(x - y, op.evaluate(sp, x) - op.evaluate(sp, y)) >= -1e-10


class TestZeroSet:
    def test_duality_residual(self):
        sp = LpSpace(2, 3.0)
        z = np.array([0.5, -1.5])
        np.testing.assert_allclose(DualityResidual(z=z).zero_set(sp).point, z)

    def test_invertible_linear(self):
        # M = I is diagonal, so its zero set is a box with every coordinate fixed
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.array([-1.0, -2.0]))
        zs = op.zero_set(sp)
        assert isinstance(zs, Box)
        np.testing.assert_array_equal(zs.lo, zs.hi)
        np.testing.assert_allclose(zs.lo, [1.0, 2.0])

    def test_singular_quadratic_gives_line(self):
        # the zero set of a diagonal Q with a zero entry is a box free there
        sp = LpSpace(2, 2.0)
        op = GradientOfQuadratic(q=np.diag([2.0, 0.0]), c=np.array([4.0, 0.0]))
        zs = op.zero_set(sp)
        assert isinstance(zs, Box)
        np.testing.assert_array_equal(zs.lo, [2.0, -np.inf])
        np.testing.assert_array_equal(zs.hi, [2.0, np.inf])
        np.testing.assert_allclose(zs.euclidean_project(np.array([7.0, 3.0])), [2.0, 3.0])

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_a_unique_zero_is_a_singleton(self, p):
        sp = LpSpace(2, p)
        for op in (DualityResidual(z=np.array([0.5, -1.5])),
                   LinearMonotone(m=np.array([[2.0, 1.0], [-1.0, 1.0]]), b=np.array([-1.0, 0.5]))):
            zs = op.zero_set(sp)
            assert isinstance(zs, AffineSet) and zs.directions.shape == (0, 2)
            np.testing.assert_allclose(op.evaluate(sp, zs.point), 0.0, atol=1e-15)

    def test_inconsistent_rejected(self):
        sp = LpSpace(2, 2.0)
        op = GradientOfQuadratic(q=np.diag([2.0, 0.0]), c=np.array([4.0, 1.0]))
        with pytest.raises(ValueError):
            op.zero_set(sp)


class TestDiagonalForm:
    """A diagonal B is kept as its vector, from the constructor to the zero set."""

    def test_vector_and_diagonal_matrix_agree_bit_for_bit(self, rng):
        v = np.array([0.1, 0.7, 0.0, 1.3, 2.5])
        c = rng.standard_normal(5) * (v > 0)  # no zero needs c_i = 0 where q_i = 0
        ops = [GradientOfQuadratic(q=v, c=c), GradientOfQuadratic(q=np.diag(v), c=c)]
        assert all(op.jacobian_diagonal.shape == (5,) for op in ops)
        x = rng.standard_normal(5)
        for p in (1.5, 3.0, 6.0):
            sp = LpSpace(5, p)
            a, b = (op.evaluate(sp, x) for op in ops)
            assert a.tobytes() == b.tobytes()
            a, b = (resolvent(sp, op, 0.7, x) for op in ops)
            assert a.point.tobytes() == b.point.tobytes()
            assert (a.residual, a.inner_iterations) == (b.residual, b.inner_iterations)
            a, b = (op.zero_set(sp) for op in ops)
            assert (a.lo.tobytes(), a.hi.tobytes()) == (b.lo.tobytes(), b.hi.tobytes())

    def test_no_dense_solve_builds_a_diagonal_operator_or_its_zero_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense routine called")

        for name in ("eigvalsh", "lstsq", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "diag", refuse)
        op = GradientOfQuadratic(q=np.array([0.5, 0.0, 2.0]), c=np.array([1.0, 0.0, -1.0]))
        assert isinstance(op.zero_set(LpSpace(3, 3.0)), Box)

    def test_the_fixed_bounds_are_lstsq_bytes(self):
        # -b0_i (1/B_i) is the solution lstsq gave on the shipped q and c and on
        # permuted linspace q; the quotient -b0_i / B_i is 1 ulp off in places
        raw = yaml.safe_load((CONFIG_DIR / "p1.yaml").read_text())["operator"]
        cases = [(np.array(raw["q_diag"]), np.array(raw["c"]))]
        for seed in range(1, 6):
            r = np.random.default_rng(seed)
            cases.append((r.permutation(np.linspace(0.1, 1.0, 200)), r.standard_normal(200)))
        for q, c in cases:
            zs = GradientOfQuadratic(q=q, c=c).zero_set(LpSpace(q.size, 3.0))
            assert isinstance(zs, Box)
            sol = np.linalg.lstsq(np.diag(q), c, rcond=None)[0]
            assert zs.lo.tobytes() == zs.hi.tobytes() == sol.tobytes()

    def test_a_zero_entry_is_free_only_where_c_vanishes(self):
        # the rule is exact: a least-squares fit took c_2 = 1e-9 as 0, and a
        # singular-value cutoff took q_2 = 1e-13 as 0
        sp = LpSpace(2, 3.0)
        with pytest.raises(ValueError, match="no zero"):
            GradientOfQuadratic(q=np.array([1.0, 0.0]), c=np.array([1.0, 1e-9])).zero_set(sp)
        zs = GradientOfQuadratic(q=np.array([1.0, 1e-13]), c=np.array([1.0, 0.0])).zero_set(sp)
        np.testing.assert_array_equal(zs.lo, [1.0, 0.0])
        np.testing.assert_array_equal(zs.hi, [1.0, 0.0])

    @pytest.mark.parametrize("dense", [False, True])
    def test_psd_tolerance_is_on_the_least_eigenvalue(self, dense):
        # a dense B rotates the diagonal, which eigvalsh recovers to about 1e-16;
        # a least eigenvalue of -1e-8 at unit scale is no rounding of 0
        rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        tol = operators.PSD_EIG_TOL
        for least, accepted in ((0.5 * tol, True), (2.0 * tol, False), (-1e-8, False)):
            d = np.array([1.0, 0.5, least])
            q = rot @ np.diag(d) @ rot.T if dense else d
            q = 0.5 * (q + q.T) if dense else q
            if accepted:
                GradientOfQuadratic(q=q, c=np.zeros(3))
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    GradientOfQuadratic(q=q, c=np.zeros(3))

    def test_dense_zero_set_consistency_tolerance(self):
        # lstsq's best fit to B x = (d, -d) for B = [[1, 1], [1, 1]] is 0, off by d
        # in each row: atol 1e-8 accepts 5e-9 and rejects 2e-8 (rtol adds 1e-5 d)
        sp, m = LpSpace(2, 2.0), np.ones((2, 2))
        zs = GradientOfQuadratic(q=m, c=np.array([5e-9, -5e-9])).zero_set(sp)
        assert isinstance(zs, AffineSet) and zs.directions.shape == (1, 2)
        with pytest.raises(ValueError, match="no zero"):
            GradientOfQuadratic(q=m, c=np.array([2e-8, -2e-8])).zero_set(sp)


class TestResolvent:
    def test_p2_identity_operator_closed_form(self):
        # (I + rI) z = x
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.zeros(2))
        res = resolvent(sp, op, 1.0, np.array([2.0, 4.0]))
        np.testing.assert_allclose(res.point, [1.0, 2.0], atol=1e-12)
        assert res.converged

    def test_a_singular_newton_model_is_regularized(self, monkeypatch):
        # A = b is constant, so the Newton matrix is the Jacobian of J, whose
        # diagonal is 0 on the zero coordinate of x: the first direction
        # raises, and the solve goes on from lam = 1e-8
        direction, raised = operators._newton_direction, []

        def spy(space, op, r, z, g, lam, rb, rb_positive):
            try:
                return direction(space, op, r, z, g, lam, rb, rb_positive)
            except np.linalg.LinAlgError:
                raised.append(lam)
                raise

        monkeypatch.setattr(operators, "_newton_direction", spy)
        op = LinearMonotone(m=np.zeros((3, 3)), b=np.array([0.5, 0.3, -0.2]))
        res = resolvent(LpSpace(3, 3.0), op, 1.0, np.array([1.0, 0.0, 2.0]))
        assert raised[0] == 0.0
        assert res.converged and res.residual <= tolerances.RESOLVENT_TOL

    def test_fixed_point_property(self, rng):
        # x in A^{-1}0 implies L_r x = x
        for p in [2.0, 3.0]:
            sp = LpSpace(2, p)
            for op in sample_operators():
                z = op.zero_set(sp).euclidean_project(np.zeros(2))
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
                u = op.zero_set(sp).euclidean_project(np.zeros(2))
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

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_a_carried_warm_start_reaches_the_same_answer(self, monkeypatch, rng, p):
        # a Newton answer carries J z + r A z; a solve for the same op and r
        # starts from it without evaluating A, any other forms its start
        # residual anew, and either gives the answer of a plain NormedPoint start
        evaluations = []
        evaluate = operators._AffineOperator.evaluate

        def counted(self, space, x):
            evaluations.append(self)
            return evaluate(self, space, x)

        monkeypatch.setattr(operators._AffineOperator, "evaluate", counted)
        sp = LpSpace(4, p)
        g = rng.standard_normal((4, 4))
        ops = [
            GradientOfQuadratic(q=np.diag(rng.uniform(0.1, 1.0, 4)), c=rng.standard_normal(4)),
            LinearMonotone(m=g @ g.T + 0.1 * np.eye(4), b=rng.standard_normal(4)),
        ]
        reused = 0
        for (op, other), r0 in itertools.product((ops, ops[::-1]), (1.0, 2.5)):
            warm = resolvent(sp, op, r0, rng.standard_normal(4)).normed
            assert isinstance(warm, operators._Carried)
            x = rng.standard_normal(4)
            jx = sp.duality_map(x)
            for to_op, r in ((op, r0), (op, 2.0 * r0), (other, r0)):
                del evaluations[:]
                carried = resolvent(sp, to_op, r, x, z0=warm, jx=jx)
                n_carried = len(evaluations)
                del evaluations[:]
                plain = resolvent(sp, to_op, r, x, z0=NormedPoint(*warm), jx=jx)
                assert carried.point.tobytes() == plain.point.tobytes()
                assert (carried.residual, carried.inner_iterations, carried.converged) == (
                    plain.residual, plain.inner_iterations, plain.converged)
                assert carried.converged and carried.inner_iterations > 1
                skipped = to_op is op and r == r0
                assert n_carried == len(evaluations) - skipped
                reused += skipped
        assert reused == 4

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


def _masked_dual_map_jacobian(x, exponent, nx):
    """geometry._dual_map_jacobian as it was: zeros masked at every exponent."""
    if exponent == 2.0:
        return np.ones(x.size), 0.0, np.zeros(x.size)
    if nx == 0.0:
        return np.full(x.size, 1e-8), 0.0, np.zeros(x.size)
    ax = np.abs(x)
    diag = np.where(ax > 0, ax ** (exponent - 2.0), 0.0)
    u = x * diag
    if exponent < 2.0:
        diag = np.minimum(diag, 1e12)
    d = (exponent - 1.0) * nx ** (2.0 - exponent) * diag
    return d, (2.0 - exponent) * nx ** (2.0 - 2.0 * exponent), u


def _eager_newton_direction(space, op, r, z, g, lam):
    """operators._newton_direction as it was: r times the operator's diagonal
    and the scan for dd <= 0 at every call, and the step as -g/dd minus the
    rank-one correction, from the masked Jacobian of J."""
    d, gamma, u = _masked_dual_map_jacobian(z.x, space.p, z.norm)
    bdiag = op.jacobian_diagonal
    if bdiag is None:
        jac = gamma * np.outer(u, u) + np.diag(d) + r * op.jacobian(space, z.x)
        if lam > 0.0:
            jac = jac + lam * np.eye(space.dim)
        return np.linalg.solve(jac, -g)
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


def _direction_or_error(direction, *args):
    try:
        return direction(*args)
    except np.linalg.LinAlgError as e:
        return str(e)


def _same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN coordinates
def test_trimmed_newton_direction_matches_the_eager_one(rng):
    # the trimmed step must not move a bit: r B once per solve, no zero mask
    # for p > 2, (gamma <u, g/dd> / denom) du - g/dd, and no dd <= 0 scan
    # where r B > 0.  rb and rb_positive are what a solve passes; a zero in
    # the diagonal (as in p4_line) keeps the scan, which must still raise
    dim, raised = 5, 0
    for p in (1.1, 1.5, 3.0, 6.0, 10.0):
        sp = LpSpace(dim, p)
        q = rng.uniform(0.1, 1.0, dim)
        g0 = rng.standard_normal((dim, dim))
        ops = [
            GradientOfQuadratic(q=np.diag(q), c=rng.standard_normal(dim)),
            GradientOfQuadratic(q=np.diag(np.where(np.arange(dim) == 2, 0.0, q)), c=np.zeros(dim)),
            LinearMonotone(m=g0 @ g0.T + 0.1 * np.eye(dim), b=rng.standard_normal(dim)),
        ]
        points = [rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3) for _ in range(4)]
        points += [np.array([0.0, -0.0, 1.5, -2.0, 0.25]), np.array([-0.0, 0.7, 0.0, 0.0, -3.0])]
        points += [np.array([np.inf, 1.0, -0.0, 0.0, -2.0]), np.zeros(dim), np.full(dim, -0.0)]
        for op, r in itertools.product(ops, (1.0, 0.5, 1e3)):
            passed = []
            direction = operators._newton_direction

            def spy(*args):
                passed.append(args[-2:])
                return direction(*args)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(operators, "_newton_direction", spy)
                resolvent(sp, op, r, np.linspace(-1.0, 2.0, dim))
            rb, rb_positive = passed[0]
            assert rb_positive == (op.jacobian_diagonal is not None and bool((op.jacobian_diagonal > 0).all()))
            for x, lam in itertools.product(points, (0.0, 1e-8)):
                z = NormedPoint(x, geometry._power_norm(x, p), geometry._dual_map(x, p))
                g = rng.standard_normal(dim)
                old = _direction_or_error(_eager_newton_direction, sp, op, r, z, g, lam)
                new = _direction_or_error(direction, sp, op, r, z, g, lam, rb, rb_positive)
                assert _same_bits(new, old), (p, r, lam, x, old, new)
                raised += isinstance(new, str) and "diagonal" in new
    assert raised > 0


def _eager_newton_resolvent(space, op, r, x, jx, z0):
    """Newton as it was before ||g||_q became lazy: ||g||_q at every
    accepted iterate, the best so far kept as it goes, and a warm start
    copied; and before its direction and line search were trimmed.  Returns
    the result and which exit the solve took."""
    p = space.p
    if isinstance(z0, NormedPoint) and np.any(z0.x):
        z = NormedPoint(z0.x.copy(), z0.norm, z0.jx)
    else:
        z0 = z0.x if isinstance(z0, NormedPoint) else z0
        z = np.asarray(x if z0 is None else z0, dtype=float)
        z = _normed(z.copy() if np.any(z) else z + 1e-6, p)
    g = operators._residual(space, op, r, z, jx)
    gnorm = math.sqrt(g.dot(g))
    gq = operators._q_norm(space, g)
    if gq == math.inf:
        return ResolventResult(z.x, gq, 0, False, jx, z), "overflow"
    lam, best, exit = 0.0, (z, gq), "cap"
    for k in range(1, operators._NEWTON_MAX_ITER + 1):
        if gq <= operators._NEWTON_GRAD_TOL:
            exit = "stop"
            break
        try:
            dz = _eager_newton_direction(space, op, r, z, g, lam)
        except np.linalg.LinAlgError:
            lam = max(2.0 * lam, 1e-8)
            continue
        if not np.isfinite(dz).all():
            exit = "non-finite"
            break
        step, accepted = 1.0, False
        for _ in range(60):
            cand = _normed(z.x + step * dz, p)
            gc = operators._residual(space, op, r, cand, jx)
            gcn = math.sqrt(gc.dot(gc))
            if gcn < gnorm * (1.0 - 1e-4 * step):
                z, g, gnorm, accepted = cand, gc, gcn, True
                break
            step *= 0.5
        if accepted:
            lam *= 0.25
            gq = operators._q_norm(space, g)
            if gq < best[1]:
                best = (z, gq)
        else:
            lam = max(4.0 * lam, 1e-8)
            if lam > 1e12:
                exit = "stall"
                break
    if gq > best[1]:
        z, gq = best
    return ResolventResult(z.x, gq, k, gq <= tolerances.RESOLVENT_TOL, jx, z), exit


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lazy_stop_test_matches_eager_newton(monkeypatch):
    # ||g||_q is taken only where the stop test can pass, and for the
    # fallback at the end; every result must equal the eager solve's bit for
    # bit.  Inputs are (scale, r).  Scale 1e8 at p = 10 stalls Levenberg;
    # under a 2-iteration cap, which ends most solves there, scale 1e160
    # overflows ||g||_2 but not ||g||_q and r = 1e300 at scale 1e10
    # overflows the start.
    rng = np.random.default_rng(14)
    dim, exits, cases, certified = 5, set(), 0, 0
    for cap in (200, 2):
        monkeypatch.setattr(operators, "_NEWTON_MAX_ITER", cap)
        for p in (1.1, 1.5, 3.0, 6.0, 10.0):
            sp = LpSpace(dim, p)
            g = rng.standard_normal((dim, dim))
            ops = [
                GradientOfQuadratic(q=np.diag(rng.uniform(0.1, 1.0, dim)), c=rng.standard_normal(dim)),
                LinearMonotone(m=g @ g.T + 0.1 * np.eye(dim), b=rng.standard_normal(dim)),
            ]
            extreme = [(1e160, 1.0), (1e10, 1e300)] if cap == 2 else [(1e8, 1.0)] * (p == 10.0)
            for op, (scale, r) in itertools.product(ops, [(1.0, 1.0)] + extreme):
                x, z0 = scale * rng.standard_normal(dim), scale * rng.standard_normal(dim)
                jx = sp.duality_map(x)
                zero = np.zeros(dim)
                for warm in (None, NormedPoint(z0, sp.norm(z0), sp.duality_map(z0)), NormedPoint(zero, 0.0, zero)):
                    old, exit = _eager_newton_resolvent(sp, op, r, x, jx, warm)
                    new = resolvent(sp, op, r, x, z0=warm, jx=jx)
                    tag = (cap, p, type(op).__name__, scale, r, exit)
                    assert new.point.tobytes() == old.point.tobytes(), tag
                    assert (new.residual, new.inner_iterations, new.converged) == (
                        old.residual, old.inner_iterations, old.converged), tag
                    assert new.normed.x.tobytes() == old.normed.x.tobytes(), tag
                    assert new.normed.norm == old.normed.norm, tag
                    assert new.normed.jx.tobytes() == old.normed.jx.tobytes(), tag
                    exits.add(exit)
                    cases += 1
                    certified += isinstance(new, operators._CertifiedResult)
    assert exits == {"stop", "cap", "stall", "non-finite", "overflow"}
    assert cases == 126 and certified > 0


def _assert_same_solve(sp, op, x, z0=None):
    jx = sp.duality_map(x)
    old, _ = _eager_newton_resolvent(sp, op, 1.0, x, jx, z0)
    new = resolvent(sp, op, 1.0, x, z0=z0, jx=jx)
    assert new.point.tobytes() == old.point.tobytes()
    # read after the solve: a certified stop forms ||g||_q of its final g here
    assert new.residual == operators._q_norm(sp, operators._residual(sp, op, 1.0, new.normed, jx))
    assert (new.residual, new.inner_iterations, new.converged) == (
        old.residual, old.inner_iterations, old.converged)
    return old


@pytest.mark.parametrize("p, dim", [(1.1, 5), (1.5, 5), (3.0, 1), (6.0, 1), (6.0, 200), (10.0, 200)])
def test_lazy_stop_test_at_the_tolerance(monkeypatch, p, dim):
    # the tolerance is set to the ||g||_q of the start or of Newton's k-th
    # iterate, and the solve must stop there, and not there at the next float
    # below it.  c ||g||_2 <= ||g||_q <= c_hi ||g||_2 holds with equality where
    # the |g_i| are equal: in one dimension, and at the start of a sign-
    # equivariant problem at dim 200 (q < 2, so c = 1 < c_hi).  There only the
    # margins keep ||g||_q from being skipped or wrongly certified
    rng = np.random.default_rng(int(10 * p))
    sp = LpSpace(dim, p)
    equal = dim == 200
    if equal:
        # residual (0.65 - c0) sign at the start, below RESOLVENT_TOL; J is linear
        # on the ray through x, so Newton's first step reaches the rounding floor
        sign = rng.choice([-1.0, 1.0], dim)
        problems = [(GradientOfQuadratic(q=0.5 * np.eye(dim), c=(0.65 + j * 1e-11) * sign), 1.3 * sign)
                    for j in range(1, 11)]
    else:
        problems = [(GradientOfQuadratic(q=np.diag(rng.uniform(0.1, 1.0, dim)), c=rng.standard_normal(dim)),
                     rng.standard_normal(dim))]
    default_tol, default_cap = operators._NEWTON_GRAD_TOL, operators._NEWTON_MAX_ITER
    for op, x in problems:
        g = operators._residual(sp, op, 1.0, _normed(x, p), sp.duality_map(x))
        assert not equal or (np.abs(g) == abs(g[0])).all()
        tol = operators._q_norm(sp, g)
        for k in (0, 1, 2, 3):
            if k:
                monkeypatch.setattr(operators, "_NEWTON_MAX_ITER", k)
                tol = _assert_same_solve(sp, op, x).residual
                if k > 1 and tol <= default_tol:
                    break  # the default tolerance stopped the solve before iterate k
                monkeypatch.setattr(operators, "_NEWTON_MAX_ITER", default_cap)
            monkeypatch.setattr(operators, "_NEWTON_GRAD_TOL", tol)
            assert _assert_same_solve(sp, op, x).inner_iterations == k + 1
            monkeypatch.setattr(operators, "_NEWTON_GRAD_TOL", math.nextafter(tol, 0.0))
            assert _assert_same_solve(sp, op, x).inner_iterations > k + 1
            monkeypatch.setattr(operators, "_NEWTON_GRAD_TOL", default_tol)


def test_lazy_fallback_returns_the_last_of_tied_iterates(monkeypatch, rng):
    # a constant ||g||_q ties every iterate; the eager solve returned the last
    monkeypatch.setattr(operators, "_q_norm", lambda space, g: 1.0)
    monkeypatch.setattr(operators, "_NEWTON_MAX_ITER", 3)
    sp = LpSpace(4, 3.0)
    op = GradientOfQuadratic(q=np.diag(rng.uniform(0.1, 1.0, 4)), c=rng.standard_normal(4))
    assert _assert_same_solve(sp, op, rng.standard_normal(4)).inner_iterations == 3
