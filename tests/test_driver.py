import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from halpernlp import (
    AffineSet,
    BlendSequence,
    ConstantSchedule,
    DriftSchedule,
    DualityResidual,
    GradientOfQuadratic,
    HalfSpace,
    HalpernConfig,
    LinearMonotone,
    LpSpace,
    PowerSchedule,
    ResolventMap,
    ResolventSequence,
    RunStatus,
    ScheduleValidationError,
    WholeSpace,
    halpern_step,
    reference_solution,
    run_halpern,
)
import halpernlp.geometry as geometry
from halpernlp.driver import TRACE_COLUMNS
from halpernlp.experiments import parse_config
from halpernlp.sequences import RealSequencePrefix, TauCertificate, eventually_increasing_tau


def quad_problem(dim=4, p=3.0, seed=0):
    rng = np.random.default_rng(seed)
    sp = LpSpace(dim, p)
    q = np.diag(np.linspace(0.3, 1.2, dim))
    c = rng.standard_normal(dim) * 0.5
    op = GradientOfQuadratic(q=q, c=c)
    w = np.linalg.solve(q, c)
    return sp, op, w, rng


class TestReferenceSolution:
    def test_singleton(self):
        sp = LpSpace(2, 3.0)
        z = np.array([1.0, -1.0])
        np.testing.assert_array_equal(reference_solution(sp, z, np.zeros(2)), z)

    def test_p2_affine_is_euclidean_projection(self):
        sp = LpSpace(2, 2.0)
        line = AffineSet(point=np.array([2.0, 0.0]), directions=np.array([[0.0, 1.0]]))
        u = np.array([0.0, 3.0])
        np.testing.assert_allclose(reference_solution(sp, line, u), [2.0, 3.0], atol=1e-8)

    def test_p3_line_against_golden_section(self):
        sp = LpSpace(2, 3.0)
        line = AffineSet(point=np.array([2.0, 0.0]), directions=np.array([[0.0, 1.0]]))
        u = np.array([0.0, 1.0])
        w = reference_solution(sp, line, u)
        res = minimize_scalar(
            lambda t: sp.lyapunov(np.array([2.0, t]), u),
            bracket=(-3.0, 0.0, 3.0),
            method="golden",
            options={"xtol": 1e-12},
        )
        oracle = np.array([2.0, res.x])
        np.testing.assert_allclose(w, oracle, atol=1e-6)

    def test_p3_line_flat_anchor_matches_in_objective(self):
        # u at the origin makes phi cubically flat along the line, so a
        # value-based oracle can only localize the argmin to ~1e-5;
        # compare objective values instead of points there
        sp = LpSpace(2, 3.0)
        line = AffineSet(point=np.array([2.0, 0.0]), directions=np.array([[0.0, 1.0]]))
        u = np.zeros(2)
        w = reference_solution(sp, line, u)
        res = minimize_scalar(
            lambda t: sp.lyapunov(np.array([2.0, t]), u),
            bracket=(-3.0, 0.0, 3.0),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert sp.lyapunov(w, u) <= res.fun + 1e-9
        assert abs(w[1] - res.x) <= 1e-4


class TestHalpernStep:
    def test_fixed_point_is_stationary(self):
        sp, op, w, rng = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=w, start=w, constraint=WholeSpace(),
            sequence=seq, alpha=PowerSchedule(), max_iter=10, stop_tol=1e-9,
        )
        x_next, y, diag = halpern_step(cfg, 3, w)
        assert np.linalg.norm(x_next - w) <= 1e-7

    def test_hand_composed_p2_step(self):
        # p = 2, S = L_1 of the identity operator, alpha = 1/2, u = 0:
        # Sx = x/2, y = (1/2) * (x/2)
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.zeros(2))
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=np.zeros(2), start=np.array([2.0, 2.0]),
            constraint=WholeSpace(), sequence=seq,
            alpha=PowerSchedule(c=0.5, s=1.0), max_iter=10, stop_tol=1e-12,
        )
        x_next, y, diag = halpern_step(cfg, 1, np.array([2.0, 2.0]))
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(x_next, [0.5, 0.5], atol=1e-12)

    def test_full_anchor_step(self):
        # alpha = 1 sends the iterate to Q_C(u)
        sp = LpSpace(2, 2.0)
        op = LinearMonotone(m=np.eye(2), b=np.zeros(2))
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        u = np.array([0.7, -0.2])
        cfg = HalpernConfig(
            space=sp, anchor=u, start=np.ones(2), constraint=WholeSpace(),
            sequence=seq, alpha=PowerSchedule(c=1.0, s=1.0), max_iter=10,
            stop_tol=1e-12,
        )
        x_next, _, _ = halpern_step(cfg, 1, np.ones(2))  # alpha_1 = 1
        np.testing.assert_allclose(x_next, u, atol=1e-12)


def oracle_config(scheme):
    """50 steps of a proximal-point run (closed-form resolvent, or Newton for
    "newton_proximal") or of a halpern_mann run whose half-space is active in
    the early steps."""
    sp, op, w, rng = quad_problem(seed=4)
    common = dict(space=sp, alpha=PowerSchedule(), max_iter=50, stop_tol=1e-12)
    if scheme == "newton_proximal":
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        return HalpernConfig(
            anchor=rng.standard_normal(4), start=rng.standard_normal(4),
            constraint=WholeSpace(), sequence=seq, **common,
        )
    if scheme == "proximal_point":
        seq = ResolventSequence(op=DualityResidual(z=w), r_schedule=ConstantSchedule(1.0))
        return HalpernConfig(
            anchor=rng.standard_normal(4), start=rng.standard_normal(4),
            constraint=WholeSpace(), sequence=seq, **common,
        )
    a = np.ones(4)
    hs = HalfSpace(a=a, b=float(a @ w) + 0.5)
    seq = BlendSequence(inner=ResolventMap(op=op, r=1.0), beta_schedule=ConstantSchedule(0.5))
    return HalpernConfig(
        anchor=w + 3.0 * a, start=hs.euclidean_project(rng.standard_normal(4)),
        constraint=hs, sequence=seq, **common,
    )


class TestStepDiagnosticsOracle:
    """The driver step caches J u, J w, ||w|| and phi(w, u), and carries
    phi(w, x_n) from the step before; its diagnostics must equal, bit for
    bit, the same formulas evaluated with the public LpSpace methods."""

    @pytest.mark.parametrize("scheme", ["proximal_point", "newton_proximal", "halpern_mann"])
    def test_diagnostics_equal_public_formulas(self, scheme):
        cfg = oracle_config(scheme)
        sp, w, u = cfg.space, cfg.reference, cfg.anchor
        trace = run_halpern(cfg)
        assert trace.iterations == 50
        x, prev, projected = cfg.start, None, 0
        for n in range(1, 51):
            x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
            sx, a, i = diag["sx"], cfg.alpha(n), n - 1
            projected += not cfg.constraint.contains(y, 0.0)
            phi_x, phi_next = sp.lyapunov(w, x), sp.lyapunov(w, x_next)
            ju_minus_jw = sp.duality_map(u) - sp.duality_map(w)
            assert trace.phi_w_x[i] == phi_x
            assert trace.slack_b[i] == a * sp.lyapunov(w, u) + sp.lyapunov(w, sx) - phi_next
            assert trace.slack_c[i] == (
                (1.0 - a) * phi_x + 2.0 * a * sp.pairing(y - w, ju_minus_jw) - phi_next
            )
            assert trace.res_fixed_point[i] == sp.norm(x - sx)
            assert trace.res_y_vs_sx[i] == sp.norm(y - sx)
            if scheme == "halpern_mann":
                beta = cfg.sequence.at(n).beta
                jx, jsx = sp.duality_map(x), sp.duality_map(sx)
                jtx = (jsx - beta * jx) / (1.0 - beta)
                gap = (
                    beta * sp.dual_norm(jx) ** 2
                    + (1.0 - beta) * sp.dual_norm(jtx) ** 2
                    - sp.dual_norm(jsx) ** 2
                )
                assert trace.uc_ft_gap[i] == gap
                assert diag["j_gap"] == sp.dual_norm(jx - jtx)
            x, prev = x_next, diag
        np.testing.assert_array_equal(x, trace.final_x)
        if scheme == "halpern_mann":
            assert projected > 0

    def test_standalone_step_matches_step_in_run(self):
        # the resolvent has a closed form, so no warm start moves S_n x_n and a
        # step without carried state must give the run's numbers exactly
        cfg = oracle_config("proximal_point")
        trace = run_halpern(cfg)
        assert [n for n, _ in trace.snapshots] == list(range(1, 51))
        for n, x in trace.snapshots:
            _, _, diag = halpern_step(cfg, n, x)
            for attr, _, _ in TRACE_COLUMNS:
                assert diag[attr] == getattr(trace, attr)[n - 1], (n, attr)


class TestCarriedDuals:
    """What a step carries to the next: x_{n+1} with its norm and J, and the
    warm start of the next inner solve."""

    @pytest.mark.parametrize("scheme", ["proximal_point", "newton_proximal", "halpern_mann"])
    def test_carried_values_equal_public_values(self, scheme):
        cfg = oracle_config(scheme)
        sp = cfg.space
        x, prev = cfg.start, None
        for n in range(1, 31):
            x_next, _, diag = halpern_step(cfg, n, x, prev=prev)
            nxt = diag["next"]
            assert nxt.x is x_next
            assert nxt.norm == sp.norm(x_next)
            np.testing.assert_array_equal(nxt.jx, sp.duality_map(x_next))
            warm = diag["warm"]
            np.testing.assert_array_equal(warm.jx, sp.duality_map(warm.x))
            if scheme == "halpern_mann":
                # the blend's next resolvent starts from T x_n, not S x_n
                inner = cfg.sequence.at(n).inner
                assert not np.array_equal(warm.x, diag["sx"])
                g = sp.duality_map(warm.x) + inner.r * inner.op.evaluate(sp, warm.x) - sp.duality_map(x)
                assert sp.dual_norm(g) <= 1e-8
            else:
                assert warm.x is diag["sx"]
            x, prev = x_next, diag

    @pytest.mark.parametrize("name, norms, duals", [("p1", 8.87, 3.44), ("p3", 14.61, 5.31)])
    def test_private_kernel_calls_per_step(self, monkeypatch, name, norms, duals):
        # ||.||_p and J run once per point a step touches; the rest of the
        # count is inner work: Newton's trial points and residuals
        counts = {"_power_norm": 0, "_dual_map": 0}
        for kernel in counts:
            original = getattr(geometry, kernel)

            def counted(*args, _f=original, _k=kernel):
                counts[_k] += 1
                return _f(*args)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("halpernlp") and getattr(mod, kernel, None) is original:
                    monkeypatch.setattr(mod, kernel, counted)
        config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml"
        cfg = parse_config(config).halpern
        counts.update(_power_norm=0, _dual_map=0)
        trace = run_halpern(cfg)
        steps = trace.iterations
        assert counts["_power_norm"] / steps <= norms
        assert counts["_dual_map"] / steps <= duals


class TestRunProximalPoint:
    def test_stationary_start(self):
        sp, op, w, _ = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=w, start=w, constraint=WholeSpace(),
            sequence=seq, alpha=PowerSchedule(), max_iter=100, stop_tol=1e-6,
        )
        trace = run_halpern(cfg)
        assert trace.status is RunStatus.CONVERGED
        assert trace.iterations == 1

    def test_converges_to_projected_anchor(self):
        sp, op, w, rng = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=rng.standard_normal(4), start=rng.standard_normal(4),
            constraint=WholeSpace(), sequence=seq, alpha=PowerSchedule(),
            max_iter=200_000, stop_tol=1e-3,
        )
        np.testing.assert_allclose(cfg.reference, w, atol=1e-10)
        trace = run_halpern(cfg)
        assert trace.status is RunStatus.CONVERGED
        assert sp.norm(trace.final_x - w) <= 1e-3
        assert trace.min_slack >= -1e-7
        assert trace.boundedness_violation <= 1e-7
        # residual against the mapping decays along the tail
        tail = trace.res_y_vs_sx[-max(1, trace.res_y_vs_sx.size // 10):]
        assert float(np.max(tail)) <= 1e-3

    def test_non_finite_settings_rejected(self):
        sp, op, w, rng = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        for over, match in (
            ({"stop_tol": float("nan")}, "stop_tol"),
            ({"perturb_step": float("inf")}, "perturb_step"),
        ):
            with pytest.raises(ValueError, match=match):
                HalpernConfig(
                    space=sp, anchor=w, start=w, constraint=WholeSpace(),
                    sequence=seq, alpha=PowerSchedule(), max_iter=10,
                    **{"stop_tol": 1e-3, **over},
                )

    def test_constant_alpha_rejected(self):
        sp, op, w, rng = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        with pytest.raises(ScheduleValidationError):
            HalpernConfig(
                space=sp, anchor=w, start=w, constraint=WholeSpace(),
                sequence=seq, alpha=ConstantSchedule(0.3), max_iter=10,
                stop_tol=1e-3,
            )

    def test_bounded_and_divergent_radii_agree(self):
        from halpernlp.schedules import AlternatingSchedule

        sp, op, w, rng = quad_problem(seed=5)
        u = rng.standard_normal(4)
        x1 = rng.standard_normal(4)
        finals = []
        for r_sched in (ConstantSchedule(1.0), AlternatingSchedule(1.0, 10.0)):
            seq = ResolventSequence(op=op, r_schedule=r_sched)
            cfg = HalpernConfig(
                space=sp, anchor=u, start=x1, constraint=WholeSpace(),
                sequence=seq, alpha=PowerSchedule(), max_iter=200_000,
                stop_tol=1e-2,
            )
            trace = run_halpern(cfg)
            assert trace.status is RunStatus.CONVERGED
            finals.append(trace.final_x)
        assert sp.norm(finals[0] - finals[1]) <= 2e-2


class TestRunHalpernMann:
    def test_converges_with_blend(self):
        sp, op, w, rng = quad_problem(seed=2)
        inner = ResolventMap(op=op, r=1.0)
        seq = BlendSequence(inner=inner, beta_schedule=ConstantSchedule(0.5))
        cfg = HalpernConfig(
            space=sp, anchor=rng.standard_normal(4), start=rng.standard_normal(4),
            constraint=WholeSpace(), sequence=seq, alpha=PowerSchedule(),
            max_iter=200_000, stop_tol=1e-2,
        )
        trace = run_halpern(cfg)
        assert trace.status is RunStatus.CONVERGED
        assert sp.norm(trace.final_x - cfg.reference) <= 1e-2
        assert trace.min_slack >= -1e-7
        assert not trace.uc_ft_flagged
        assert trace.uc_ft_gap is not None and trace.uc_ft_gap.size > 0

    def test_constrained_run(self):
        sp, op, w, rng = quad_problem(seed=3)
        # half-space containing w in its interior
        a = np.ones(4)
        hs = HalfSpace(a=a, b=float(a @ w) + 1.0)
        inner = ResolventMap(op=op, r=1.0)
        seq = BlendSequence(inner=inner, beta_schedule=ConstantSchedule(0.5))
        cfg = HalpernConfig(
            space=sp, anchor=rng.standard_normal(4),
            start=hs.euclidean_project(rng.standard_normal(4)),
            constraint=hs, sequence=seq, alpha=PowerSchedule(),
            max_iter=200_000, stop_tol=1e-2,
        )
        trace = run_halpern(cfg)
        assert trace.status is RunStatus.CONVERGED
        assert sp.norm(trace.final_x - cfg.reference) <= 1e-2

    def test_start_outside_constraint_rejected(self):
        sp, op, w, rng = quad_problem()
        hs = HalfSpace(a=np.ones(4), b=float(np.sum(w)) - 10.0)
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        with pytest.raises(ValueError):
            HalpernConfig(
                space=sp, anchor=w, start=w, constraint=hs,
                sequence=seq, alpha=PowerSchedule(), max_iter=10, stop_tol=1e-3,
            )


class TestTraceDiagnostics:
    def test_anchor_dependence_on_affine_fixed_set(self):
        # singular Q: the zero set is a line; different anchors project to
        # different limits
        sp = LpSpace(3, 3.0)
        q = np.diag([1.0, 0.5, 0.0])
        c = np.array([1.0, 1.0, 0.0])
        op = GradientOfQuadratic(q=q, c=c)
        seq_sched = ConstantSchedule(1.0)
        limits = []
        for u in (np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, -2.0])):
            seq = ResolventSequence(op=op, r_schedule=seq_sched)
            cfg = HalpernConfig(
                space=sp, anchor=u, start=np.zeros(3), constraint=WholeSpace(),
                sequence=seq, alpha=PowerSchedule(), max_iter=200_000,
                stop_tol=1e-2,
            )
            trace = run_halpern(cfg)
            assert trace.status is RunStatus.CONVERGED
            limits.append(trace.final_x)
        # limits follow their anchors; they are distinct points of the line
        assert np.linalg.norm(limits[0] - limits[1]) > 1.0

    def test_phi_prefix_certificate_when_non_monotone(self):
        sp, op, w, rng = quad_problem(seed=7)
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=rng.standard_normal(4) * 2,
            start=rng.standard_normal(4), constraint=WholeSpace(),
            sequence=seq, alpha=PowerSchedule(), max_iter=50_000, stop_tol=1e-2,
        )
        trace = run_halpern(cfg)
        phis = trace.phi_w_x
        if np.any(np.diff(phis) > 0):
            res = eventually_increasing_tau(RealSequencePrefix(phis), cauchy_tol=1e-12)
            if isinstance(res, TauCertificate):
                assert res.monotone and res.rise and res.domination

    def test_snapshots_downsampled(self):
        sp, op, w, rng = quad_problem()
        seq = ResolventSequence(op=op, r_schedule=ConstantSchedule(1.0))
        cfg = HalpernConfig(
            space=sp, anchor=rng.standard_normal(4), start=rng.standard_normal(4),
            constraint=WholeSpace(), sequence=seq, alpha=PowerSchedule(),
            max_iter=100_000, stop_tol=1e-3,
        )
        trace = run_halpern(cfg)
        assert len(trace.snapshots) <= 1001
        assert trace.snapshots[0][0] == 1
