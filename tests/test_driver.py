import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.optimize import minimize_scalar

from halpernlp import (
    AffineSet,
    BlendSequence,
    ConstantSchedule,
    DriftSchedule,
    DualityResidual,
    EuclideanBall,
    GradientOfQuadratic,
    HalfSpace,
    HalpernConfig,
    LinearMonotone,
    LpSpace,
    PowerSchedule,
    ProjectionMap,
    ResolventMap,
    ResolventSequence,
    RunStatus,
    ScheduleValidationError,
    WholeSpace,
    generalized_projection,
    halpern_step,
    reference_solution,
    run_halpern,
)
import halpernlp.driver as driver
import halpernlp.geometry as geometry
import halpernlp.operators as operators
from halpernlp.geometry import NormedPoint, _power_norm
from halpernlp.driver import TRACE_COLUMNS
from halpernlp.experiments import config_from_dict, parse_config
from halpernlp.sequences import RealSequencePrefix, TauCertificate, eventually_increasing_tau


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
        np.testing.assert_array_equal(reference_solution(sp, AffineSet(z, []), np.zeros(2)), z)

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

    def test_projection_map_measures_against_q_c_of_the_anchor(self):
        # every point of C is fixed by T = Q_C, so the run's limit is Q_C(u);
        # the Euclidean projection of 0 used to stand in for it
        sp = LpSpace(10, 3.0)
        ball = EuclideanBall(center=0.1 * np.ones(10), radius=0.8)
        rng = np.random.default_rng(11)
        u = 2.0 * rng.standard_normal(10)
        seq = BlendSequence(inner=ProjectionMap(cset=ball), beta_schedule=ConstantSchedule(0.5))
        cfg = HalpernConfig(
            space=sp, anchor=u, start=ball.euclidean_project(rng.standard_normal(10)),
            constraint=WholeSpace(), sequence=seq, alpha=PowerSchedule(),
        )
        np.testing.assert_array_equal(cfg.reference, generalized_projection(sp, ball, u).point)
        assert not ball.contains(u, 0.0)


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
    bit, the same formulas evaluated with the public LpSpace methods.  For
    the blend S x = J^{-1}(beta J x + (1 - beta) J T x), J S x is that dual
    combination and ||S x||_p is its q-norm.  Likewise y = J^{-1} jy for the
    anchor blend jy = alpha J u + (1 - alpha) J S x, so an x_{n+1} = y has
    J x_{n+1} = jy and ||x_{n+1}||_p = ||jy||_q; a projected x_{n+1} has its
    own.  J x_n is that of the step before, and J x_1 its own.  A blend's
    step gives S x in the dual only, and J x - J T x as a vector: the run
    forms S x = J^{-1} J S x for the residual columns and ||J x - J T x||_q
    for trace.j_gap."""

    @pytest.mark.parametrize("scheme", ["proximal_point", "newton_proximal", "halpern_mann"])
    def test_diagnostics_equal_public_formulas(self, scheme):
        cfg = oracle_config(scheme)
        sp, w, u = cfg.space, cfg.reference, cfg.anchor
        n_w = sp.norm(w)
        trace = run_halpern(cfg)
        assert trace.iterations == 50
        x, prev, projected = cfg.start, None, 0
        jx, phi_x = sp.duality_map(x), sp.lyapunov(w, x)
        for n in range(1, 51):
            x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
            image, a, i = diag["image"], cfg.alpha(n), n - 1
            ju_minus_jw = sp.duality_map(u) - sp.duality_map(w)
            if scheme == "halpern_mann":
                beta, tx = cfg.sequence.at(n).beta, diag["warm"].x  # T x_n
                jtx = sp.duality_map(tx)
                jsx = beta * jx + (1.0 - beta) * jtx
                n_x, n_tx, n_sx = sp.norm(x), sp.norm(tx), sp.dual_norm(jsx)
                phi_w_sx = max(n_w * n_w - 2.0 * sp.pairing(w, jsx) + n_sx * n_sx, 0.0)
                assert image.x is None and image.norm == n_sx
                np.testing.assert_array_equal(image.jx, jsx)
                sx = sp.inverse_duality_map(jsx)
            else:
                sx = image.x
                jsx = sp.duality_map(sx)
                phi_w_sx = sp.lyapunov(w, sx)
            jy = a * sp.duality_map(u) + (1.0 - a) * jsx
            np.testing.assert_array_equal(y, sp.inverse_duality_map(jy))
            if x_next is y:
                n_y = sp.dual_norm(jy)
                phi_next = max(n_w * n_w - 2.0 * sp.pairing(w, jy) + n_y * n_y, 0.0)
                jx_next = jy
            else:
                projected += 1
                phi_next = sp.lyapunov(w, x_next)
                jx_next = sp.duality_map(x_next)
            assert trace.phi_w_x[i] == phi_x
            assert trace.slack_b[i] == a * sp.lyapunov(w, u) + phi_w_sx - phi_next
            assert trace.slack_c[i] == (
                (1.0 - a) * phi_x + 2.0 * a * sp.pairing(y - w, ju_minus_jw) - phi_next
            )
            assert trace.res_fixed_point[i] == sp.norm(x - sx)
            assert trace.res_y_vs_sx[i] == sp.norm(y - sx)
            if scheme == "halpern_mann":
                gap = beta * (n_x * n_x) + (1.0 - beta) * (n_tx * n_tx) - n_sx * n_sx
                assert trace.uc_ft_gap[i] == gap
                np.testing.assert_array_equal(diag["j_diff"], jx - jtx)
                assert trace.j_gap[i] == sp.dual_norm(jx - jtx)
            x, prev, jx, phi_x = x_next, diag, jx_next, phi_next
        np.testing.assert_array_equal(x, trace.final_x)
        # the half-space of halpern_mann is active in every step; the whole
        # space never projects
        assert projected == (50 if scheme == "halpern_mann" else 0)

    def test_standalone_step_matches_step_in_run(self):
        # the resolvent has a closed form, so no warm start moves S_n x_n: a
        # step given x_n with the norm, J and phi(w, x_n) it carries, and no
        # warm start, must give the run's numbers exactly, and the run's
        # residual columns are the norms of its own x_n, y_n and S_n x_n.
        # x_1 carries nothing; x_{n+1} = y_n carries the anchor blend of step
        # n, formed here with the public methods from that step's S x
        cfg = oracle_config("proximal_point")
        sp, w, ju = cfg.space, cfg.reference, cfg.space.duality_map(cfg.anchor)
        p, n_w = sp.p, sp.norm(w)
        trace = run_halpern(cfg)
        assert trace.iterations == 50
        x, carried = cfg.start, None
        for n in range(1, 51):
            prev = None
            if carried is not None:
                n_y, jy, phi_y = carried
                np.testing.assert_array_equal(x, sp.inverse_duality_map(jy))
                prev = {"next": NormedPoint(x, n_y, jy), "phi_w_next": phi_y, "warm": None}
            x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
            sx = diag["image"].x
            row = {**diag, "res_fixed_point": _power_norm(x - sx, p), "res_y_vs_sx": _power_norm(y - sx, p)}
            for attr, _, _ in TRACE_COLUMNS:
                assert row[attr] == getattr(trace, attr)[n - 1], (n, attr)
            a = cfg.alpha(n)
            jy = a * ju + (1.0 - a) * sp.duality_map(sx)
            n_y = sp.dual_norm(jy)
            carried = n_y, jy, max(n_w * n_w - 2.0 * sp.pairing(w, jy) + n_y * n_y, 0.0)
            x = x_next
        np.testing.assert_array_equal(x, trace.final_x)


class TestCarriedDuals:
    """What a step carries to the next: x_{n+1} with its norm and J, and the
    warm start of the next inner solve.  An unprojected x_{n+1} = y_n carries
    the anchor blend jy and ||jy||_q; a projected one its own J and norm."""

    @pytest.mark.parametrize("scheme", ["proximal_point", "newton_proximal", "halpern_mann"])
    def test_carried_values_equal_public_values(self, scheme):
        cfg = oracle_config(scheme)
        sp = cfg.space
        x, prev, carried = cfg.start, None, 0
        for n in range(1, 31):
            x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
            nxt = diag["next"]
            assert nxt.x is x_next
            if x_next is y:
                carried += 1
                a, jsx = cfg.alpha(n), sp.duality_map(diag["image"].x)
                np.testing.assert_array_equal(nxt.jx, a * sp.duality_map(cfg.anchor) + (1.0 - a) * jsx)
                np.testing.assert_array_equal(nxt.x, sp.inverse_duality_map(nxt.jx))
                assert nxt.norm == sp.dual_norm(nxt.jx)
            else:
                assert nxt.norm == sp.norm(x_next)
                np.testing.assert_array_equal(nxt.jx, sp.duality_map(x_next))
            warm = diag["warm"]
            np.testing.assert_array_equal(warm.jx, sp.duality_map(warm.x))
            if scheme == "halpern_mann":
                # the blend's next resolvent starts from T x_n, not S x_n
                inner = cfg.sequence.at(n).inner
                assert not np.array_equal(warm.x, sp.inverse_duality_map(diag["image"].jx))
                g = sp.duality_map(warm.x) + inner.r * inner.op.evaluate(sp, warm.x) - sp.duality_map(x)
                assert sp.dual_norm(g) <= 1e-8
            else:
                assert warm is diag["image"]
            x, prev = x_next, diag
        assert carried == (0 if scheme == "halpern_mann" else 30)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf / inf in the norms
    @pytest.mark.parametrize("bad_step", [1, 3])
    def test_non_finite_blend_raises_in_its_step(self, monkeypatch, bad_step):
        # step 1 takes y_1 = J^{-1} jy with the public, checked map; later
        # steps take it privately and check ||jy||_q, which is non-finite
        # when a coordinate of jy is.  Either way the step that forms a
        # non-finite anchor blend raises
        cfg = parse_config(CONFIG_DIR / "p1.yaml").halpern
        x, prev = cfg.start, None
        for n in range(1, bad_step):
            x, _, prev = halpern_step(cfg, n, x, prev=prev)
        apply = ResolventMap.apply

        def blowing_up(self, space, x, warm=None, jx=None):
            res = apply(self, space, x, warm=warm, jx=jx)
            inf = np.full_like(res.point, np.inf)
            res.point, res.normed = inf, NormedPoint(inf, np.inf, inf)
            return res

        monkeypatch.setattr(ResolventMap, "apply", blowing_up)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            halpern_step(cfg, bad_step, x, prev=prev)

    @pytest.mark.parametrize(
        "name, norms, duals, checks, blend", [("p1", 3.48, 2.43, 0.0, False), ("p3", 4.34, 2.31, 0.0, True)]
    )
    def test_private_kernel_calls_per_step(self, monkeypatch, name, norms, duals, checks, blend):
        # ||.||_p and J run once per point a step touches; an unprojected
        # x_{n+1} takes them from the anchor blend.  The rest of the count is
        # inner work: Newton's trial points and residuals.  Once per run, the
        # first step's resolvent checks x_1 where it takes J x_1, its inverse
        # duality map checks the anchor blend, a blend's first J gap checks
        # J x_1 - J T x_1, and the final ||x - w|| and phi(w, x) check x - w,
        # w and x.  The block pass is counted by rows: two residual norms per
        # step, and per blend step one J_q for S x_n and one J gap norm (the
        # first step's taken by the checked dual norm instead)
        counts = {"_power_norm": 0, "_dual_map": 0, "check": 0, "norm_rows": 0, "dual_rows": 0}
        check = geometry.LpSpace.check

        def counted_check(self, x):
            counts["check"] += 1
            return check(self, x)

        monkeypatch.setattr(geometry.LpSpace, "check", counted_check)
        for kernel in ("_power_norm", "_dual_map"):
            original = getattr(geometry, kernel)
            counted = _counting(counts, kernel, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("halpernlp") and getattr(mod, kernel, None) is original:
                    monkeypatch.setattr(mod, kernel, counted)
        for kernel, key in (("_row_power_norms", "norm_rows"), ("_row_dual_maps", "dual_rows")):

            def rows_counted(rows, *args, _f=getattr(driver, kernel), _k=key):
                counts[_k] += len(rows)
                return _f(rows, *args)

            monkeypatch.setattr(driver, kernel, rows_counted)
        config = CONFIG_DIR / f"{name}.yaml"
        cfg = parse_config(config).halpern
        counts.update(_power_norm=0, _dual_map=0, check=0)
        trace = run_halpern(cfg)
        steps = trace.iterations
        assert counts["_power_norm"] / steps <= norms
        assert counts["_dual_map"] / steps <= duals
        assert counts["check"] <= checks * steps + (6 if blend else 5)
        assert counts["norm_rows"] == 2 * steps + (steps - 1 if blend else 0)
        assert counts["dual_rows"] == (steps if blend else 0)

    @pytest.mark.parametrize(
        "name, evaluations", [("p1", 3054), ("p2_divergent", 3649), ("p3", 5567), ("p4_line", 883)]
    )
    def test_operator_evaluations_per_run(self, monkeypatch, name, evaluations):
        # A is evaluated once per residual Newton forms.  On these runs every
        # Newton step is taken in full, so a solve that stops at iteration k
        # forms k - 1 trial residuals, and its start residual.  A resolvent
        # answer carries J z + r A z, and the next step's solve, warm-started
        # from it with the same r, takes its start residual from there: with
        # r_n = 1 only the first step evaluates A at its start.  p2_divergent's
        # r_n = n changes at every step, so each of its solves evaluates its start
        counts = {"evaluate": 0}
        evaluate = operators._AffineOperator.evaluate
        monkeypatch.setattr(operators._AffineOperator, "evaluate", _counting(counts, "evaluate", evaluate))
        trace = run_halpern(parse_config(CONFIG_DIR / f"{name}.yaml").halpern)
        carried = 0 if name == "p2_divergent" else trace.iterations - 1
        assert counts["evaluate"] == evaluations == int(trace.inner_iters.sum()) - carried


def _counting(counts, key, f):
    """f, counting its calls in counts[key]."""

    def counted(*args, **kwargs):
        counts[key] += 1
        return f(*args, **kwargs)

    return counted


def shipped_config(name, **over):
    """A shipped config with dotted-path overrides, as a HalpernConfig."""
    raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    for key, value in over.items():
        *head, last = key.split(".")
        node = raw
        for part in head:
            node = node.setdefault(part, {})
        node[last] = value
    return config_from_dict(raw).halpern


class TestBlockResiduals:
    """run_halpern forms the two residual columns in blocks of steps, and for
    a blend also S_n x_n from J S_n x_n and the J gap.  Each row must equal,
    bit for bit, the per-step formula on the x_n, y_n and S_n x_n of that
    step, with a blend's S_n x_n = J^{-1}(J S_n x_n) and its J gap
    ||J x_n - J T_n x_n||_q, whether the run crosses block boundaries or
    stops inside a block for any reason."""

    @pytest.mark.parametrize(
        "name, over, status, steps, whole_blocks",
        [
            ("p1", {}, RunStatus.CONVERGED, 2140, 5),
            ("p1", {"budgets.max_iter": 500}, RunStatus.MAX_ITER, 500, 1),
            ("p3", {"debug.perturb_step": 1.0}, RunStatus.SLACK_VIOLATION, 2, 0),
            ("p1", {"space.p": 1.1}, RunStatus.INNER_SOLVER_FAILURE, 13, 0),
            ("p3", {}, RunStatus.CONVERGED, 4279, 10),
            ("p3", {"space.p": 1.5}, RunStatus.CONVERGED, 11341, 27),
        ],
        ids=["converged", "max_iter", "slack_violation", "inner_failure", "blend", "blend_p1.5"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e200 push overflows
    def test_rows_equal_per_step_norms(self, monkeypatch, name, over, status, steps, whole_blocks):
        cfg = shipped_config(name, **over)
        seen = []
        step = driver.halpern_step

        sp = cfg.space
        seen, j_gaps = [], []
        step = driver.halpern_step

        def recording(cfg, n, x, prev=None):
            x_next, y, diag = step(cfg, n, x, prev=prev)
            image = diag["image"]
            if "j_diff" in diag:
                assert image.x is None
                seen.append((x, y, sp.inverse_duality_map(image.jx)))
                j_gaps.append(sp.dual_norm(diag["j_diff"]))
            else:
                seen.append((x, y, image.x))
            return x_next, y, diag

        monkeypatch.setattr(driver, "halpern_step", recording)
        trace = run_halpern(cfg)
        assert (trace.status, trace.iterations) == (status, steps)
        block = driver._RESIDUAL_BLOCK // sp.dim
        assert (steps // block, steps % block > 0) == (whole_blocks, True)
        p = sp.p
        np.testing.assert_array_equal(trace.res_fixed_point, [_power_norm(x - sx, p) for x, _, sx in seen])
        np.testing.assert_array_equal(trace.res_y_vs_sx, [_power_norm(y - sx, p) for _, y, sx in seen])
        if name == "p3":
            assert len(j_gaps) == steps
            np.testing.assert_array_equal(trace.j_gap, j_gaps)
        else:
            assert trace.j_gap is None and not j_gaps


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
