import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from halpernlp import (
    AffineSet,
    AlternatingSchedule,
    BlendMap,
    BlendSequence,
    ConstantSchedule,
    DriftSchedule,
    DualityResidual,
    EuclideanBall,
    GradientOfQuadratic,
    LinearMonotone,
    LinearSchedule,
    LpSpace,
    PowerSchedule,
    ProjectionMap,
    ResolventMap,
    ResolventSequence,
    ScheduleValidationError,
    WholeSpace,
)
from halpernlp import schedules
from halpernlp.geometry import NormedPoint, _normed
from halpernlp.mappings import ApplyResult, MappingSequence
from halpernlp.operators import resolvent
from halpernlp.schedules import (
    Schedule,
    validate_anchor_weights,
    validate_blend_weights,
    validate_resolvent_radii,
)


def apply_indexed(space: LpSpace, seq: MappingSequence, n: int, x, warm=None):
    if n < 1:
        raise ValueError("sequence indices are 1-based")
    return seq.at(n).apply(space, x, warm=warm)


@dataclass
class SrnsReport:
    """Finite-sample diagnostic of the strong relative nonexpansiveness
    implication: d_n -> 0 must force e_n -> 0."""

    d: np.ndarray  # phi(p, x_n) - phi(p, S_n x_n)
    e: np.ndarray  # phi(S_n x_n, x_n)
    flagged: bool


def srns_diagnostic(space: LpSpace, seq: MappingSequence, xs, p_hat) -> SrnsReport:
    p_hat = space.check(p_hat)
    d = np.empty(len(xs))
    e = np.empty(len(xs))
    for i, x in enumerate(xs):
        sx = apply_indexed(space, seq, i + 1, x).point
        d[i] = space.lyapunov(p_hat, x) - space.lyapunov(p_hat, sx)
        e[i] = space.lyapunov(sx, x)
    # flag only when the implication's premise (every d_n < 1e-6) is met but
    # its conclusion fails (every e_n > 1e-3)
    flagged = bool(len(xs) > 0 and np.max(d) < 1e-6 and np.min(e) > 1e-3)
    return SrnsReport(d, e, flagged)


def reference_points(ref, rng=None):
    """Materialize an affine fixed-point set as a list of concrete points
    (one for a singleton, five otherwise)."""
    k = ref.directions.shape[0]
    if k == 0:
        return [ref.point]
    pts = [ref.point.copy()]
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(4):
        pts.append(ref.point + rng.standard_normal(k) @ ref.directions)
    return pts


@pytest.fixture
def space():
    return LpSpace(2, 3.0)


@pytest.fixture
def quad_op():
    return GradientOfQuadratic(q=np.diag([0.5, 1.5]), c=np.array([0.4, -0.9]))


class TestApply:
    def test_blend_beta_one_is_identity(self, space, rng):
        inner = ResolventMap(op=DualityResidual(z=np.ones(2)), r=1.0)
        s = BlendMap(inner=inner, beta=1.0)
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(s.apply(space, x).point, x)

    def test_projection_whole_space_identity(self, space, rng):
        m = ProjectionMap(cset=WholeSpace())
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(m.apply(space, x).point, x)

    @pytest.mark.parametrize("m", [
        ProjectionMap(cset=EuclideanBall(center=np.zeros(2), radius=0.5)),
        ProjectionMap(cset=AffineSet(np.array([0.3, -0.2]), [])),
        BlendMap(inner=ResolventMap(op=DualityResidual(z=np.ones(2)), r=1.0), beta=1.0),
    ], ids=["projection-ball", "projection-singleton", "blend-beta-one"])
    def test_result_carries_jx_and_normed(self, space, rng, m):
        # J x and S x with its norm and J, as the driver step reads them
        x = 2.0 * rng.standard_normal(2)
        res = m.apply(space, x)
        np.testing.assert_array_equal(res.jx, space.duality_map(x))
        expected = _normed(res.point, space.p)
        assert res.normed.x is res.point and res.normed.norm == expected.norm
        np.testing.assert_array_equal(res.normed.jx, expected.jx)
        jx = space.duality_map(x)
        assert m.apply(space, x, jx=jx).jx is jx  # a caller's J x is used as given

    def test_resolvent_map_matches_resolvent(self):
        sp = LpSpace(2, 2.0)
        m = ResolventMap(op=LinearMonotone(m=np.eye(2), b=np.zeros(2)), r=1.0)
        np.testing.assert_allclose(m.apply(sp, np.array([2.0, 4.0])).point, [1.0, 2.0])

    def test_blend_is_dual_combination(self, space, quad_op, rng):
        inner = ResolventMap(op=quad_op, r=1.0)
        s = BlendMap(inner=inner, beta=0.25)
        x = rng.standard_normal(2)
        tx = inner.apply(space, x).point
        np.testing.assert_allclose(
            s.apply(space, x).point,
            space.dual_convex_combination(0.25, x, tx),
            rtol=1e-12,
        )

    def test_type_r_sampling(self, space, quad_op, rng):
        maps = [
            ResolventMap(op=quad_op, r=1.0),
            BlendMap(inner=ResolventMap(op=quad_op, r=1.0), beta=0.5),
        ]
        for m in maps:
            for p_hat in reference_points(m.fixed_point_reference(space)):
                for _ in range(1000):
                    x = rng.standard_normal(2) * 2
                    sx = m.apply(space, x).point
                    assert space.lyapunov(p_hat, sx) <= space.lyapunov(p_hat, x) + 1e-7

    def test_step_diagnostics_overflow_to_inf(self, space, quad_op):
        # ||x||_p = ||Jx||_q near 1e200: its square is inf, not an OverflowError
        s = BlendMap(inner=ResolventMap(op=quad_op, r=1.0), beta=0.5)
        jx, tx = np.array([1e200, -2e200]), np.array([1.0, 0.5])
        t = NormedPoint(tx, space.norm(tx), space.duality_map(tx))
        applied = ApplyResult(tx, True, 0, jx=jx, normed=t, inner=t)
        diag = s.step_diagnostics(space, space.dual_norm(jx), applied)
        assert diag["uc_ft_gap"] == np.inf
        np.testing.assert_array_equal(diag["j_diff"], jx - t.jx)
        assert np.isfinite(space.dual_norm(diag["j_diff"]))

    def test_blend_shares_fixed_points(self, space, quad_op):
        # F(S) = F(T) for beta < 1, both directions on the reference point
        inner = ResolventMap(op=quad_op, r=1.0)
        s = BlendMap(inner=inner, beta=0.5)
        z = quad_op.zero_set(space).point
        assert np.linalg.norm(s.apply(space, z).point - z) <= 1e-7
        # a fixed point of S is a fixed point of T
        x = np.array([1.5, -0.5])
        for _ in range(300):
            x = s.apply(space, x).point
        assert np.linalg.norm(s.apply(space, x).point - x) <= 1e-6
        assert np.linalg.norm(inner.apply(space, x).point - x) <= 1e-4


class TestSequences:
    def test_constant_r_sequence_index_free(self, space, quad_op, rng):
        seq = ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(1.0))
        x = rng.standard_normal(2)
        a = apply_indexed(space, seq, 1, x).point
        b = apply_indexed(space, seq, 17, x).point
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("param", ["r", "beta"])
    def test_at_reuses_its_map_while_the_parameter_holds(self, quad_op, param):
        # a run asks for S_n at every step; a map is built only when r_n (or
        # beta_n) changes, and it carries the new value
        sched = AlternatingSchedule(0.25, 0.5)
        if param == "r":
            seq = ResolventSequence(op=quad_op, r_schedule=sched)
        else:
            seq = BlendSequence(inner=ResolventMap(op=quad_op, r=1.0), beta_schedule=sched)
        maps = [seq.at(n) for n in (1, 1, 2, 4, 5)]
        assert maps[0] is maps[1] and maps[2] is maps[3]
        assert maps[1] is not maps[2] and maps[3] is not maps[4]
        assert [getattr(m, param) for m in maps] == [0.25, 0.25, 0.5, 0.5, 0.25]

    def test_common_fixed_point(self, space, quad_op):
        seq = ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(1.0))
        z = quad_op.zero_set(space).point
        for n in (1, 5, 50):
            assert np.linalg.norm(apply_indexed(space, seq, n, z).point - z) <= 1e-8

    def test_blend_schedule_evaluation(self, space, quad_op, rng):
        # beta_n = 1/2 + 1/(4n): at n = 1 the blend weight is 3/4
        inner = ResolventMap(op=quad_op, r=1.0)
        seq = BlendSequence(inner=inner, beta_schedule=DriftSchedule(base=0.5, amp=0.25))
        x = rng.standard_normal(2)
        tx = inner.apply(space, x).point
        np.testing.assert_allclose(
            apply_indexed(space, seq, 1, x).point,
            space.dual_convex_combination(0.75, x, tx),
            rtol=1e-12,
        )

    def test_r_schedule_lower_bound_enforced(self, quad_op):
        with pytest.raises(ScheduleValidationError):
            ResolventSequence(op=quad_op, r_schedule=PowerSchedule(c=1.0, s=1.0))
        with pytest.raises(ScheduleValidationError):
            ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(0.0))

    def test_beta_bounds_enforced(self, quad_op):
        inner = ResolventMap(op=quad_op, r=1.0)
        with pytest.raises(ScheduleValidationError):
            BlendSequence(inner=inner, beta_schedule=ConstantSchedule(1.0))
        with pytest.raises(ScheduleValidationError):
            BlendSequence(inner=inner, beta_schedule=ConstantSchedule(0.0))
        with pytest.raises(ScheduleValidationError):
            # drifts down from 1 toward 1: limsup not < 1
            BlendSequence(inner=inner, beta_schedule=DriftSchedule(base=0.999, amp=0.01))


# (schedule, accepted as anchor weights, as resolvent radii,
#  (liminf, limsup) returned as blend weights or None if rejected)
SCHEDULE_MATRIX = [
    (PowerSchedule(c=1.0, s=1.0), True, False, None),
    (PowerSchedule(c=1.0, s=0.5), True, False, None),
    (PowerSchedule(c=1.0, s=2.0), False, False, None),
    (PowerSchedule(c=2.0, s=1.0), False, False, None),
    (ConstantSchedule(0.0), False, False, None),
    (ConstantSchedule(0.5), False, True, (0.5, 0.5)),
    (ConstantSchedule(1.0), False, True, None),
    (LinearSchedule(1.0), False, True, None),
    (AlternatingSchedule(0.2, 0.8), False, True, (0.2, 0.8)),
    (AlternatingSchedule(1.0, 10.0), False, True, None),
    (DriftSchedule(base=0.5, amp=0.25), False, False, (0.5, 0.75)),
    (DriftSchedule(base=0.5, amp=-0.1), False, False, None),
    (DriftSchedule(base=0.0, amp=0.5), False, False, None),
]


@pytest.mark.parametrize(
    "sched,anchor_ok,radii_ok,blend_bounds", SCHEDULE_MATRIX, ids=repr
)
def test_schedule_accept_reject_matrix(sched, anchor_ok, radii_ok, blend_bounds):
    for validate, ok in (
        (validate_anchor_weights, anchor_ok),
        (validate_resolvent_radii, radii_ok),
    ):
        if ok:
            assert validate(sched) is sched
        else:
            with pytest.raises(ScheduleValidationError):
                validate(sched)
    if blend_bounds is None:
        with pytest.raises(ScheduleValidationError):
            validate_blend_weights(sched)
    else:
        assert validate_blend_weights(sched) == (sched, *blend_bounds)


@dataclass(frozen=True)
class _EditedAt(Schedule):
    """``base`` with its value at index ``n`` replaced by ``v``.  The declared
    facts are base's, so only the numeric check can see the edit."""

    base: Schedule
    n: int
    v: float

    vanishes_with_divergent_sum = property(
        lambda self: self.base.vanishes_with_divergent_sum
    )
    lower_bound = property(lambda self: self.base.lower_bound)
    limit_bounds = property(lambda self: self.base.limit_bounds)

    def value(self, n):
        return self.v if n == self.n else self.base.value(n)

    def values(self, ns):
        return np.where(np.asarray(ns) == self.n, self.v, self.base.values(ns))


_B = schedules._VALIDATE_BLOCK
_N = schedules._VALIDATE_N


@pytest.mark.parametrize(
    "validate,sched,message",
    [
        # a_{B+1} = 2 a_B: a rise only across the first block boundary
        (validate_anchor_weights, _EditedAt(PowerSchedule(), _B + 1, 2.0 / _B), "nonincreasing"),
        (validate_anchor_weights, _EditedAt(PowerSchedule(), _N, 2.0 / _N), "nonincreasing"),
        (validate_resolvent_radii, _EditedAt(LinearSchedule(1.0), _N, 0.5), "dip below"),
        (validate_blend_weights, _EditedAt(ConstantSchedule(0.5), _N, 0.9), "leave"),
    ],
    ids=["anchor_rise_at_block_boundary", "anchor_rise_at_last_index",
         "radius_dip_at_last_index", "blend_above_limsup_at_last_index"],
)
def test_numeric_check_covers_every_index(validate, sched, message):
    with pytest.raises(ScheduleValidationError, match=message):
        validate(sched)


def test_anchor_tie_across_block_boundary_is_accepted():
    sched = _EditedAt(PowerSchedule(), _B + 1, 1.0 / _B)  # a_{B+1} = a_B
    assert validate_anchor_weights(sched) is sched


@pytest.mark.parametrize(
    "validate,sched",
    [
        (validate_anchor_weights, PowerSchedule()),
        (validate_resolvent_radii, LinearSchedule()),
        (validate_blend_weights, ConstantSchedule(0.5)),
    ],
    ids=["anchor", "radii", "blend"],
)
def test_numeric_check_memory_is_bounded(validate, sched):
    # numpy reports its buffers to tracemalloc; one array of all 10^6
    # values alone would be 8 MB
    validate(sched)
    tracemalloc.start()
    try:
        validate(sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


class TestSrnsDiagnostic:
    def test_constant_fixed_point_sequence(self, space, quad_op):
        seq = ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(1.0))
        z = quad_op.zero_set(space).point
        report = srns_diagnostic(space, seq, [z] * 20, z)
        np.testing.assert_allclose(report.d, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.e, 0.0, atol=1e-12)
        assert not report.flagged

    def test_resolvent_iterates_no_flag(self, space, quad_op, rng):
        # feed iterates of the resolvent itself: d_n -> 0 alongside e_n -> 0
        seq = ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(1.0))
        z = quad_op.zero_set(space).point
        xs = []
        x = rng.standard_normal(2) * 2
        for _ in range(200):
            xs.append(x)
            x = resolvent(space, quad_op, 1.0, x).point
        report = srns_diagnostic(space, seq, xs, z)
        assert not report.flagged
        assert report.e[-1] < report.e[0]

    def test_adversarial_constant_sequence_vacuous(self, space, quad_op):
        # x_n constant away from F: premise d_n -> 0 unmet, so no flag
        seq = ResolventSequence(op=quad_op, r_schedule=ConstantSchedule(1.0))
        z = quad_op.zero_set(space).point
        x0 = z + np.array([3.0, -2.0])
        report = srns_diagnostic(space, seq, [x0] * 30, z)
        assert np.min(report.d) > 1e-6  # premise fails
        assert not report.flagged

    def test_flag_fires_on_violation(self):
        # at p = 2, phi(a, b) = ||a - b||^2; a quarter turn about p_hat keeps
        # the distance to p_hat, so d_n = 0 while e_n = 2 ||x - p_hat||^2
        from halpernlp.mappings import ApplyResult, Mapping, MappingSequence

        sp = LpSpace(2, 2.0)
        p_hat = np.array([1.0, -0.5])

        class QuarterTurn(Mapping):
            def apply(self, space, x, warm=None):
                v = x - p_hat
                return ApplyResult(p_hat + np.array([-v[1], v[0]]), True, 0)

        class QuarterTurns(MappingSequence):
            def at(self, n):
                return QuarterTurn()

        xs = [p_hat + np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0.0, 3.0, 10)]
        report = srns_diagnostic(sp, QuarterTurns(), xs, p_hat)
        np.testing.assert_allclose(report.d, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.e, 2.0, rtol=1e-12)
        assert report.flagged
