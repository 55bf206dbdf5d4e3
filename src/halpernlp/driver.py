"""The two anchored iteration schemes with per-step invariant monitoring.

One generic loop drives both:

    y_n     = J^{-1}(alpha_n J u + (1 - alpha_n) J S_n x_n)
    x_{n+1} = Q_C(y_n)

with S_n a resolvent sequence (proximal-point scheme, C the whole
space) or a blend sequence (Halpern-Mann scheme).  The limit is the
generalized projection of the anchor u onto the common fixed-point set.

Each step records the two theorem-bearing inequality slacks

    (b)  alpha_n phi(w,u) + phi(w,S_n x_n) - phi(w,x_{n+1}) >= 0
    (c)  (1-alpha_n) phi(w,x_n) + 2 alpha_n <y_n - w, Ju - Jw>
           - phi(w,x_{n+1}) >= 0

and the boundedness bound phi(w,x_n) <= max{phi(w,x_1), phi(w,u)}.
Violations beyond tolerance indicate implementation bugs, not bad luck.

A step computes ||.||_p and J once for each point it touches: x_{n+1}'s
come from phi(w, x_{n+1}) and are the next step's J x_n, and S_n x_n's come
from the resolvent's residual at its answer when S_n is a resolvent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import LpSpace, NormedPoint, _normed, _phi, _power_norm
from .mappings import MappingSequence
from .schedules import Schedule, validate_anchor_weights
from .sets import AffineSet, ConvexSet, generalized_projection


class RunStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    INNER_SOLVER_FAILURE = "InnerSolverFailure"


def reference_solution(space: LpSpace, fixed_set, u) -> np.ndarray:
    """w = Q_F(u) for F a known point or affine set of fixed points."""
    u = space.check(u)
    if isinstance(fixed_set, AffineSet):
        res = generalized_projection(space, fixed_set, u)
        if not res.converged:
            raise RuntimeError(
                "generalized projection onto the fixed-point set did not "
                f"converge (VI residual {res.vi_residual:.3e})"
            )
        return res.point
    if isinstance(fixed_set, np.ndarray) or np.ndim(fixed_set) == 1:
        return space.check(fixed_set)
    raise ValueError(
        f"unsupported fixed-point description: {type(fixed_set).__name__}"
    )


@dataclass(frozen=True, eq=False)
class HalpernConfig:
    space: LpSpace
    anchor: np.ndarray  # u
    start: np.ndarray  # x_1, must lie in C
    constraint: ConvexSet
    sequence: MappingSequence
    alpha: Schedule
    max_iter: int = 1_000_000
    stop_tol: float = 1e-3
    # test hook: additive corruption of the dual blend, used to exercise
    # slack-violation detection paths; leave at 0 for honest runs
    perturb_step: float = 0.0
    reference: np.ndarray = field(init=False)  # w = Q_F(u)
    # loop invariants of the step diagnostics
    anchor_dual: np.ndarray = field(init=False)  # J u
    dual_gap: np.ndarray = field(init=False)  # J u - J w
    reference_norm: float = field(init=False)  # ||w||
    phi_w_u: float = field(init=False)  # phi(w, u)

    def __post_init__(self):
        object.__setattr__(self, "anchor", self.space.check(self.anchor))
        object.__setattr__(self, "start", self.space.check(self.start))
        validate_anchor_weights(self.alpha)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if not math.isfinite(self.perturb_step):
            raise ValueError("perturb_step must be finite")
        if not self.constraint.contains(self.start):
            raise ValueError("x_1 must lie in the constraint set")
        w = reference_solution(
            self.space, self.sequence.fixed_point_reference(self.space), self.anchor
        )
        space = self.space
        ju = space.duality_map(self.anchor)
        for name, value in (
            ("reference", w),
            ("anchor_dual", ju),
            ("dual_gap", ju - space.duality_map(w)),
            ("reference_norm", space.norm(w)),
            ("phi_w_u", space.lyapunov(w, self.anchor)),
        ):
            object.__setattr__(self, name, value)


# Per-step trace columns: (IterationTrace attribute, CSV header, type).
TRACE_COLUMNS = (
    ("n", "n", int),
    ("alpha", "alpha_n", float),
    ("phi_w_x", "phi_w_xn", float),
    ("res_fixed_point", "res_fixed_point", float),
    ("res_y_vs_sx", "res_y_minus_Sx", float),
    ("slack_b", "slack_b", float),
    ("slack_c", "slack_c", float),
    ("inner_iters", "inner_iters", int),
)


@dataclass
class IterationTrace:
    status: RunStatus
    iterations: int
    final_x: np.ndarray
    reference: np.ndarray
    n: np.ndarray
    alpha: np.ndarray
    phi_w_x: np.ndarray  # phi(w, x_n)
    res_fixed_point: np.ndarray  # ||x_n - S_n x_n||_p
    res_y_vs_sx: np.ndarray  # ||y_n - S_n x_n||_p
    slack_b: np.ndarray
    slack_c: np.ndarray
    inner_iters: np.ndarray
    uc_ft_gap: np.ndarray | None  # blend-scheme convexity gap, when applicable
    snapshots: list  # (n, x_n) down-sampled full iterates
    boundedness_violation: float  # max over steps of phi(w,x_n) - bound
    final_error: float = math.inf  # ||x_final - w||_p
    final_phi: float = math.inf  # phi(w, x_final)
    uc_ft_flagged: bool = False

    @property
    def min_slack(self) -> float:
        if not self.slack_b.size:
            return math.inf
        return float(min(np.min(self.slack_b), np.min(self.slack_c)))


def _phi_w(cfg: HalpernConfig, v: np.ndarray) -> tuple[float, NormedPoint]:
    """phi(w, v) for the reference point w, and v with its norm and J."""
    v = _normed(v, cfg.space.p)
    return _phi(cfg.reference, cfg.reference_norm, v.jx, v.norm), v


def halpern_step(cfg: HalpernConfig, n: int, x: np.ndarray, prev=None):
    """One step of the scheme; returns (x_next, y, diagnostics dict).

    ``prev`` is the diagnostics dict of the step that produced x.  It
    carries phi(w, x_n) and J x_n, computed for x_{n+1} there, and the
    mapping's warm start (for a resolvent, its last answer with that
    answer's norm and J).  Without it the step computes phi(w, x_n) itself
    and the mapping computes J x_n, checking x_n.

    ||S_n x_n|| and J S_n x_n come from the mapping when its output is a
    resolvent's answer, whose residual computed them; otherwise the step
    computes them.
    """
    space = cfg.space
    p = space.p
    w = cfg.reference
    x = np.asarray(x, dtype=float)
    a = cfg.alpha(n)
    mapping = cfg.sequence.at(n)
    if prev is None:
        warm = jx = None
        phi_w_xn = _phi_w(cfg, x)[0]
    else:
        warm, jx, phi_w_xn = prev["warm"], prev["next"].jx, prev["phi_w_next"]
    applied = mapping.apply(space, x, warm=warm, jx=jx)
    sx, nsx, jsx = applied.normed if applied.normed is not None else _normed(applied.point, p)
    jy = a * cfg.anchor_dual + (1.0 - a) * jsx
    y = space.inverse_duality_map(jy)
    if cfg.perturb_step:
        y = y + cfg.perturb_step
    if cfg.constraint.contains(y, 0.0):
        x_next = y
        proj_converged, proj_iters = True, 0
    else:
        proj = generalized_projection(space, cfg.constraint, y)
        x_next = proj.point
        proj_converged, proj_iters = proj.converged, proj.inner_iterations

    phi_w_next, x_next_normed = _phi_w(cfg, x_next)
    slack_b = a * cfg.phi_w_u + _phi(w, cfg.reference_norm, jsx, nsx) - phi_w_next
    slack_c = (
        (1.0 - a) * phi_w_xn
        + 2.0 * a * float(np.dot(y - w, cfg.dual_gap))
        - phi_w_next
    )

    diag = {
        "n": n,
        "alpha": a,
        "sx": sx,
        "warm": applied.warm,
        "next": x_next_normed,
        "phi_w_x": phi_w_xn,
        "phi_w_next": phi_w_next,
        "res_fixed_point": _power_norm(x - sx, p),
        "res_y_vs_sx": _power_norm(y - sx, p),
        "slack_b": slack_b,
        "slack_c": slack_c,
        "inner_iters": applied.inner_iterations + proj_iters,
        "inner_converged": applied.converged and proj_converged,
        **mapping.step_diagnostics(space, applied.jx, jsx),
    }
    return x_next, y, diag


def run_halpern(cfg: HalpernConfig) -> IterationTrace:
    space = cfg.space
    w = cfg.reference
    bound = max(space.lyapunov(w, cfg.start), cfg.phi_w_u)

    cols = {attr: [] for attr, _, _ in TRACE_COLUMNS}
    uc_gaps: list[float] = []
    j_gaps: list[float] = []
    snapshots = []
    stride = max(1, math.ceil(cfg.max_iter / 1000))

    x = cfg.start.copy()
    prev = None
    status = RunStatus.MAX_ITER
    bound_violation = -math.inf
    n_done = 0
    for n in range(1, cfg.max_iter + 1):
        x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
        prev = diag
        for attr in cols:
            cols[attr].append(diag[attr])
        if "uc_ft_gap" in diag:
            uc_gaps.append(diag["uc_ft_gap"])
            j_gaps.append(diag["j_gap"])
        if n % stride == 0 or n == 1:
            snapshots.append((n, x.copy()))
        bound_violation = max(bound_violation, diag["phi_w_x"] - bound)
        n_done = n
        if not diag["inner_converged"]:
            x = x_next
            status = RunStatus.INNER_SOLVER_FAILURE
            break
        x = x_next
        if _power_norm(x - w, space.p) <= cfg.stop_tol:
            status = RunStatus.CONVERGED
            break

    return IterationTrace(
        status=status,
        iterations=n_done,
        final_x=x,
        reference=w,
        **{
            attr: np.asarray(cols[attr], dtype=kind)
            for attr, _, kind in TRACE_COLUMNS
        },
        uc_ft_gap=np.asarray(uc_gaps) if uc_gaps else None,
        snapshots=snapshots,
        boundedness_violation=bound_violation,
        final_error=space.norm(x - w),
        final_phi=space.lyapunov(w, x),
        uc_ft_flagged=cfg.sequence.uc_ft_flagged(uc_gaps, j_gaps),
    )
