"""The two anchored iteration schemes with per-step invariant monitoring.

One generic loop drives both:

    y_n     = J^{-1}(alpha_n J u + (1 - alpha_n) J S_n x_n)
    x_{n+1} = Q_C(y_n)

with S_n a resolvent sequence (proximal-point scheme, C the whole
space) or a blend sequence (Halpern-Mann scheme).  The limit is
w = Q_F(u), the generalized projection of the anchor u onto the common
fixed-point set F, a ConvexSet: one certified projection at set-up.

Each step records the two theorem-bearing inequality slacks

    (b)  alpha_n phi(w,u) + phi(w,S_n x_n) - phi(w,x_{n+1}) >= 0
    (c)  (1-alpha_n) phi(w,x_n) + 2 alpha_n <y_n - w, Ju - Jw>
           - phi(w,x_{n+1}) >= 0

and the boundedness bound phi(w,x_n) <= max{phi(w,x_1), phi(w,u)}.
Violations beyond tolerance indicate implementation bugs, not bad luck, and
a run stops at the first step that shows one (a NaN slack counts).

A step computes ||.||_p and J once for each point it touches.  S_n x_n's
come from the mapping: the resolvent's answer, or the blend's dual
combination.  y_n = J^{-1} jy for the anchor blend jy = alpha_n J u +
(1 - alpha_n) J S_n x_n, so an unprojected x_{n+1} = y_n has J x_{n+1} = jy
and ||x_{n+1}||_p = ||jy||_q; they give phi(w, x_{n+1}) and the next J x_n.
The slacks, the bound and the stop test are judged at every step; the two
residual columns, with a blend's S_n x_n and its J gap ||J x_n - J T_n x_n||_q,
are formed by run_halpern in blocks of steps, bit for bit the per-step kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    LpSpace, NormedPoint, _dual_map, _normed, _phi, _power_norm, _row_dual_maps, _row_power_norms
)
from . import tolerances
from .mappings import MappingSequence
from .schedules import Schedule, validate_anchor_weights
from .sets import ConvexSet, generalized_projection


class RunStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    INNER_SOLVER_FAILURE = "InnerSolverFailure"
    SLACK_VIOLATION = "SlackViolation"


def reference_solution(space: LpSpace, fixed_set: ConvexSet, u) -> np.ndarray:
    """w = Q_F(u), certified, for F the ConvexSet of fixed points; generalized_projection checks u."""
    res = generalized_projection(space, fixed_set, u)
    if not res.converged:
        raise RuntimeError("generalized projection onto the fixed-point set did not "
                           f"converge (VI residual {res.vi_residual:.3e})")
    return res.point


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
        space = self.space
        w = reference_solution(space, self.sequence.fixed_point_reference(space), self.anchor)
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
# the columns a step's diagnostics hold; run_halpern forms the residual ones
_STEP_ATTRS = tuple(
    attr for attr, _, _ in TRACE_COLUMNS if attr not in ("res_fixed_point", "res_y_vs_sx")
)
# run_halpern keeps x_n, y_n and S_n x_n of steps up to this many coordinates
# of x_n, then forms their residual columns and J gaps in one reduction
_RESIDUAL_BLOCK = 2**12


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
    j_gap: np.ndarray | None  # ||J x_n - J T_n x_n||_q, with uc_ft_gap
    boundedness_violation: float  # max over steps of phi(w,x_n) - bound
    final_error: float = math.inf  # ||x_final - w||_p
    final_phi: float = math.inf  # phi(w, x_final)
    uc_ft_flagged: bool = False

    @property
    def min_slack(self) -> float:
        if not self.slack_b.size:
            return math.inf
        # np.minimum keeps a NaN slack, where min() could drop it
        return float(np.minimum(np.min(self.slack_b), np.min(self.slack_c)))


def _phi_w(cfg: HalpernConfig, v: np.ndarray) -> tuple[float, NormedPoint]:
    """phi(w, v) for the reference point w, and v with its norm and J."""
    v = _normed(v, cfg.space.p)
    return _phi(cfg.reference, cfg.reference_norm, v.jx, v.norm), v


def halpern_step(cfg: HalpernConfig, n: int, x: np.ndarray, prev=None):
    """One step of the scheme; returns (x_next, y, diagnostics dict).

    ``prev`` is the diagnostics dict of the step that produced x.  It
    carries x_n with its norm and J and phi(w, x_n), computed for x_{n+1}
    there, and the mapping's warm start (for a resolvent, its last answer
    with that answer's norm and J).  Without it the step computes phi(w, x_n)
    itself, the mapping computes J x_n, checking x_n, and J^{-1} checks the
    anchor blend.  A run carries J x_n from the step before's anchor blend,
    which can differ from J of x_n at rounding level, so a step replays a
    run's step exactly only when given that carried state.

    ||S_n x_n|| and J S_n x_n come from the mapping's result (a resolvent's
    answer, a projection's point, or a blend's dual combination).  The
    diagnostics hold S_n x_n as the NormedPoint "image" (x None for a blend),
    a blend's J x_n - J T_n x_n as "j_diff", x_{n+1} - w as "next_minus_w".
    """
    space = cfg.space
    w = cfg.reference
    x = np.asarray(x, dtype=float)
    a = cfg.alpha(n)
    mapping = cfg.sequence.at(n)
    if prev is None:
        warm = jx = None
        phi_w_xn, xn = _phi_w(cfg, x)
    else:
        warm, xn, phi_w_xn = prev["warm"], prev["next"], prev["phi_w_next"]
        jx = xn.jx
    applied = mapping.apply(space, x, warm=warm, jx=jx)
    image = applied.normed
    jy = a * cfg.anchor_dual + (1.0 - a) * image.jx
    ny = _power_norm(jy, space.q)  # ||y||_p, non-finite if a coordinate of jy is
    if prev is None:
        y = space.inverse_duality_map(jy)
    elif not math.isfinite(ny):  # the check space.inverse_duality_map makes
        raise ValueError("vector has non-finite coordinates")
    else:
        y = _dual_map(jy, space.q, ny)
    if cfg.perturb_step:
        y = y + cfg.perturb_step
    if cfg.constraint.contains(y, 0.0):
        x_next = y
        proj_converged, proj_iters = True, 0
    else:
        proj = generalized_projection(space, cfg.constraint, y)
        x_next = proj.point
        proj_converged, proj_iters = proj.converged, proj.inner_iterations

    if x_next is y and not cfg.perturb_step:
        # J J^{-1} jy = jy and ||J^{-1} jy||_p = ||jy||_q
        x_next_normed = NormedPoint(y, ny, jy)
        phi_w_next = _phi(w, cfg.reference_norm, jy, ny)
    else:
        phi_w_next, x_next_normed = _phi_w(cfg, x_next)
    slack_b = a * cfg.phi_w_u + _phi(w, cfg.reference_norm, image.jx, image.norm) - phi_w_next
    y_w = y - w
    slack_c = (1.0 - a) * phi_w_xn + 2.0 * a * float(y_w.dot(cfg.dual_gap)) - phi_w_next

    diag = {
        "n": n,
        "alpha": a,
        "image": image,
        "warm": applied.warm,
        "next": x_next_normed,
        "next_minus_w": y_w if x_next is y else x_next - w,
        "phi_w_x": phi_w_xn,
        "phi_w_next": phi_w_next,
        "slack_b": slack_b,
        "slack_c": slack_c,
        "inner_iters": applied.inner_iterations + proj_iters,
        "inner_converged": applied.converged and proj_converged,
        **mapping.step_diagnostics(space, xn.norm, applied),
    }
    return x_next, y, diag


def run_halpern(cfg: HalpernConfig) -> IterationTrace:
    space = cfg.space
    w = cfg.reference

    cols = {attr: [] for attr, _, _ in TRACE_COLUMNS}
    uc_gaps: list[float] = []
    j_gaps: list[float] = []
    block = max(1, _RESIDUAL_BLOCK // space.dim)
    pending = []  # (x_n, y_n, S_n x_n's "image") of the steps whose residuals are not formed
    j_diffs = []  # J x_n - J T_n x_n of the blend steps whose J gap is not formed

    def form_block():
        # each row is mapped or reduced on its own: bit for bit the per-step kernel
        k = len(pending)
        xs, ys, images = zip(*pending)
        sxs = np.array([s.jx if s.x is None else s.x for s in images])
        dual = [i for i, s in enumerate(images) if s.x is None]  # S x = J^{-1} J S x
        sxs[dual] = _row_dual_maps(sxs[dual], space.q, [images[i].norm for i in dual])
        norms = _row_power_norms(np.concatenate((np.array(xs) - sxs, np.array(ys) - sxs)), space.p)
        cols["res_fixed_point"] += norms[:k]
        cols["res_y_vs_sx"] += norms[k:]
        j_gaps.extend(_row_power_norms(np.array(j_diffs).reshape(-1, space.dim), space.q))
        del pending[:], j_diffs[:]

    x = cfg.start.copy()
    prev = None
    status = RunStatus.MAX_ITER
    bound_violation = -math.inf
    n_done = 0
    for n in range(1, cfg.max_iter + 1):
        x_next, y, diag = halpern_step(cfg, n, x, prev=prev)
        if prev is None:  # the first step took phi(w, x_1)
            bound = max(diag["phi_w_x"], cfg.phi_w_u)
        prev = diag
        for attr in _STEP_ATTRS:
            cols[attr].append(diag[attr])
        if "uc_ft_gap" in diag:
            uc_gaps.append(diag["uc_ft_gap"])
            if n == 1:  # the checked norm, as step 1 takes the checked J^{-1}
                j_gaps.append(space.dual_norm(diag["j_diff"]))
            else:
                j_diffs.append(diag["j_diff"])
        pending.append((x, y, diag["image"]))
        if len(pending) == block:
            form_block()
        excess = diag["phi_w_x"] - bound
        bound_violation = max(bound_violation, excess)
        n_done = n
        x = x_next
        # written so that a NaN slack fails the test
        tol = tolerances.STEP_SLACK_TOL
        if not (diag["slack_b"] >= -tol and diag["slack_c"] >= -tol) or excess > tol:
            status = RunStatus.SLACK_VIOLATION
            break
        if not diag["inner_converged"]:
            status = RunStatus.INNER_SOLVER_FAILURE
            break
        if _power_norm(diag["next_minus_w"], space.p) <= cfg.stop_tol:
            status = RunStatus.CONVERGED
            break
    if pending:
        form_block()

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
        j_gap=np.asarray(j_gaps) if uc_gaps else None,
        boundedness_violation=bound_violation,
        final_error=space.norm(x - w),
        final_phi=space.lyapunov(w, x),
        uc_ft_flagged=cfg.sequence.uc_ft_flagged(uc_gaps, j_gaps),
    )
