"""Quasi-nonexpansive building blocks and mapping sequences for the drivers.

A mapping here is "of type (r)": it has fixed points and never increases
the Lyapunov distance phi(p, .) to any of them.  Implemented variants
are resolvents, generalized projections, and the dual-coordinate blend
S = J^{-1}(beta J + (1 - beta) J T).  Sequences of such mappings (with a
common fixed-point set) are what the iteration drivers consume.

The blend is defined in the dual: S x = J_q v for v = beta Jx + (1 - beta) JTx,
so J S x is v itself and ||S x||_p = ||v||_q.  Its ``apply`` forms only these
two, all the driver step reads, and T x with its norm and J; S x is formed
when the result's ``point`` is first read.  Its step diagnostics are formed
from these carried values and ||x||_p, and give J x - J T x as a vector.
A resolvent map's ``apply`` returns the ``ResolventResult``, whose answer is
the next warm start; ``at`` reuses its last map while r_n (or beta_n) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import LpSpace, NormedPoint, _dual_map, _normed, _power_norm
from .operators import MonotoneOperator, ResolventResult, resolvent
from .sets import ConvexSet, generalized_projection
from .schedules import Schedule, validate_blend_weights, validate_resolvent_radii


@dataclass
class ApplyResult:
    _point: np.ndarray | None  # S x; for a blend, J_q of normed.jx, formed when read
    converged: bool
    inner_iterations: int
    jx: np.ndarray | None = None  # J of the input point, if the mapping used it
    normed: NormedPoint | None = None  # the point with its norm and J, if known
    warm: NormedPoint | None = None  # where the next application's inner solve starts
    inner: NormedPoint | None = None  # for a blend, T x with its norm and J
    q: float | None = None  # the dual exponent, for a point formed from ``normed``

    @property
    def point(self) -> np.ndarray:
        if self._point is None:
            self._point = _dual_map(self.normed.jx, self.q, self.normed.norm)
        return self._point


class Mapping:
    def apply(self, space: LpSpace, x, warm=None, jx=None) -> ApplyResult:
        """S x.  ``warm`` is the ``warm`` of the previous application, and
        ``jx`` is J x for a checked x when the caller has it."""
        raise NotImplementedError

    def fixed_point_reference(self, space: LpSpace):
        """A known fixed point, or a ConvexSet of them."""
        raise NotImplementedError

    def step_diagnostics(self, space: LpSpace, nx: float, applied: ApplyResult) -> dict:
        """Extra per-step diagnostics from ||x||_p and the ``apply`` result
        for x; none by default."""
        return {}


@dataclass(frozen=True, eq=False)
class ResolventMap(Mapping):
    op: MonotoneOperator
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("resolvent parameter must be positive")

    def apply(self, space, x, warm=None, jx=None) -> ResolventResult:
        return resolvent(space, self.op, self.r, x, z0=warm, jx=jx)

    def fixed_point_reference(self, space):
        return self.op.zero_set(space)


@dataclass(frozen=True, eq=False)
class ProjectionMap(Mapping):
    cset: ConvexSet

    def apply(self, space, x, warm=None, jx=None):
        res = generalized_projection(space, self.cset, x)
        return ApplyResult(res.point, res.converged, res.inner_iterations)

    def fixed_point_reference(self, space):
        return self.cset  # every point of C is fixed


@dataclass(frozen=True, eq=False)
class BlendMap(Mapping):
    """S = J^{-1}(beta J + (1 - beta) J T); F(S) = F(T) for beta < 1."""

    inner: Mapping
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")

    def apply(self, space, x, warm=None, jx=None):
        if self.beta == 1.0:
            return ApplyResult(space.check(x).copy(), True, 0, warm=warm)
        tx = self.inner.apply(space, x, warm=warm, jx=jx)
        jx = tx.jx if tx.jx is not None else space.duality_map(x)
        t = tx.normed if tx.normed is not None else _normed(tx.point, space.p)
        v = self.beta * jx + (1.0 - self.beta) * t.jx  # J S x
        sx = NormedPoint(None, _power_norm(v, space.q), v)  # ||S x||_p = ||v||_q
        # the next inner solve starts from T x, not from the blend output,
        # which lies between x and T x
        return ApplyResult(None, tx.converged, tx.inner_iterations, jx, sx, tx.warm, t, space.q)

    def fixed_point_reference(self, space):
        return self.inner.fixed_point_reference(space)

    def step_diagnostics(self, space, nx, applied):
        """The convexity gap of the blend and Jx - J(Tx), for beta < 1."""
        if self.beta == 1.0:
            return {}
        beta, tx, n_sx = self.beta, applied.inner, applied.normed.norm
        # beta ||x||^2 + (1-beta) ||Tx||^2 - ||S x||^2.  Squares are products:
        # a Python float ** 2 raises OverflowError where n * n gives inf.
        uc_ft_gap = beta * (nx * nx) + (1.0 - beta) * (tx.norm * tx.norm) - n_sx * n_sx
        return {"uc_ft_gap": uc_ft_gap, "j_diff": applied.jx - tx.jx}


class MappingSequence:
    _last = None  # the map of the last ``at``, reused while its parameter is unchanged

    def at(self, n: int) -> Mapping:
        raise NotImplementedError

    def fixed_point_reference(self, space: LpSpace):
        raise NotImplementedError

    def uc_ft_flagged(self, uc_gaps: list, j_gaps: list) -> bool:
        """Whether a run's blend gaps contradict uniform convexity."""
        return False


@dataclass(frozen=True, eq=False)
class ResolventSequence(MappingSequence):
    """S_n = L_{r_n}; common fixed points are the operator's zeros."""

    op: MonotoneOperator
    r_schedule: Schedule

    def __post_init__(self):
        validate_resolvent_radii(self.r_schedule)

    def at(self, n):
        r = self.r_schedule(n)
        if self._last is None or self._last.r != r:
            object.__setattr__(self, "_last", ResolventMap(self.op, r))
        return self._last

    def fixed_point_reference(self, space):
        return self.op.zero_set(space)


@dataclass(frozen=True, eq=False)
class BlendSequence(MappingSequence):
    """S_n = J^{-1}(beta_n J + (1 - beta_n) J T); common fixed points F(T)."""

    inner: Mapping
    beta_schedule: Schedule
    beta_lo: float = field(init=False)  # declared liminf bound of beta_n
    beta_hi: float = field(init=False)  # declared limsup bound of beta_n

    def __post_init__(self):
        _, lo, hi = validate_blend_weights(self.beta_schedule)
        object.__setattr__(self, "beta_lo", lo)
        object.__setattr__(self, "beta_hi", hi)

    def at(self, n):
        beta = self.beta_schedule(n)
        if self._last is None or self._last.beta != beta:
            object.__setattr__(self, "_last", BlendMap(self.inner, beta))
        return self._last

    def fixed_point_reference(self, space):
        return self.inner.fixed_point_reference(space)

    def uc_ft_flagged(self, uc_gaps, j_gaps):
        """Flags a vanishing convexity gap with a non-vanishing J gap in the
        last tenth of the run."""
        if not uc_gaps or self.beta_lo * (1.0 - self.beta_hi) <= 0:
            return False
        tail = max(1, len(uc_gaps) // 10)
        return any(
            g < 1e-8 and jg > 1e-3 for g, jg in zip(uc_gaps[-tail:], j_gaps[-tail:])
        )

