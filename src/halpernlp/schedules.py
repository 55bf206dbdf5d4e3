"""Closed-form parameter schedules with eagerly validated metadata.

A schedule is a pure function of the (1-based) step index together with
declared analytic facts (limits, bounds, sum divergence).  Declared
bounds are additionally checked numerically over the first 10^6 indices
at construction, so a driver never runs under a violated hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_VALIDATE_N = 1_000_000


class ScheduleValidationError(ValueError):
    """A declared theorem hypothesis fails for this schedule."""


class Schedule:
    """A schedule and its declared facts; None means "not declared", and a
    validator that needs an undeclared fact rejects the schedule."""

    vanishes_with_divergent_sum: bool | None = None  # a_n -> 0, sum a_n = inf
    lower_bound: float | None = None  # inf over n of a_n
    limit_bounds: tuple[float, float] | None = None  # (liminf, limsup) bounds

    def value(self, n: int) -> float:
        raise NotImplementedError

    def values(self, ns: np.ndarray) -> np.ndarray:
        return np.array([self.value(int(n)) for n in ns])

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("schedule indices are 1-based")
        return self.value(n)


@dataclass(frozen=True)
class PowerSchedule(Schedule):
    """a_n = c / n^s."""

    c: float = 1.0
    s: float = 1.0

    @property
    def vanishes_with_divergent_sum(self):
        return self.c > 0.0 and 0.0 < self.s <= 1.0

    def value(self, n):
        return self.c / float(n) ** self.s

    def values(self, ns):
        return self.c / np.asarray(ns, dtype=float) ** self.s


@dataclass(frozen=True)
class ConstantSchedule(Schedule):
    v: float

    vanishes_with_divergent_sum = False

    @property
    def lower_bound(self):
        return self.v

    @property
    def limit_bounds(self):
        return self.v, self.v

    def value(self, n):
        return self.v

    def values(self, ns):
        return np.full(np.asarray(ns).shape, self.v, dtype=float)


@dataclass(frozen=True)
class LinearSchedule(Schedule):
    """r_n = scale * n (the divergent regime used for contrast runs)."""

    scale: float = 1.0

    @property
    def lower_bound(self):
        return self.scale

    def value(self, n):
        return self.scale * float(n)

    def values(self, ns):
        return self.scale * np.asarray(ns, dtype=float)


@dataclass(frozen=True)
class AlternatingSchedule(Schedule):
    lo: float
    hi: float

    @property
    def lower_bound(self):
        return min(self.lo, self.hi)

    @property
    def limit_bounds(self):
        return min(self.lo, self.hi), max(self.lo, self.hi)

    def value(self, n):
        return self.lo if n % 2 == 1 else self.hi

    def values(self, ns):
        ns = np.asarray(ns)
        return np.where(ns % 2 == 1, self.lo, self.hi)


@dataclass(frozen=True)
class DriftSchedule(Schedule):
    """b_n = base + amp / n; drifts monotonically to base."""

    base: float
    amp: float

    @property
    def limit_bounds(self):
        return (self.base, self.base + self.amp) if self.amp >= 0 else None

    def value(self, n):
        return self.base + self.amp / float(n)

    def values(self, ns):
        return self.base + self.amp / np.asarray(ns, dtype=float)


def _first_n_values(sched: Schedule, n: int = _VALIDATE_N) -> np.ndarray:
    return sched.values(np.arange(1, n + 1))


def validate_anchor_weights(sched: Schedule) -> Schedule:
    """Hypotheses on {alpha_n}: alpha_n in (0, 1], alpha_n -> 0, sum = inf."""
    vanishes = sched.vanishes_with_divergent_sum
    if vanishes is None:
        raise ScheduleValidationError(
            f"no divergence/vanishing metadata for {sched!r} anchor weights"
        )
    if not vanishes:
        raise ScheduleValidationError(
            "anchor weights must satisfy sum alpha_n = infinity and "
            f"alpha_n -> 0; {sched!r} does not"
        )
    vals = _first_n_values(sched)
    if not (np.all(vals > 0.0) and np.all(vals <= 1.0)):
        raise ScheduleValidationError("anchor weights leave (0, 1]")
    if np.any(np.diff(vals) > 0.0):
        raise ScheduleValidationError("anchor weights must be nonincreasing")
    return sched


def validate_resolvent_radii(sched: Schedule) -> Schedule:
    """Hypothesis on {r_n}: inf r_n > 0."""
    lower = sched.lower_bound
    if lower is None:
        raise ScheduleValidationError(
            f"no positive lower bound declared for {sched!r}"
        )
    if lower <= 0.0:
        raise ScheduleValidationError(
            f"resolvent radii need inf r_n > 0, declared lower bound {lower}"
        )
    vals = _first_n_values(sched)
    if float(np.min(vals)) < lower - 1e-15:
        raise ScheduleValidationError("resolvent radii dip below the declared bound")
    return sched


def validate_blend_weights(sched: Schedule) -> tuple[Schedule, float, float]:
    """Hypothesis on {beta_n}: 0 < liminf <= limsup < 1.

    Returns (schedule, liminf bound, limsup bound).
    """
    bounds = sched.limit_bounds
    if bounds is None:
        raise ScheduleValidationError(
            f"no liminf/limsup bounds declared for {sched!r}"
        )
    lo, hi = bounds
    if not (0.0 < lo <= hi < 1.0):
        raise ScheduleValidationError(
            "blend weights need 0 < liminf beta_n <= limsup beta_n < 1; "
            f"declared bounds [{lo}, {hi}]"
        )
    vals = _first_n_values(sched)
    if float(np.min(vals)) < lo - 1e-15 or float(np.max(vals)) > hi + 1e-15:
        raise ScheduleValidationError("blend weights leave their declared bounds")
    return sched, lo, hi
