"""Config-driven experiment runs: parse, validate, execute, write traces.

Configs are YAML files (all numeric fields decimal).  A run writes a
per-step CSV trace plus one summary line and maps its outcome to an
exit code:

    0  converged, every monitored inequality within tolerance
    2  iteration budget exhausted
    3  an inequality slack fell below -1e-7 (implementation-bug signal)
    4  an inner solver failed to converge, or a numerical error
       (ArithmeticError, ValueError) was raised inside the run
    5  I/O failure
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .driver import TRACE_COLUMNS, HalpernConfig, IterationTrace, RunStatus, run_halpern
from .geometry import LpSpace
from .mappings import BlendSequence, ResolventMap, ResolventSequence
from .operators import DualityResidual, GradientOfQuadratic, LinearMonotone
from .schedules import (
    AlternatingSchedule,
    ConstantSchedule,
    DriftSchedule,
    LinearSchedule,
    PowerSchedule,
)
from .sets import Box, EuclideanBall, HalfSpace, WholeSpace
from . import tolerances

EXIT_OK = 0
EXIT_MAX_ITER = 2
EXIT_SLACK_VIOLATION = 3
EXIT_INNER_FAILURE = 4
EXIT_IO_ERROR = 5

CSV_COLUMNS = tuple(header for _, header, _ in TRACE_COLUMNS)

# Summary columns: (RunSummary attribute, TSV header, format spec).
_SUMMARY_COLUMNS = (
    ("experiment_id", "id", ""),
    ("status", "status", ""),
    ("iterations", "iterations", ""),
    ("final_error", "final_error", ".6e"),
    ("final_phi", "final_phi", ".6e"),
    ("min_slack", "min_slack", ".6e"),
    ("wall_clock", "wall_clock_s", ".3f"),
    ("seed", "seed", ""),
    ("exit_code", "exit_code", ""),
)


class ConfigError(ValueError):
    """Raised with a list of every violated hypothesis or schema error."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid experiment config:\n  - " + "\n  - ".join(self.problems))


@dataclass
class ExperimentConfig:
    experiment_id: str
    seed: int
    scheme: str
    halpern: HalpernConfig

    @property
    def stop_tol(self) -> float:
        return self.halpern.stop_tol


@dataclass
class RunSummary:
    experiment_id: str
    status: str
    iterations: int
    final_error: float
    final_phi: float
    min_slack: float
    wall_clock: float
    seed: int
    exit_code: int

    def as_tsv(self) -> str:
        return "\t".join(
            format(getattr(self, attr), spec) for attr, _, spec in _SUMMARY_COLUMNS
        )

    @staticmethod
    def tsv_header() -> str:
        return "\t".join(header for _, header, _ in _SUMMARY_COLUMNS)


_REQUIRED = object()
_VECTOR, _MATRIX = 1, 2  # array fields, by rank
# fields where +-inf has a meaning (box bounds, ball radius); NaN never does
_UNBOUNDED = frozenset({"constraint.lo", "constraint.hi", "constraint.radius"})


class _FieldError(ValueError):
    """A config field of the wrong type or shape; the message names the field."""


@dataclass
class _Section:
    """One mapping of a raw config, and the problem list all sections share.

    ``field`` raises on a bad value; ``read``, ``section`` and ``build``
    record the problem and carry on, so one pass lists every problem.
    """

    values: dict
    problems: list
    path: str = ""  # dotted path of this section; "" at the top level
    dim: int = 0  # vector length; 0 until the space is known skips shape checks

    def _name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def field(self, key: str, kind, default=_REQUIRED):
        """values[key] as a float, an int, or an array of rank ``kind`` with
        ``dim`` entries per axis; finite unless the field is in _UNBOUNDED."""
        name = self._name(key)
        value = self.values.get(key, default)
        if value is _REQUIRED:
            raise _FieldError(f"{name}: missing")
        try:
            if kind is int:
                if isinstance(value, int):
                    return int(value)
                if not float(value).is_integer():
                    raise ValueError(f"{value!r} is not an integer")
                return int(float(value))
            num = float(value) if kind is float else np.asarray(value, dtype=float)
        except (TypeError, ValueError) as e:
            raise _FieldError(f"{name}: {e}") from None
        if name in _UNBOUNDED:
            if np.any(np.isnan(num)):
                raise _FieldError(f"{name}: NaN is not allowed")
        elif not np.all(np.isfinite(num)):
            raise _FieldError(f"{name}: must be finite")
        if kind is float:
            return num
        shape = (self.dim,) * kind
        if self.dim and num.shape != shape:
            raise _FieldError(f"{name}: expected shape {shape}, got {num.shape}")
        return num

    def attempt(self, make, where: str = ""):
        """make(), or None with its error recorded (prefixed by ``where``
        unless it is a field error, which names itself)."""
        try:
            return make()
        except _FieldError as e:
            self.problems.append(str(e))
        except (TypeError, ValueError, RuntimeError) as e:
            self.problems.append(f"{where}{e}")
        return None

    def read(self, key: str, kind, default=_REQUIRED):
        return self.attempt(lambda: self.field(key, kind, default))

    def section(self, key: str, default=None) -> _Section:
        value = self.values.get(key, {} if default is None else default)
        if not isinstance(value, dict):
            self.problems.append(f"{self._name(key)}: expected a mapping, got {value!r}")
            value = {}
        return _Section(value, self.problems, self._name(key), self.dim)

    def build(self, table: dict, key: str, default=None):
        """The variant that values[key] names, made by its entry in ``table``."""
        name = self.values.get(key, default)
        if not (isinstance(name, str) and name in table):
            self.problems.append(f"unknown {self._name(key)}: {name!r}")
            return None
        return self.attempt(lambda: table[name](self), f"{self._name(key)} {name!r}: ")


# name -> constructor from the section that names it
_SCHEDULES = {
    "power": lambda s: PowerSchedule(c=s.field("c", float, 1.0), s=s.field("s", float, 1.0)),
    "constant": lambda s: ConstantSchedule(v=s.field("value", float)),
    "linear": lambda s: LinearSchedule(scale=s.field("scale", float, 1.0)),
    "alternating": lambda s: AlternatingSchedule(lo=s.field("lo", float), hi=s.field("hi", float)),
    "drift": lambda s: DriftSchedule(base=s.field("base", float), amp=s.field("amp", float)),
}
_OPERATORS = {
    "gradient_of_quadratic": lambda s: GradientOfQuadratic(
        q=s.field("q_diag", _VECTOR) if "q_diag" in s.values else s.field("q", _MATRIX),
        c=s.field("c", _VECTOR),
    ),
    "linear_monotone": lambda s: LinearMonotone(
        m=s.field("m", _MATRIX), b=s.field("b", _VECTOR, np.zeros(s.dim))
    ),
    "duality_residual": lambda s: DualityResidual(z=s.field("z", _VECTOR)),
}
_CONSTRAINTS = {
    "whole_space": lambda s: WholeSpace(),
    "half_space": lambda s: HalfSpace(a=s.field("a", _VECTOR), b=s.field("b", float)),
    "box": lambda s: Box(lo=s.field("lo", _VECTOR), hi=s.field("hi", _VECTOR)),
    "ball": lambda s: EuclideanBall(center=s.field("center", _VECTOR), radius=s.field("radius", float)),
}


def _start_point(start: _Section, key: str, rng: np.random.Generator) -> np.ndarray:
    """start[key]: 'seeded' draws from rng; anything else is a literal vector."""
    value = start.values.get(key, "seeded")
    if isinstance(value, str) and value == "seeded":
        return rng.standard_normal(start.dim)
    return start.field(key, _VECTOR)


def parse_config(path, seed_override: int | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ConfigError([f"YAML parse error in {path}: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    return config_from_dict(raw, default_id=path.stem, seed_override=seed_override)


def config_from_dict(
    raw: dict, default_id: str = "experiment", seed_override: int | None = None
) -> ExperimentConfig:
    """The one checked boundary for config input: every problem it finds is
    listed in a single ConfigError."""
    problems: list[str] = []
    top = _Section(raw, problems)

    exp_id = str(raw.get("id", default_id))
    seed = top.read("seed", int, 0) if seed_override is None else seed_override
    sp = top.section("space")
    space = top.attempt(lambda: LpSpace(dim=sp.field("dim", int), p=sp.field("p", float)), "space: ")
    top.dim = space.dim if space else 0

    schedules = top.section("schedules")
    alpha = schedules.section("alpha", {"kind": "power"}).build(_SCHEDULES, "kind")
    op = top.section("operator").build(_OPERATORS, "variant")
    constraint = top.section("constraint").build(_CONSTRAINTS, "variant", "whole_space")

    scheme = raw.get("scheme")
    sequence = None
    if scheme == "proximal_point":
        r = schedules.section("r", {"kind": "constant", "value": 1.0}).build(_SCHEDULES, "kind")
        if constraint is not None and not isinstance(constraint, WholeSpace):
            problems.append("proximal_point requires a whole_space constraint")
        if op is not None and r is not None:
            sequence = top.attempt(lambda: ResolventSequence(op=op, r_schedule=r))
    elif scheme == "halpern_mann":
        mapping = top.section("mapping", {"variant": "resolvent", "r": 1.0})
        if mapping.values.get("variant") != "resolvent":
            problems.append(f"unknown mapping.variant: {mapping.values.get('variant')!r}")
        r = mapping.read("r", float, 1.0)
        beta = schedules.section("beta", {"kind": "constant", "value": 0.5}).build(_SCHEDULES, "kind")
        if op is not None and r is not None and beta is not None:
            sequence = top.attempt(
                lambda: BlendSequence(inner=ResolventMap(op=op, r=r), beta_schedule=beta)
            )
    else:
        problems.append(f"unknown scheme: {scheme!r}")

    budgets = top.section("budgets")
    max_iter = budgets.read("max_iter", int, 100_000)
    stop_tol = budgets.read("stop_tol", float, 1e-3)
    perturb = top.section("debug").read("perturb_step", float, 0.0)
    start = top.section("start")
    rng = top.attempt(lambda: np.random.default_rng(seed), "seed: ")
    if problems:
        raise ConfigError(problems)

    def make_halpern():
        anchor = _start_point(start, "u", rng)  # u is drawn before x1
        x1 = _start_point(start, "x1", rng)
        return HalpernConfig(
            space=space,
            anchor=anchor,
            start=constraint.euclidean_project(x1),
            constraint=constraint,
            sequence=sequence,
            alpha=alpha,
            max_iter=max_iter,
            stop_tol=stop_tol,
            perturb_step=perturb,
        )

    halpern = top.attempt(make_halpern)
    if halpern is None:
        raise ConfigError(problems)
    return ExperimentConfig(experiment_id=exp_id, seed=seed, scheme=scheme, halpern=halpern)


# One %-format per row: %d for integer columns, %.17g (round-trip) for floats.
_CSV_ROW = ",".join("%d" if kind is int else "%.17g" for _, _, kind in TRACE_COLUMNS)


def write_trace_csv(trace: IterationTrace, path: Path) -> None:
    cols = [getattr(trace, attr).tolist() for attr, _, _ in TRACE_COLUMNS]
    lines = ["# halpernlp trace schema v1", ",".join(CSV_COLUMNS)]
    lines += [_CSV_ROW % row for row in zip(*cols)]
    path.write_text("\n".join(lines) + "\n")


def exit_code_for(trace: IterationTrace) -> int:
    # run_halpern's stop rule, so RunStatus.SLACK_VIOLATION gives exit 3; a
    # NaN slack fails the first test
    if not trace.min_slack >= -tolerances.STEP_SLACK_TOL or (
        trace.boundedness_violation > tolerances.STEP_SLACK_TOL
    ):
        return EXIT_SLACK_VIOLATION
    if trace.status is RunStatus.INNER_SOLVER_FAILURE:
        return EXIT_INNER_FAILURE
    if trace.status is RunStatus.MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_OK


def run_experiment(cfg: ExperimentConfig, out_dir) -> tuple[RunSummary, IterationTrace]:
    out_dir = Path(out_dir)
    t0 = time.perf_counter()
    trace = run_halpern(cfg.halpern)
    wall = time.perf_counter() - t0
    code = exit_code_for(trace)
    summary = RunSummary(
        experiment_id=cfg.experiment_id,
        status=trace.status.value,
        iterations=trace.iterations,
        final_error=trace.final_error,
        final_phi=trace.final_phi,
        min_slack=trace.min_slack,
        wall_clock=wall,
        seed=cfg.seed,
        exit_code=code,
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, out_dir / f"{cfg.experiment_id}_trace.csv")
        with open(out_dir / f"{cfg.experiment_id}_summary.tsv", "w") as fh:
            fh.write(RunSummary.tsv_header() + "\n" + summary.as_tsv() + "\n")
    except OSError:
        summary.exit_code = EXIT_IO_ERROR
    return summary, trace


def _failed_summary(experiment_id: str, status: str, seed: int, code: int) -> RunSummary:
    """The summary row of a run that left no trace."""
    nan = float("nan")
    return RunSummary(
        experiment_id=experiment_id,
        status=status,
        iterations=0,
        final_error=nan,
        final_phi=nan,
        min_slack=nan,
        wall_clock=0.0,
        seed=seed,
        exit_code=code,
    )


def run_contained(cfg: ExperimentConfig, out_dir) -> RunSummary:
    """``run_experiment``'s summary, with a numerical error raised inside the
    run (``ArithmeticError``, or ``ValueError``, which includes numpy's
    ``LinAlgError``) turned into an exit-4 row whose status names it, so a
    suite keeps going.  ``run_experiment`` itself still raises."""
    try:
        return run_experiment(cfg, out_dir)[0]
    except (ArithmeticError, ValueError) as e:
        status = " ".join(f"{type(e).__name__}: {e}".split())  # one TSV field
        return _failed_summary(cfg.experiment_id, status, cfg.seed, EXIT_INNER_FAILURE)


def _run_one_path(args):
    path, out_dir, seed_override = args
    try:
        cfg = parse_config(path, seed_override=seed_override)
    except ConfigError as e:
        status = f"ConfigError: {e.problems[0]}"
        return _failed_summary(Path(path).stem, status, seed_override or 0, EXIT_IO_ERROR)
    return run_contained(cfg, out_dir)


def run_suite(
    paths, out_dir, parallelism: int = 1, seed_override: int | None = None
) -> list[RunSummary]:
    jobs = [(str(p), str(out_dir), seed_override) for p in paths]
    if parallelism > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            summaries = list(pool.map(_run_one_path, jobs))
    else:
        summaries = [_run_one_path(j) for j in jobs]
    summaries.sort(key=lambda s: s.experiment_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "suite_summary.tsv", "w") as fh:
        fh.write(RunSummary.tsv_header() + "\n")
        for s in summaries:
            fh.write(s.as_tsv() + "\n")
    return summaries
