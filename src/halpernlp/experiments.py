"""Config-driven experiment runs: parse, validate, execute, write traces.

Configs are YAML files (all numeric fields decimal).  A run writes a
per-step CSV trace plus one summary line and maps its outcome to an
exit code:

    0  converged, every monitored inequality within tolerance
    2  iteration budget exhausted
    3  an inequality slack fell below -1e-7 (implementation-bug signal)
    4  an inner solver failed to converge
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
from .mappings import BlendSequence, MappingSequence, ResolventMap, ResolventSequence
from .operators import DualityResidual, GradientOfQuadratic, LinearMonotone
from .schedules import (
    AlternatingSchedule,
    ConstantSchedule,
    DriftSchedule,
    LinearSchedule,
    PowerSchedule,
    Schedule,
    ScheduleValidationError,
)
from .sets import Box, ConvexSet, EuclideanBall, HalfSpace, WholeSpace
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


def _build_schedule(section: dict, problems: list) -> Schedule | None:
    kind = section.get("kind")
    try:
        if kind == "power":
            return PowerSchedule(c=float(section.get("c", 1.0)), s=float(section.get("s", 1.0)))
        if kind == "constant":
            return ConstantSchedule(v=float(section["value"]))
        if kind == "linear":
            return LinearSchedule(scale=float(section.get("scale", 1.0)))
        if kind == "alternating":
            return AlternatingSchedule(lo=float(section["lo"]), hi=float(section["hi"]))
        if kind == "drift":
            return DriftSchedule(base=float(section["base"]), amp=float(section["amp"]))
        problems.append(f"unknown schedule kind: {kind!r}")
    except KeyError as e:
        problems.append(f"schedule {kind!r} missing field {e}")
    except (TypeError, ValueError) as e:
        problems.append(f"schedule {kind!r}: {e}")
    return None


def _build_operator(section: dict, dim: int, problems: list):
    variant = section.get("variant")
    try:
        if variant == "gradient_of_quadratic":
            if "q_diag" in section:
                q = np.diag(np.asarray(section["q_diag"], dtype=float))
            else:
                q = np.asarray(section["q"], dtype=float)
            return GradientOfQuadratic(q=q, c=np.asarray(section["c"], dtype=float))
        if variant == "linear_monotone":
            return LinearMonotone(
                m=np.asarray(section["m"], dtype=float),
                b=np.asarray(section.get("b", np.zeros(dim)), dtype=float),
            )
        if variant == "duality_residual":
            return DualityResidual(z=np.asarray(section["z"], dtype=float))
        problems.append(f"unknown operator variant: {variant!r}")
    except (KeyError, ValueError) as e:
        problems.append(f"operator {variant!r}: {e}")
    return None


def _build_constraint(section: dict, problems: list) -> ConvexSet | None:
    variant = section.get("variant", "whole_space")
    try:
        if variant == "whole_space":
            return WholeSpace()
        if variant == "half_space":
            return HalfSpace(a=np.asarray(section["a"], dtype=float), b=float(section["b"]))
        if variant == "box":
            return Box(lo=np.asarray(section["lo"], dtype=float), hi=np.asarray(section["hi"], dtype=float))
        if variant == "ball":
            return EuclideanBall(
                center=np.asarray(section["center"], dtype=float),
                radius=float(section["radius"]),
            )
        problems.append(f"unknown constraint variant: {variant!r}")
    except (KeyError, ValueError) as e:
        problems.append(f"constraint {variant!r}: {e}")
    return None


def _resolve_point(spec, rng: np.random.Generator, dim: int, problems: list, name: str):
    if isinstance(spec, str):
        if spec == "seeded":
            return rng.standard_normal(dim)
        problems.append(f"{name}: expected 'seeded' or a literal array, got {spec!r}")
        return None
    try:
        arr = np.asarray(spec, dtype=float)
        if arr.shape != (dim,):
            problems.append(f"{name}: expected {dim} coordinates, got shape {arr.shape}")
            return None
        return arr
    except (TypeError, ValueError):
        problems.append(f"{name}: not a numeric array")
        return None


def _parse_number(value, kind, name: str, problems: list):
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        problems.append(f"{name}: {e}")
        return None


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
    problems: list[str] = []

    exp_id = str(raw.get("id", default_id))
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    seed = _parse_number(seed, int, "seed", problems)

    space = None
    sp = raw.get("space", {})
    try:
        space = LpSpace(dim=int(sp["dim"]), p=float(sp["p"]))
    except (KeyError, ValueError, TypeError) as e:
        problems.append(f"space: {e}")

    scheme = raw.get("scheme")
    if scheme not in ("proximal_point", "halpern_mann"):
        problems.append(f"unknown scheme: {scheme!r}")

    sched_section = raw.get("schedules", {})
    alpha = _build_schedule(sched_section.get("alpha", {"kind": "power"}), problems)

    dim = space.dim if space else 0
    op = _build_operator(raw.get("operator", {}), dim, problems)
    constraint = _build_constraint(raw.get("constraint", {"variant": "whole_space"}), problems)

    sequence: MappingSequence | None = None
    if space and op:
        try:
            if scheme == "proximal_point":
                r_sched = _build_schedule(
                    sched_section.get("r", {"kind": "constant", "value": 1.0}), problems
                )
                if r_sched:
                    sequence = ResolventSequence(op=op, r_schedule=r_sched)
                if constraint is not None and not isinstance(constraint, WholeSpace):
                    problems.append("proximal_point requires a whole_space constraint")
            elif scheme == "halpern_mann":
                mp = raw.get("mapping", {"variant": "resolvent", "r": 1.0})
                if mp.get("variant") != "resolvent":
                    problems.append(f"unsupported halpern_mann mapping: {mp.get('variant')!r}")
                else:
                    inner = ResolventMap(op=op, r=float(mp.get("r", 1.0)))
                    beta = _build_schedule(
                        sched_section.get("beta", {"kind": "constant", "value": 0.5}),
                        problems,
                    )
                    if beta:
                        sequence = BlendSequence(inner=inner, beta_schedule=beta)
        except (ScheduleValidationError, ValueError) as e:
            problems.append(str(e))

    budgets = raw.get("budgets", {})
    max_iter = _parse_number(budgets.get("max_iter", 100_000), int, "budgets.max_iter", problems)
    stop_tol = _parse_number(budgets.get("stop_tol", 1e-3), float, "budgets.stop_tol", problems)
    perturb = _parse_number(
        raw.get("debug", {}).get("perturb_step", 0.0), float, "debug.perturb_step", problems
    )

    halpern = None
    if space and sequence and constraint is not None and alpha and not problems:
        rng = np.random.default_rng(seed)
        start_section = raw.get("start", {})
        u = _resolve_point(start_section.get("u", "seeded"), rng, space.dim, problems, "u")
        x1 = _resolve_point(start_section.get("x1", "seeded"), rng, space.dim, problems, "x1")
        if x1 is not None:
            x1 = constraint.euclidean_project(x1)
        if u is not None and x1 is not None:
            try:
                halpern = HalpernConfig(
                    space=space,
                    anchor=u,
                    start=x1,
                    constraint=constraint,
                    sequence=sequence,
                    alpha=alpha,
                    max_iter=max_iter,
                    stop_tol=stop_tol,
                    perturb_step=perturb,
                )
            except (ScheduleValidationError, ValueError, RuntimeError) as e:
                problems.append(str(e))

    if problems or halpern is None:
        raise ConfigError(problems or ["config did not produce a runnable setup"])
    return ExperimentConfig(experiment_id=exp_id, seed=seed, scheme=scheme, halpern=halpern)


def write_trace_csv(trace: IterationTrace, path: Path) -> None:
    cols = [(getattr(trace, attr), kind) for attr, _, kind in TRACE_COLUMNS]
    lines = ["# halpernlp trace schema v1", ",".join(CSV_COLUMNS)]
    for i in range(trace.n.size):
        cells = (str(int(c[i])) if kind is int else f"{c[i]:.17g}" for c, kind in cols)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def exit_code_for(trace: IterationTrace) -> int:
    if trace.min_slack < -tolerances.STEP_SLACK_TOL or (
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


def _run_one_path(args):
    path, out_dir, seed_override = args
    try:
        cfg = parse_config(path, seed_override=seed_override)
    except ConfigError as e:
        return RunSummary(
            experiment_id=Path(path).stem,
            status=f"ConfigError: {e.problems[0]}",
            iterations=0,
            final_error=float("nan"),
            final_phi=float("nan"),
            min_slack=float("nan"),
            wall_clock=0.0,
            seed=seed_override or 0,
            exit_code=EXIT_IO_ERROR,
        )
    summary, _ = run_experiment(cfg, out_dir)
    return summary


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
