#!/usr/bin/env python3
"""Benchmark of halpernlp: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` beside
this directory.  The load is a closed loop: one caller, one operation in
flight, BLAS pinned to one thread.  A run repeats whole passes over the
workload until ``--seconds`` have gone by (at least two passes), after one
untimed warm-up pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, whose passes alternate with untraced
ones to measure the tracing overhead.  The last line of standard output is the
result as one JSON object; the line before it records the environment and
the details behind the metrics.

Exit codes: 0 result printed, 2 the program or its configs are missing,
3 a rerun did not repeat (trace hashes or exact counts differ).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # must precede the first numpy import
# numpy and halpernlp are imported inside functions, so that a set-up probe
# times their import

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("shipped", "wide", "calls")
SETUP_PROBES = 5
MIN_PASSES = 2
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples of a pass beyond it


class ProgramMissing(RuntimeError):
    pass


class NotRepeated(RuntimeError):
    pass


def import_harness():
    """Import halpernlp from this checkout's src/, then the harness modules."""
    if not (SRC / "halpernlp" / "__init__.py").is_file():
        raise ProgramMissing(f"no halpernlp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import halpernlp

    if Path(halpernlp.__file__).resolve().parent != (SRC / "halpernlp").resolve():
        raise ProgramMissing(f"halpernlp was imported from {halpernlp.__file__}")
    import tracer
    import workloads

    return workloads, tracer


def setup_probe(workload: str, seed: int) -> float:
    """Import plus set-up in this fresh process; returns its seconds."""
    t0 = time.perf_counter()
    workloads, _ = import_harness()
    workloads.SETUP[workload](seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise ProgramMissing(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_LADDER with TAIL_BEYOND of n samples beyond it."""
    fits = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= TAIL_BEYOND]
    return max(fits, default=TAIL_LADDER[0])


def run_passes(run_pass, seconds: float, minimum: int = MIN_PASSES) -> list:
    out = []
    t0 = time.perf_counter()
    while len(out) < minimum or time.perf_counter() - t0 < seconds:
        out.append(run_pass())
    return out


def check_repeats(passes, counts=None) -> None:
    """Every pass must repeat the first: hashes, exact counts, failures."""
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        if p.fingerprint != first.fingerprint or p.steps != first.steps:
            raise NotRepeated(f"pass {k} differs from pass 1: {p.fingerprint} vs {first.fingerprint}")
        if len(p.failures) != len(first.failures):
            raise NotRepeated(f"pass {k} has {len(p.failures)} failures, pass 1 {len(first.failures)}")
    if counts:
        for k, c in enumerate(counts[1:], start=2):
            if c != counts[0]:
                diff = {n: (counts[0][n], c[n]) for n in c if c[n] != counts[0][n]}
                raise NotRepeated(f"traced pass {k} counts differ from traced pass 1: {diff}")


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics plus the details behind them."""
    workloads, _ = import_harness()
    import numpy as np

    setups = measure_setup(workload, seed)
    state = workloads.SETUP[workload](seed)
    warmup = workloads.PASS[workload](state, out_dir)
    passes = run_passes(lambda: workloads.PASS[workload](state, out_dir), seconds)
    check_repeats([warmup] + passes)
    # Other tenants of the host slow whole passes down by up to a third, so
    # times are the best over the timed passes: of each pass for solve_s and
    # us_per_step, of each operation for the latency percentiles.
    best = np.min([p.op_s for p in passes], axis=0)
    q = tail_percentile(best.size)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": min(p.solve_s for p in passes),
        "us_per_step": min(1e6 * p.step_wall_s / p.steps for p in passes),
        "steps": passes[0].steps,
        "call_p50_us": 1e6 * float(np.median(best)),
        "call_tail_us": 1e6 * float(np.percentile(best, q, method="inverted_cdf")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "passes": len(passes),
        "pass_solve_s": [p.solve_s for p in passes],
        "setup_s_samples": setups,
        "call_tail_percentile": q,
        "call_samples": int(best.size),
        "attempted": attempted,
        "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "failures": failures[:10],
        "fingerprint": passes[0].fingerprint if workload != "calls" else None,
    }
    if workload == "calls":
        details["census"] = workloads.run_census(state)
    return metrics, details


def measure_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    """The traced run: per-layer metrics and the tracing overhead.

    Untraced and traced passes alternate, so that the overhead compares
    passes made under the same machine conditions.
    """
    workloads, trace_mod = import_harness()
    tracer = trace_mod.Tracer()
    with tracer.installed():
        state = workloads.SETUP[workload](seed)
    setup_layers = trace_mod.layer_metrics(tracer.spans())

    warmup = workloads.PASS[workload](state, out_dir)
    untraced, passes, layers = [], [], []

    def pass_pair():
        untraced.append(workloads.PASS[workload](state, out_dir))
        tracer.reset()
        with tracer.installed():
            passes.append(workloads.PASS[workload](state, out_dir, timed_clock=False))
        layers.append(trace_mod.layer_metrics(tracer.spans()))

    run_passes(pass_pair, seconds)
    counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
    check_repeats([warmup] + untraced + passes, counts)
    untraced_solve = statistics.median(p.solve_s for p in untraced)
    traced_solve = statistics.median(p.solve_s for p in passes)
    metrics = {"trace.overhead_share": traced_solve / untraced_solve - 1.0}
    for name in layers[0]:
        if name in ("schedules.validate.total_s", "experiments.parse.total_s"):
            metrics[name] = setup_layers[name]
        elif name.endswith("_s"):
            metrics[name] = statistics.median(layer[name] for layer in layers)
        else:
            metrics[name] = layers[0][name]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    details = {
        "traced_passes": len(passes),
        "untraced_solve_s": untraced_solve,
        "traced_solve_s": traced_solve,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "setup_layer_calls": {k: v for k, v in setup_layers.items() if k.endswith(".calls") and v},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            if args.trace:
                metrics, details = measure_traced(args.workload, args.seed, args.seconds, out_dir)
            else:
                metrics, details = measure(args.workload, args.seed, args.seconds, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                scratch.rmdir()  # only when no other run is using it
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    except NotRepeated as e:
        print(f"perfbench: rerun check failed: {e}", file=sys.stderr)
        return 3

    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    print("# perfbench " + json.dumps({**environment(args), **details}))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
