"""Command-line entry point.

    halpernlp run <config.yaml> [--out DIR] [--seed N]
    halpernlp suite <dir> [--parallel K] [--out DIR] [--seed N]
    halpernlp verify-lemmas [--nmax N] [--fuzz COUNT]
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    EXIT_IO_ERROR,
    ConfigError,
    RunSummary,
    parse_config,
    run_experiment,
    run_suite,
)
from .sequences import (
    ConvergentEvidence,
    NoRiseEvidence,
    RealSequencePrefix,
    TauCertificate,
    eventually_increasing_tau,
    mainge_tau,
    verify_example_claims,
    xu_recursion,
)


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_IO_ERROR
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_IO_ERROR
    summary, _ = run_experiment(cfg, args.out)
    print(RunSummary.tsv_header())
    print(summary.as_tsv())
    return summary.exit_code


def _cmd_suite(args) -> int:
    paths = sorted(Path(args.directory).glob("*.yaml"))
    summaries = run_suite(
        paths, args.out, parallelism=args.parallel, seed_override=args.seed
    )
    print(RunSummary.tsv_header())
    for s in summaries:
        print(s.as_tsv())
    return max((s.exit_code for s in summaries), default=0)


def _fuzz_certificates(count: int, rng: np.random.Generator) -> tuple[int, int]:
    """Returns (bad oscillating certificates, bad monotone evidences)."""
    bad_osc = 0
    bad_mono = 0
    for _ in range(count):
        vals = np.abs(rng.standard_normal(200)) + 0.1
        res = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=1e-6)
        if not isinstance(res, TauCertificate):
            bad_osc += 1
        base = mainge_tau(RealSequencePrefix(vals))
        if not isinstance(base, (TauCertificate, NoRiseEvidence)):
            bad_osc += 1
    for _ in range(count):
        drops = np.abs(rng.standard_normal(200)) + 1e-3
        vals = 10.0 + np.concatenate([[0.0], -np.cumsum(drops[:-1])])
        if not isinstance(mainge_tau(RealSequencePrefix(vals)), NoRiseEvidence):
            bad_mono += 1
        res = eventually_increasing_tau(RealSequencePrefix(vals), cauchy_tol=1e9)
        if not isinstance(res, ConvergentEvidence):
            bad_mono += 1
    return bad_osc, bad_mono


def _cmd_verify_lemmas(args) -> int:
    ok = True

    report = verify_example_claims(args.nmax)
    good = report.odd_rises_confirmed and report.no_dominating_subsequence
    print(f"counterexample claims to N={args.nmax}: {'PASS' if good else 'FAIL'}")
    ok &= good

    rng = np.random.default_rng(args.seed or 0)
    bad_osc, bad_mono = _fuzz_certificates(args.fuzz, rng)
    print(
        f"certificate fuzz ({args.fuzz} oscillating / {args.fuzz} monotone): "
        f"{'PASS' if bad_osc == bad_mono == 0 else f'FAIL ({bad_osc}, {bad_mono})'}"
    )
    ok &= bad_osc == bad_mono == 0

    orbit = xu_recursion(
        1.0, lambda n: min(1.0, 1.0 / math.sqrt(n)), lambda n: 1.0 / n, 100_000
    )
    tail = float(orbit.values[-1])
    print(f"summability recursion tail at N=1e5: {tail:.3e} "
          f"{'PASS' if tail <= 1e-3 else 'FAIL'}")
    ok &= tail <= 1e-3

    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="halpernlp")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run every *.yaml config in a directory")
    p_suite.add_argument("directory")
    p_suite.add_argument("--parallel", type=int, default=1)
    p_suite.add_argument("--out", default="out")
    p_suite.set_defaults(func=_cmd_suite)

    p_ver = sub.add_parser("verify-lemmas", help="run the sequence-lemma checks")
    p_ver.add_argument("--nmax", type=int, default=10_000)
    p_ver.add_argument("--fuzz", type=int, default=500)
    p_ver.set_defaults(func=_cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
