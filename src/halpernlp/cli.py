"""Command-line entry point.

    halpernlp run <config.yaml> [--out DIR] [--seed N]
    halpernlp suite <dir> [--parallel K] [--out DIR] [--seed N]
    halpernlp verify-lemmas [--nmax N] [--fuzz COUNT]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    EXIT_IO_ERROR,
    ConfigError,
    RunSummary,
    parse_config,
    run_contained,
    run_suite,
)
from .sequences import rise_selections, verify_example_claims, xu_recursion


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_IO_ERROR
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_IO_ERROR
    summary = run_contained(cfg, args.out)
    print(RunSummary.tsv_header())
    print(summary.as_tsv())
    return summary.exit_code


def _cmd_suite(args) -> int:
    if not Path(args.directory).is_dir():
        print(f"not a directory: {args.directory}", file=sys.stderr)
        return EXIT_IO_ERROR
    paths = sorted(Path(args.directory).glob("*.yaml"))
    summaries = run_suite(
        paths, args.out, parallelism=args.parallel, seed_override=args.seed
    )
    print(RunSummary.tsv_header())
    for s in summaries:
        print(s.as_tsv())
    return max((s.exit_code for s in summaries), default=0)


def _fuzz_certificates(count: int, rng: np.random.Generator) -> tuple[int, int]:
    """Returns (bad oscillating certificates, bad monotone evidences), checking
    stacks of at most 64 prefixes; a (b x 200) draw is b draws of 200."""
    blocks = [min(64, count - i) for i in range(0, count, 64)]
    bad_osc = bad_mono = 0
    for b in blocks:
        vals = np.abs(rng.standard_normal((b, 200))) + 0.1
        # [1] is n_start, 0 where a row gets no certificate; every row must get one, and its
        # selection must pass its checks from n = 1 on, a superset of mainge_tau's (else a raise)
        bad_osc += int(np.count_nonzero(rise_selections(vals, 1e-6)[1] == 0))
    for b in blocks:
        drops = np.abs(rng.standard_normal((b, 200))) + 1e-3
        vals = 10.0 + np.concatenate([np.zeros((b, 1)), -np.cumsum(drops[:, :-1], axis=1)], axis=1)
        # no rise, and convergent evidence under a loose tolerance
        bad_mono += int(np.count_nonzero(rise_selections(vals)[1]))
        bad_mono += int(np.count_nonzero(rise_selections(vals, 1e9)[1]))
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
        1.0, lambda n: np.minimum(1.0, 1.0 / np.sqrt(n)), lambda n: 1.0 / n, 100_000
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
    args = (parser := build_parser()).parse_args(argv)
    if args.command == "verify-lemmas" and (args.nmax < 4 or args.fuzz < 0):
        parser.error("verify-lemmas needs --nmax at least 4 and --fuzz at least 0")
    if args.command == "verify-lemmas" and (args.seed or 0) < 0:
        parser.error("verify-lemmas needs a nonnegative --seed")
    if args.command == "suite" and args.parallel < 1:
        parser.error("suite needs --parallel at least 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
