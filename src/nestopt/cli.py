"""Command-line front end: run, rate-experiment, validate."""

from __future__ import annotations

import argparse
import sys

from .errors import CompoptError, ConfigError
from .experiment import check_against_problem, load_config, rate_experiment, run_single
from .model import validate_problem
from .problems import make_problem


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment JSON file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker processes for replications")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestopt",
        description="Single time-scale stochastic subgradient solver for "
                    "nested composition problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="single run; writes trace.csv + summary.json"))
    _add_common(sub.add_parser("rate-experiment",
                               help="constant-stepsize horizon sweep; writes rate.json"))
    _add_common(sub.add_parser("validate",
                               help="schema + problem dimension checks only"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"config error: --threads: must be >= 1, got {args.threads}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"config error: config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out if args.out is not None else cfg.output_dir

    try:
        if args.command in ("validate", "run"):
            problem = make_problem(cfg.problem_spec)
            check_against_problem(cfg, problem)
            violations = validate_problem(problem)
            for v in violations:
                print(f"violation (level={v.level}, kind={v.kind}): {v.message}",
                      file=sys.stdout if args.command == "validate" else sys.stderr)
            if violations:
                return 1
        if args.command == "validate":
            print("config and problem structure ok")
            return 0
        if args.command == "run":
            summary = run_single(cfg, problem, out_dir, seed_override=args.seed)
            print(f"wrote {out_dir}/trace.csv and summary.json "
                  f"({summary['iterations']} iterations)")
            return 0
        # rate-experiment
        payload = rate_experiment(cfg, out_dir, seed_override=args.seed,
                                  threads=args.threads)
        print(f"wrote {out_dir}/rate.json (slope={payload['slope']})")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CompoptError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
