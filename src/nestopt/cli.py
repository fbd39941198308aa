"""Command-line front end: run, rate-experiment, validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import CompoptError, ConfigError
from .experiment import check_problem, load_config, rate_experiment, run_single
from .problems import make_problem


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nestopt",
        description="Single time-scale stochastic subgradient solver for "
                    "nested composition problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="single run; writes trace.csv + summary.json")
    rate = sub.add_parser("rate-experiment",
                          help="constant-stepsize horizon sweep; writes rate.json")
    validate = sub.add_parser("validate", help="schema + problem checks only")
    for command in (run, rate, validate):
        command.add_argument("--config", required=True, help="experiment JSON file")
    for command in (run, rate):
        command.add_argument("--out", default=None, help="output directory (overrides config)")
        command.add_argument("--seed", type=int, default=None, help="master seed override")
    rate.add_argument("--threads", type=int, default=1, help="worker processes for replications")
    return parser


# an overflowing build, probe or run reports itself: numpy's warnings would only add lines
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "rate-experiment" and args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        # each replication builds and checks its own problem; a build here as well would
        # stay resident in every forked pool worker
        if args.command != "rate-experiment":
            problem = make_problem(cfg.problem_spec)
            check_problem(cfg.diagnostics, problem)
            if args.command == "validate":
                print("config and problem structure ok")
                return 0
        if args.seed is not None:
            try:
                cfg.algorithm = replace(cfg.algorithm, seed=args.seed)
            except ValueError as exc:
                raise ConfigError("--seed", str(exc)) from exc
        out_dir, out_field = ((args.out, "--out") if args.out is not None
                              else (cfg.output_dir, "output_dir"))
        if args.command == "rate-experiment":
            payload = rate_experiment(cfg, out_dir, threads=args.threads, out_field=out_field)
            print(f"wrote {out_dir}/rate.json (slope={payload['slope']})")
            return 0
        summary = run_single(cfg, problem, out_dir, out_field)
        print(f"wrote {out_dir}/trace.csv and summary.json "
              f"({summary['iterations']} iterations)")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CompoptError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
