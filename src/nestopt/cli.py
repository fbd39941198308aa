"""Command-line front end: run, rate-experiment, validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import CompoptError, ConfigError
from .experiment import check_diagnostics, load_config, rate_experiment, run_single
from .model import validate_problem
from .problems import make_problem


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(self.prog, message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment JSON file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker processes for replications")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.seed is not None:
            try:
                cfg.algorithm = replace(cfg.algorithm, seed=args.seed)
            except ValueError as exc:
                raise ConfigError("--seed", str(exc)) from exc
        out_dir, out_field = ((args.out, "--out") if args.out is not None
                              else (cfg.output_dir, "output_dir"))
        # each replication builds its own problem; a build here as well would stay
        # resident in every forked pool worker
        if args.command == "rate-experiment":
            payload = rate_experiment(cfg, out_dir, threads=args.threads, out_field=out_field)
            print(f"wrote {out_dir}/rate.json (slope={payload['slope']})")
            return 0
        problem = make_problem(cfg.problem_spec)
        check_diagnostics(cfg.diagnostics, problem)
        violations = validate_problem(problem)
        for v in violations:
            print(f"violation (level={v.level}, kind={v.kind}): {v.message}",
                  file=sys.stdout if args.command == "validate" else sys.stderr)
        if violations:
            return 1
        if args.command == "validate":
            print("config and problem structure ok")
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
