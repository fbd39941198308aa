"""Benchmark of the nestopt CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cli-run --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload through ``python -m nestopt.cli`` child
processes and reports the end-to-end metrics of BENCHMARK.json, its times
scaled to a nominal host speed (see hostspeed.py); ``--trace 1``
runs the same invocations in this process with spans around every layer
boundary and reports the per-layer metrics.  Every artifact is checked (see
checks.py).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check or a CLI call failed and 2 when
the benchmark cannot run here (no ``src/nestopt`` under the working
directory).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("cli-run", "rate-sweep", "polytope-run")
# ``nestopt validate`` rounds per run; setup_s is the median round
SETUP_ROUNDS = {"cli-run": 3, "rate-sweep": 5, "polytope-run": 5}
RSS_POLL_S = 0.005
# A single-process CLI child runs alone on the first CPU and this process
# on the others: with both free to migrate, the pass time of one
# polytope-run input spread three times wider (IQR/median 0.20 against
# 0.06-0.11 pinned, eight passes each on a 2-CPU host).  The rate-sweep
# child keeps every CPU for its two pool workers.
CPUS = sorted(os.sched_getaffinity(0))
CHILD_CPUS = set(CPUS[:1]) if len(CPUS) > 1 else set(CPUS)
BENCH_CPUS = set(CPUS[1:]) if len(CPUS) > 1 else set(CPUS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# CLI child processes

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    # hostspeed.Sampler.factor over the child's run; wall_s * speed is in
    # nominal seconds
    speed: float


def _process_tree(pid: int) -> list[tuple[int, int]]:
    """(pid, VmHWM in kB) of pid and each of its descendants; VmHWM is the peak RSS."""
    hwm, children = 0, []
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
                    break
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                children += fh.read().split()
    except (OSError, ValueError):
        pass
    tree = [(pid, hwm)]
    for child in children:
        tree += _process_tree(int(child))
    return tree


def _poll_peak_rss(pid: int, done: threading.Event, peak: list) -> None:
    while not done.wait(RSS_POLL_S):
        peak[0] = max([peak[0]] + [hwm for _, hwm in _process_tree(pid)])


def run_child(argv: list[str], log: Path, cpus: set[int] = CHILD_CPUS) -> Child:
    """Run ``python -m nestopt.cli argv`` and wait for it and its pool workers.

    ``wait4`` returns the CPU time of the child together with every
    descendant it reaped, so the rate-experiment workers count.  Its
    ``ru_maxrss`` cannot serve as the peak: exec records the high-water mark
    of the address space it replaces, which after fork or vfork is this
    process's.  A thread polls the VmHWM of the child's process tree
    instead; VmHWM only grows, so the last poll before exit holds the peak
    unless it was reached in the final poll interval.  A
    ``hostspeed.Sampler`` on the child's CPUs measures the host's speed
    meanwhile.
    """
    import hostspeed  # after nestopt in a traced run, so cli.import_s pays for numpy

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    peak = [0]
    own = os.sched_getaffinity(0)
    with open(log, "w", encoding="utf-8") as fh:
        os.sched_setaffinity(0, cpus)  # inherited by the child
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "nestopt.cli", *argv], cwd=ROOT,
                                    env=env, stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
        finally:
            os.sched_setaffinity(0, own)
        done = threading.Event()
        poller = threading.Thread(target=_poll_peak_rss, args=(proc.pid, done, peak))
        poller.start()
        try:
            with hostspeed.Sampler(cpus) as sampler:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
        finally:
            done.set()
            poller.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"perfbench: nestopt {' '.join(argv[:1])} exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
    return Child(wall, usage.ru_utime + usage.ru_stime, peak[0] * 1024 / 1e6,
                 proc.returncode, sampler.factor())


@dataclass
class Tally:
    """Operations attempted and failed, plus check failures.

    Every workload is chosen so that no call fails, so a failed call is
    also a check failure: it makes the run incorrect and the exit code 1.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, code: int, what: str) -> bool:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"{what}: exited {code}")
        return code == 0


def child_pass(invocations, out_root: Path, tally: Tally, checks) -> list[Child]:
    """One pass of the workload through CLI children; checks every artifact."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    children = []
    for inv in invocations:
        cpus = set(CPUS) if inv.threads > 1 else CHILD_CPUS
        child = run_child(inv.argv(out_root), out_root / f"{inv.name}.log", cpus)
        children.append(child)
        if tally.op(child.code, f"nestopt {inv.command} {inv.name}"):
            tally.errors += checks.check_invocation(out_root, inv)
    return children


def measure_setup(invocations, rounds: int, tally: Tally) -> list[float]:
    """Nominal wall time of ``nestopt validate`` on every config, once per round."""
    log_dir = WORK / "setup"
    log_dir.mkdir(parents=True, exist_ok=True)
    walls = []
    for _ in range(rounds):
        total = 0.0
        for inv in invocations:
            child = run_child(inv.validate_argv(), log_dir / f"{inv.name}.log")
            tally.op(child.code, f"nestopt validate {inv.name}")
            total += child.wall_s * child.speed
        walls.append(total)
    return walls


def timed_run(workload: str, invocations, seconds: int, tally: Tally, checks) -> dict:
    setup = measure_setup(invocations, SETUP_ROUNDS[workload], tally)
    rates, raw_rates, cpu_times, rss, speeds = [], [], [], [], []
    first = WORK / "pass-0"
    start = time.perf_counter()
    passes, last = 0, 0.0
    # whole passes only; the next one starts if it should end within --seconds
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        t_pass = time.perf_counter()
        out_root = WORK / f"pass-{min(passes, 1)}"
        children = child_pass(invocations, out_root, tally, checks)
        if passes:
            tally.errors += checks.same_bytes(first, out_root, invocations,
                                              f"pass {passes + 1} against pass 1")
        done = sum(inv.iterations for inv, c in zip(invocations, children) if c.code == 0)
        rates.append(done / sum(c.wall_s * c.speed for c in children))
        raw_rates.append(done / sum(c.wall_s for c in children))
        cpu_times.append(sum(c.cpu_s * c.speed for c in children))
        rss.append(max(c.peak_rss_mb for c in children))
        speeds.append(statistics.fmean(c.speed for c in children))
        passes += 1
        last = time.perf_counter() - t_pass
    print(f"perfbench: {workload}: {passes} passes of {sum(i.iterations for i in invocations)} "
          f"iterations at {[round(r, 1) for r in rates]} nominal iter/s "
          f"({[round(r, 1) for r in raw_rates]} iter/s of wall time, host speed "
          f"{[round(s, 3) for s in speeds]}); setup rounds {[round(s, 3) for s in setup]} s",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "iter_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpu_times),
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------------------
# traced run

def inprocess_calls(cli, calls, tally: Tally) -> float:
    """(what, argv) CLI calls made in this process on the child CPU; wall seconds."""
    os.sched_setaffinity(0, CHILD_CPUS)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for what, argv in calls:
            try:
                code = cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed call, as in a child
                traceback.print_exc()
                code = 1
            tally.op(code, f"in-process {what}")
    elapsed = time.perf_counter() - t0
    os.sched_setaffinity(0, BENCH_CPUS)
    return elapsed


def inprocess_pass(cli, invocations, out_root: Path, tally: Tally) -> float:
    """The workload's calls in this process, with one worker."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    return inprocess_calls(cli, [(f"nestopt {inv.command} {inv.name}",
                                  inv.argv(out_root, threads=1)) for inv in invocations],
                           tally)


def per_layer(totals: dict, iterations: int, trace_bytes: int, import_s: float,
              overhead_s: float) -> dict:
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale, own=False):
        n, total, self_time = totals.get(name, (0, 0.0, 0.0))
        return (self_time if own else total) / n * scale if n else 0.0

    def per_iter(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / iterations * 1e6

    return {
        "cli.import_s": import_s,
        "experiment.load_config_ms": mean("experiment.load_config", 1e3),
        "problems.build_ms": mean("problems.make_problem", 1e3),
        "model.init_state_us": mean("model.init_state", 1e6),
        "oracles.sample_us": mean("oracles.sample", 1e6, own=True),
        "oracles.sample_calls": calls("oracles.sample"),
        "solver.self_us_per_iter": per_iter("solver.run"),
        "solver.assemble_us": mean("solver.assemble_subgradient", 1e6),
        "solver.update_z_us": mean("solver.update_z", 1e6),
        "solver.update_trackers_us": mean("solver.update_trackers", 1e6),
        "solver.iterations": iterations,
        "sets.project_us.box": mean("sets.project.box", 1e6, own=True),
        "sets.project_us.simplex": mean("sets.project.simplex", 1e6, own=True),
        "sets.project_us.polytope": mean("sets.project.polytope", 1e6, own=True),
        "sets.project_calls": sum(calls(n) for n in totals if n.startswith("sets.project.")),
        "diagnostics.exact_us_per_iter": per_iter("diagnostics.exact"),
        "diagnostics.exact_calls": calls("diagnostics.exact"),
        "experiment.write_trace_ms": mean("experiment.write_trace_csv", 1e3),
        "experiment.trace_mb": trace_bytes / 1e6,
        "experiment.summarize_ms": mean("experiment.summarize_run", 1e3),
        "experiment.replication_ms": mean("experiment.replication_task", 1e3),
        "tracing.overhead_s": overhead_s,
    }


def traced_run(invocations, nestopt, import_s: float, tally: Tally, checks, tracer_mod) -> dict:
    """Untraced children, untraced and traced in-process passes; same bytes."""
    timed_root = WORK / "cli"
    child_pass(invocations, timed_root, tally, checks)
    # in-process `validate` first, so that config parsing, the problem
    # builds and numpy's first calls are warm for both timed passes
    inprocess_calls(nestopt.cli, [(f"nestopt validate {inv.name}", inv.validate_argv())
                                  for inv in invocations], tally)
    untraced_s = inprocess_pass(nestopt.cli, invocations, WORK / "untraced", tally)
    tracer = tracer_mod.Tracer()
    tracer.install(nestopt)
    try:
        traced_s = inprocess_pass(nestopt.cli, invocations, WORK / "traced", tally)
    finally:
        tracer.restore()
    os.sched_setaffinity(0, CHILD_CPUS)
    inside_ns, outside_ns = tracer_mod.calibrate()
    os.sched_setaffinity(0, BENCH_CPUS)
    spans = len(tracer.start)
    print(f"perfbench: {spans} spans at {inside_ns:.0f} ns inside and {outside_ns:.0f} ns "
          f"outside each: {spans * (inside_ns + outside_ns) * 1e-9:.3f} s of tracer cost "
          f"taken off the layers; traced minus untraced wall {traced_s - untraced_s:.3f} s",
          file=sys.stderr)
    for root in ("untraced", "traced"):
        tally.errors += checks.same_bytes(timed_root, WORK / root, invocations,
                                          f"{root} in-process artifact against the child's")
    totals = tracer.layer_totals(inside_ns, outside_ns)
    expected = sum(inv.iterations for inv in invocations)
    iterations = totals.get("solver.update_z", (0,))[0]
    if iterations != expected:
        tally.errors.append(f"traced {iterations} solver iterations, expected {expected}")
    traces = [WORK / "traced" / inv.name / "trace.csv" for inv in invocations]
    trace_bytes = sum(p.stat().st_size for p in traces if p.is_file())
    tracer.write(WORK / "spans.npz")
    (WORK / "layers.json").write_text(json.dumps(
        {"span_cost_ns": {"inside": inside_ns, "outside": outside_ns}, "layers": totals},
        indent=1) + "\n", encoding="utf-8")
    return per_layer(totals, max(iterations, 1), trace_bytes, import_s, traced_s - untraced_s)


# ---------------------------------------------------------------------------
# report

def report(metrics: dict, spec_metrics: list[dict]) -> dict:
    """Pair each value with the unit BENCHMARK.json gives it; names must match."""
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(metrics):
        raise ValueError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def render(workload: str, result: dict, tally: Tally) -> list[str]:
    """One line per metric with its unit, the operation counts, then the JSON line."""
    lines = [f"{workload} {name} {m['value']:.6g} {m['unit']}" for name, m in result.items()]
    lines.append(f"{workload} attempted {tally.attempted} failed {tally.failed}")
    lines.append(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                             "failed": tally.failed, "metrics": result}))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "nestopt" / "cli.py").is_file():
        print(f"perfbench: no src/nestopt/cli.py under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nestopt = import_s = None
    if args.trace:
        # import first, so that cli.import_s includes numpy as a user pays it
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import nestopt.cli  # noqa: F401  (binds the package)
        import_s = time.perf_counter() - t0
        nestopt = sys.modules["nestopt"]
    import checks
    import inputs
    import tracer

    os.sched_setaffinity(0, BENCH_CPUS)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    gen = WORK / "inputs"
    gen.mkdir()
    invocations = inputs.WORKLOADS[args.workload](args.seed, gen)
    tally = Tally()
    if args.trace:
        metrics = traced_run(invocations, nestopt, import_s, tally, checks, tracer)
        spec_metrics = spec["per_layer"]
    else:
        metrics = timed_run(args.workload, invocations, args.seconds, tally, checks)
        spec_metrics = spec["end_to_end"]
    for e in tally.errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print("\n".join(render(args.workload, report(metrics, spec_metrics), tally)))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
