"""Self-test of the benchmark's checks, tracer and report.

Run from the repository root:

    python3 perfbench/selftest.py

Builds artifacts that pass every check, then corrupts one thing at a time
(a positive eta, a wrong stepsize, a missing row, an infeasible final x, a
shifted objective, a moved VI solution, a rate table that does not decrease
or whose slope is misreported, a changed byte) and requires each corruption
to fail.  A pass whose CLI call exits non-zero (one ``nestopt run`` on a
missing config) must make the run incorrect.  It also checks that the
printed report names every metric of BENCHMARK.json with its unit, the
tracer's self-time and self-cost arithmetic, and that the host-speed sampler
times its chunk on every CPU.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import hostspeed
import inputs
import run
from tracer import Tracer, calibrate

FAILURES: list[str] = []


def expect(label: str, errors: list[str], should_fail: bool) -> None:
    if bool(errors) != should_fail:
        FAILURES.append(f"{label}: expected {'failure' if should_fail else 'pass'}, "
                        f"got {errors or 'pass'}")


def write_run(out: Path, x, iterations: int, tau0: float, gamma: float,
              eta_at=None, tau_scale_at=None, drop_last=False) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,tau,d_sq,eta,t_1,t_2,vres_1,vres_2,objective"]
    for k in range(iterations):
        tau = min(1.0, tau0 / (k + 1) ** gamma)
        if k == tau_scale_at:
            tau *= 1.001
        eta = 1e-6 if k == eta_at else -1e-3 / (k + 1)
        lines.append(f"{k},{tau!r},0.1,{eta!r},,,,,")
    if drop_last:
        lines.pop()
    (out / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {"iterations": iterations, "final": {"x": [float(v) for v in x]}}
    (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


def test_run_checks(tmp: Path) -> None:
    invs = {inv.name: inv for inv in inputs.cli_run(3, tmp)}
    poly = inputs.polytope_run(3, tmp)[0]
    N = 200
    for inv in (invs["risk_p1_run"], invs["svi_run"], poly):
        inv.iterations = N
    # risk_p1 on the simplex, at the LP optimum
    risk = invs["risk_p1_run"]
    lp = risk.facts["lp"]
    _, x_star = checks.risk_p1_lp(*lp["scenarios"], lp["kappa"])
    x_star = np.clip(x_star, 0.0, None)
    x_star /= x_star.sum()
    cases = [("valid risk_p1", {}, x_star, False),
             ("positive eta", {"eta_at": 50}, x_star, True),
             ("wrong tau", {"tau_scale_at": 7}, x_star, True),
             ("missing row", {"drop_last": True}, x_star, True),
             ("infeasible x", {}, x_star + np.array([0.05, 0, 0, 0, 0]), True)]
    # a feasible point whose objective is shifted well above the optimum
    weights, coef, offset = lp["scenarios"]
    worst = np.eye(5)[int(np.argmax(weights @ coef))]
    cases.append(("shifted objective", {}, 0.5 * x_star + 0.5 * worst, True))
    for label, kw, x, bad in cases:
        out = tmp / label.replace(" ", "_")
        write_run(out, x, N, 1.0, 0.75, **kw)
        expect(label, checks.check_run(out, risk), bad)

    svi = invs["svi_run"]
    A, b = svi.facts["vi"]
    x_vi = checks.vi_solution(A, b, 0.0, 2.0)
    for label, x, bad in (("valid svi", x_vi, False),
                          ("moved VI solution", np.clip(x_vi + 0.1, 0.0, 2.0), True)):
        out = tmp / label.replace(" ", "_")
        write_run(out, x, N, 1.0, 0.75)
        expect(label, checks.check_run(out, svi), bad)

    lp = poly.facts["lp"]
    _, x_poly = checks.risk_p1_lp(*lp["scenarios"], lp["kappa"], lp["polytope"])
    A, b = lp["polytope"]
    outward = A[int(np.argmax(A @ x_poly - b))]
    for label, x, bad in (("valid polytope", x_poly, False),
                          ("outside polytope", x_poly + 0.05 * outward, True)):
        out = tmp / label.replace(" ", "_")
        write_run(out, x, N, 1.0, 0.75)
        expect(label, checks.check_run(out, poly), bad)


def test_rate_checks(tmp: Path) -> None:
    inv = inputs.rate_sweep(3, tmp)[0]
    horizons = inv.facts["horizons"]
    reps = inv.facts["replications"]

    def payload(power, slope_shift=0.0, bump=False):
        means = [2.0 * n ** power for n in horizons]
        if bump:
            means[2] = means[1] * 1.01
        slope = checks.least_squares_slope(list(zip(horizons, means))) + slope_shift
        return {"entries": [{"iterations": n, "mean_squared_measure": m,
                             "replication_measures": [m] * reps}
                            for n, m in zip(horizons, means)], "slope": slope}

    for label, doc, bad in (("valid rate", payload(-0.5), False),
                            ("rising means", payload(-0.5, bump=True), True),
                            ("misreported slope", payload(-0.5, slope_shift=1e-3), True),
                            ("slope outside band", payload(-0.2), True)):
        out = tmp / label.replace(" ", "_")
        (out / inv.name).mkdir(parents=True)
        (out / inv.name / "rate.json").write_text(json.dumps(doc), encoding="utf-8")
        expect(label, checks.check_invocation(out, inv), bad)
    # byte identity
    same = tmp / "same"
    shutil.copytree(tmp / "valid_rate", same)
    expect("identical artifacts", checks.same_bytes(tmp / "valid_rate", same, [inv], "copy"),
           False)
    path = same / inv.name / "rate.json"
    path.write_bytes(path.read_bytes().replace(b"2", b"3", 1))
    expect("changed byte", checks.same_bytes(tmp / "valid_rate", same, [inv], "copy"), True)


def test_tracer() -> None:
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda x: traced_inner(traced_inner(x)))
    if outer(1) != 3:
        FAILURES.append("traced call changed its result")
    totals = tracer.layer_totals()
    (n_out, total_out, self_out), (n_in, total_in, _) = totals["outer"], totals["inner"]
    if (n_out, n_in) != (1, 2) or abs(total_out - self_out - total_in) > 1e-12:
        FAILURES.append(f"tracer self time: {totals}")

    # The tracer's own cost: a root span [0, 100] ns with children [10, 20]
    # and [30, 60], the second holding [40, 50].  At 1 ns inside and 2 ns
    # outside per span, the root loses 1 + 3 * 3 ns and its self time is
    # 90 - 9 - 26 = 55 ns.
    spans = Tracer()
    for name, parent, start, end in (("root", -1, 0, 100), ("leaf", 0, 10, 20),
                                     ("mid", 0, 30, 60), ("leaf", 2, 40, 50)):
        spans.name_id.append(spans._id(name))
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    got = {name: (n, round(total * 1e9, 6), round(own * 1e9, 6))
           for name, (n, total, own) in spans.layer_totals(1.0, 2.0).items()}
    want = {"root": (1, 90.0, 55.0), "leaf": (2, 18.0, 18.0), "mid": (1, 26.0, 17.0)}
    if got != want:
        FAILURES.append(f"tracer cost correction: {got}, expected {want}")
    inside_ns, outside_ns = calibrate(calls=2_000, rounds=3)
    if not (0 < inside_ns < 1e5 and 0 < outside_ns < 1e5):
        FAILURES.append(f"span cost calibration: {inside_ns} ns, {outside_ns} ns")


def test_failed_call(tmp: Path) -> None:
    """A CLI call that exits non-zero makes the run incorrect."""
    inv = inputs.cli_run(3, tmp)[0]
    inv.config = tmp / "missing.json"
    tally = run.Tally()
    run.child_pass([inv], tmp / "out", tally, checks)
    line = json.loads(run.render("selftest", {}, tally)[-1])
    if (tally.attempted, tally.failed) != (1, 1) or line["correct"] or not tally.errors:
        FAILURES.append(f"a failed call left the run correct: {line}, {tally.errors}")


def test_host_speed() -> None:
    """The sampler times the chunk on every CPU it is given, from the start."""
    cpus = sorted(os.sched_getaffinity(0))
    with hostspeed.Sampler(cpus) as sampler:
        time.sleep(2.5 * hostspeed.PERIOD_S)
    if len(sampler.samples) < 2 * len(cpus) or not 0.01 < sampler.factor() < 100:
        FAILURES.append(f"host speed: {len(sampler.samples)} samples on {len(cpus)} CPUs, "
                        f"factor {sampler.factor()}")


def test_report() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key in ("end_to_end", "per_layer"):
        metrics = {m["name"]: 1.5 for m in spec[key]}
        lines = run.render("selftest", run.report(metrics, spec[key]), run.Tally(1, 0))
        for m in spec[key]:
            if not any(line.split()[1:] == [m["name"], "1.5", m["unit"]] for line in lines):
                FAILURES.append(f"report has no line for {m['name']} in {m['unit']}")
        if json.loads(lines[-1])["metrics"][spec[key][0]["name"]]["unit"] != spec[key][0]["unit"]:
            FAILURES.append("JSON line lacks the unit")
        metrics.pop(spec[key][0]["name"])
        try:
            run.report(metrics, spec[key])
            FAILURES.append(f"report accepted a missing {key} metric")
        except ValueError:
            pass


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, test in (("runs", test_run_checks), ("rate", test_rate_checks),
                           ("failed", test_failed_call)):
            (Path(tmp) / name).mkdir()
            test(Path(tmp) / name)
    test_tracer()
    test_host_speed()
    test_report()
    for f in FAILURES:
        print(f"SELFTEST FAILED: {f}")
    print(f"selftest: {'ok' if not FAILURES else f'{len(FAILURES)} failures'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
