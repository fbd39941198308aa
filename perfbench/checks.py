"""Output checks, computed apart from the program.

Each check returns a list of failure messages; an empty list means the
artifact passed.  References come from the benchmark's own inputs: an LP
optimum solved with ``scipy.optimize.linprog`` for risk_p1, a projected
fixed-point solve for the VI, a closed-form least-squares slope for the
rate sweep, and the stepsize rule for every ``trace.csv``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

# Tolerances.  Measured worst cases over the benchmark seeds are in the
# README; each bound leaves a wide margin and still fails a corrupted artifact.
ETA_TOL = 1e-9          # eta <= 0 up to rounding
SET_TOL = 1e-8          # final x inside its set
LP_REL_GAP = 1e-2       # risk_p1 objective vs LP optimum, relative
VI_DIST = 5e-2          # svi final x vs VI solution, Euclidean
SLOPE_BAND = (-0.6, -0.4)
SLOPE_FIT_TOL = 1e-9


def note(inv, text: str) -> None:
    """A measured margin, on standard error so that the result line stays last."""
    print(f"perfbench: {inv.name}: {text}", file=sys.stderr)


def risk_p1_objective(x, weights, coef, offset, kappa) -> float:
    """E[H] + kappa E[max(0, H - E[H])] of H_i(x) = <coef_i, x> + offset_i."""
    w = weights / weights.sum()
    losses = coef @ x + offset
    mean = float(w @ losses)
    return mean + kappa * float(w @ np.maximum(losses - mean, 0.0))


def risk_p1_lp(weights, coef, offset, kappa, polytope=None) -> tuple[float, np.ndarray]:
    """Optimal value and point of risk_p1 over the simplex, or {A x <= b}, as an LP.

    Variables (x, s) with s_i >= H_i(x) - E[H](x), s >= 0; the objective is
    E[H](x) + kappa * sum_i w_i s_i.
    """
    from scipy.optimize import linprog

    w = weights / weights.sum()
    count, n = coef.shape
    cbar, obar = w @ coef, float(w @ offset)
    cost = np.concatenate([cbar, kappa * w])
    a_ub = np.hstack([coef - cbar, -np.eye(count)])
    b_ub = obar - offset
    if polytope is None:
        a_eq = np.concatenate([np.ones(n), np.zeros(count)])[None, :]
        bounds = [(0.0, None)] * (n + count)
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                      bounds=bounds, method="highs")
    else:
        A, b = polytope
        a_ub = np.vstack([a_ub, np.hstack([A, np.zeros((A.shape[0], count))])])
        b_ub = np.concatenate([b_ub, b])
        bounds = [(None, None)] * n + [(0.0, None)] * count
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun) + obar, res.x[:n]


def vi_solution(A, b, lo: float, hi: float, tol: float = 1e-13) -> np.ndarray:
    """Solve <A x + b, y - x> >= 0 on the box [lo, hi]^n by projected fixed point."""
    mu = float(np.min(np.linalg.eigvalsh(0.5 * (A + A.T))))
    step = mu / float(np.linalg.norm(A, 2)) ** 2
    x = np.full(A.shape[0], 0.5 * (lo + hi))
    for _ in range(1_000_000):
        x_new = np.clip(x - step * (A @ x + b), lo, hi)
        if float(np.max(np.abs(x_new - x))) <= tol:
            return x_new
        x = x_new
    raise RuntimeError("reference VI fixed point did not converge")


def in_set(x: np.ndarray, set_fact: tuple) -> list[str]:
    kind = set_fact[0]
    if kind == "box":
        lo, hi = set_fact[1], set_fact[2]
        viol = max(float(np.max(lo - x)), float(np.max(x - hi)))
    elif kind == "simplex":
        viol = max(float(np.max(-x)), abs(float(x.sum()) - set_fact[1]))
    elif kind == "polytope":
        A, b = set_fact[1], set_fact[2]
        viol = float(np.max(A @ x - b))
    else:
        raise ValueError(f"unknown set kind {kind}")
    if viol > SET_TOL:
        return [f"final x leaves its {kind} set by {viol:.3g}"]
    return []


def check_trace(path: Path, iterations: int, tau0: float, gamma: float) -> list[str]:
    """N rows, eta <= 0 up to rounding, tau = min(1, tau0/(k+1)^gamma)."""
    rows = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            ik, itau, ieta = header.index("k"), header.index("tau"), header.index("eta")
            for row in reader:
                k, tau, eta = int(row[ik]), float(row[itau]), float(row[ieta])
                if k != rows:
                    return [f"trace.csv: row {rows} has k={k}"]
                expected = min(1.0, tau0 / (k + 1) ** gamma)
                if tau != expected:
                    return [f"trace.csv: k={k} tau={tau!r}, expected {expected!r}"]
                if not eta <= ETA_TOL:
                    return [f"trace.csv: k={k} eta={eta!r} > 0"]
                rows += 1
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        return [f"trace.csv unreadable: {exc!r}"]
    if rows != iterations:
        return [f"trace.csv: {rows} rows, expected {iterations}"]
    return []


def check_run(out: Path, inv) -> list[str]:
    """trace.csv and summary.json of one ``nestopt run``."""
    facts = inv.facts
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{inv.name}: summary.json unreadable: {exc}"]
    errors = check_trace(out / "trace.csv", inv.iterations, facts["tau0"], facts["gamma"])
    if summary.get("iterations") != inv.iterations:
        errors.append(f"summary.json: iterations {summary.get('iterations')}")
    x = np.asarray(summary["final"]["x"], dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        errors.append("final x is not a finite vector")
        return [f"{inv.name}: {e}" for e in errors]
    errors += in_set(x, facts["set"])
    if "lp" in facts:
        lp = facts["lp"]
        weights, coef, offset = lp["scenarios"]
        f_x = risk_p1_objective(x, weights, coef, offset, lp["kappa"])
        f_star, _ = risk_p1_lp(weights, coef, offset, lp["kappa"], lp.get("polytope"))
        gap = (f_x - f_star) / abs(f_star)
        note(inv, f"relative LP gap {gap:.3g}")
        if not -LP_REL_GAP <= gap <= LP_REL_GAP:
            errors.append(f"objective {f_x!r} vs LP optimum {f_star!r} "
                          f"(relative gap {gap:.3g})")
    if "vi" in facts:
        A, b = facts["vi"]
        x_star = vi_solution(A, b, facts["set"][1], facts["set"][2])
        dist = float(np.linalg.norm(x - x_star))
        note(inv, f"distance to the VI solution {dist:.3g}")
        if not dist <= VI_DIST:
            errors.append(f"final x is {dist:.3g} from the VI solution")
    return [f"{inv.name}: {e}" for e in errors]


def least_squares_slope(points) -> float:
    lx = [math.log(n) for n, _ in points]
    ly = [math.log(m) for _, m in points]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def check_rate(out: Path, inv) -> list[str]:
    """Per-horizon means decrease; the slope is their least-squares fit, near -1/2."""
    try:
        payload = json.loads((out / "rate.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{inv.name}: rate.json unreadable: {exc}"]
    errors = []
    entries = payload.get("entries", [])
    horizons = [e["iterations"] for e in entries]
    if horizons != list(inv.facts["horizons"]):
        errors.append(f"horizons {horizons}, expected {list(inv.facts['horizons'])}")
    reps = inv.facts["replications"]
    for e in entries:
        if len(e["replication_measures"]) != reps:
            errors.append(f"N={e['iterations']}: {len(e['replication_measures'])} "
                          f"replications, expected {reps}")
    means = [e["mean_squared_measure"] for e in entries]
    if any(not m > 0 for m in means):
        errors.append(f"non-positive mean measure in {means}")
    elif any(b >= a for a, b in zip(means, means[1:])):
        errors.append(f"per-horizon means do not decrease: {means}")
    slope = payload.get("slope")
    note(inv, f"means {means}, slope {slope}")
    if not errors:
        fit = least_squares_slope(list(zip(horizons, means)))
        if slope is None or abs(slope - fit) > SLOPE_FIT_TOL:
            errors.append(f"reported slope {slope!r} differs from the fit {fit!r}")
        elif not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            errors.append(f"slope {slope!r} outside {SLOPE_BAND}")
    return [f"{inv.name}: {e}" for e in errors]


def check_invocation(out_root: Path, inv) -> list[str]:
    out = out_root / inv.name
    if inv.command == "rate-experiment":
        return check_rate(out, inv)
    return check_run(out, inv)


def artifact_files(invocations) -> list[Path]:
    """The pinned artifacts of each invocation, relative to its output root."""
    files = []
    for inv in invocations:
        names = ("rate.json",) if inv.command == "rate-experiment" else ("trace.csv",
                                                                          "summary.json")
        files += [Path(inv.name) / n for n in names]
    return files


def same_bytes(root_a: Path, root_b: Path, invocations, what: str) -> list[str]:
    """Every artifact under root_b is byte-identical to the one under root_a."""
    errors = []
    for rel in artifact_files(invocations):
        try:
            if (root_a / rel).read_bytes() != (root_b / rel).read_bytes():
                errors.append(f"{rel}: {what} differs")
        except OSError as exc:
            errors.append(f"{rel}: {what}: {exc}")
    return errors
