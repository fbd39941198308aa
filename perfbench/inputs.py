"""Inputs of every workload, generated from the benchmark seed.

Everything the program receives comes from here: scenario tables as
``scenarios.csv``, VI matrices and offsets as explicit ``matrix``/``b``,
polytopes as ``A``/``b``/``interior``, and the ``--seed`` value.  The same
seed always gives the same files.  The configs mirror the shipped ones in
``configs/`` (sizes, schedules, diagnostics), so a workload keeps its size
when those files change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sub-stream tags, so that each generated input has its own stream.
_TAG_RUN_SEED = 0
_TAG_SCENARIOS = 1
_TAG_SVI = 2
_TAG_POLYTOPE = 3
_TAG_SYNTHETIC = 4

RISK_N = 5
RISK_SCENARIOS = 50
SVI_N = 5
POLY_CUTS = 14
POLY_ITERATIONS = 150
POLY_PROGRAM_SEED = 1


def rng_for(seed: int, tag: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, sub])


def program_seed(seed: int, sub: int = 0) -> int:
    """The ``--seed`` value handed to the CLI."""
    return int(rng_for(seed, _TAG_RUN_SEED, sub).integers(1, 2**31))


@dataclass
class Invocation:
    """One CLI call: ``nestopt <command> --config <config> --out <dir> ...``."""

    name: str
    command: str
    config: Path
    seed: int
    iterations: int
    threads: int = 1
    # what the checks need to know about the generated inputs
    facts: dict = field(default_factory=dict)

    def argv(self, out_root: Path, threads: int | None = None) -> list[str]:
        argv = [self.command, "--config", str(self.config),
                "--out", str(out_root / self.name), "--seed", str(self.seed)]
        if self.command == "rate-experiment":
            argv += ["--threads", str(self.threads if threads is None else threads)]
        return argv

    def validate_argv(self) -> list[str]:
        return ["validate", "--config", str(self.config)]


def _algorithm(schedule: dict) -> dict:
    return {"a": 1.0, "b": 1.0, "rho": 1.0, "seed": 0, "schedule": schedule}


_DIMINISHING = {"kind": "diminishing", "tau0": 1.0, "gamma": 0.75}
_SHIPPED_DIAGNOSTICS = {"track_every": 1, "exact_every": 10}
_SYNTHETIC = {"family": "synthetic_smooth", "levels": 3, "n": 10, "inner_dim": 3,
              "halfwidth": 2.0, "coupling": 0.4,
              "noise": {"value_sd": 0.1, "jac_sd": 0.1, "distribution": "gaussian"}}


def scenario_table(seed: int, sub: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-weight affine loss table, sized as the shipped risk configs."""
    rng = rng_for(seed, _TAG_SCENARIOS, sub)
    weights = np.full(RISK_SCENARIOS, 1.0 / RISK_SCENARIOS)
    coef = 0.3 + 0.4 * rng.standard_normal((RISK_SCENARIOS, RISK_N))
    offset = 1.0 + 0.5 * rng.standard_normal(RISK_SCENARIOS)
    return weights, coef, offset


def write_scenarios(path: Path, weights, coef, offset) -> None:
    # %.17g round-trips every double, so the program reads the exact table
    np.savetxt(path, np.column_stack([weights, coef, offset]), delimiter=",",
               fmt="%.17g")


def svi_instance(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Strongly monotone map A = I + skew; some solution coordinates on the box."""
    rng = rng_for(seed, _TAG_SVI)
    B = rng.standard_normal((SVI_N, SVI_N))
    A = np.eye(SVI_N) + 0.25 * (B - B.T)
    target = 1.0 + 0.8 * rng.standard_normal(SVI_N)
    return A, -(A @ target)


def polytope(base_seed: int, n: int = RISK_N, cuts: int = POLY_CUTS):
    """Unit box rows plus random cuts at distance 0.1-0.4 from an interior point."""
    rng = rng_for(base_seed, _TAG_POLYTOPE)
    interior = 0.5 + 0.2 * rng.uniform(-1.0, 1.0, n)
    normals = rng.standard_normal((cuts, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = normals @ interior + rng.uniform(0.1, 0.4, cuts)
    eye = np.eye(n)
    A = np.vstack([eye, -eye, normals])
    b = np.concatenate([np.ones(n), np.zeros(n), offsets])
    return A, b, interior


def _write_config(path: Path, problem: dict, algorithm: dict, **rest) -> Path:
    doc = {"schema_version": 1, "problem": problem, "algorithm": algorithm}
    doc.update(rest)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def cli_run(seed: int, work: Path) -> list[Invocation]:
    """The four shipped run configs with generated instances."""
    inv = []
    syn_seed = int(rng_for(seed, _TAG_SYNTHETIC).integers(1, 2**31))
    cfg = _write_config(work / "synthetic_run.json",
                        dict(_SYNTHETIC, instance_seed=syn_seed),
                        _algorithm(_DIMINISHING),
                        run={"iterations": 2000, "init": "one_sample"},
                        diagnostics=_SHIPPED_DIAGNOSTICS)
    inv.append(Invocation("synthetic_run", "run", cfg, program_seed(seed, 0), 2000,
                          facts={"set": ("box", -2.0, 2.0), "tau0": 1.0, "gamma": 0.75}))
    for sub, family in ((1, "risk_p1"), (2, "risk_p2")):
        weights, coef, offset = scenario_table(seed, sub)
        csv = work / f"{family}_scenarios.csv"
        write_scenarios(csv, weights, coef, offset)
        problem = {"family": family, "n": RISK_N, "kappa": 0.5,
                   "scenarios": {"csv": str(csv)}}
        if family == "risk_p2":
            problem["epsilon"] = 0.0001
        cfg = _write_config(work / f"{family}_run.json", problem,
                            _algorithm(_DIMINISHING),
                            run={"iterations": 20000, "init": "one_sample"},
                            diagnostics=_SHIPPED_DIAGNOSTICS)
        facts = {"set": ("simplex", 1.0), "tau0": 1.0, "gamma": 0.75}
        if family == "risk_p1":
            facts["lp"] = {"scenarios": (weights, coef, offset), "kappa": 0.5}
        inv.append(Invocation(f"{family}_run", "run", cfg, program_seed(seed, sub), 20000,
                              facts=facts))
    A, b = svi_instance(seed)
    cfg = _write_config(work / "svi_run.json",
                        {"family": "svi", "n": SVI_N, "r": 1.0, "noise_sd": 0.1,
                         "matrix": A.tolist(), "b": b.tolist(),
                         "set": {"kind": "box", "lo": 0.0, "hi": 2.0}},
                        _algorithm(_DIMINISHING),
                        run={"iterations": 20000, "init": "one_sample"},
                        diagnostics=_SHIPPED_DIAGNOSTICS)
    inv.append(Invocation("svi_run", "run", cfg, program_seed(seed, 3), 20000,
                          facts={"set": ("box", 0.0, 2.0), "tau0": 1.0, "gamma": 0.75,
                                 "vi": (A, b)}))
    return inv


RATE_HORIZONS = (100, 1000, 10000)
RATE_REPLICATIONS = 20


def rate_sweep(seed: int, work: Path) -> list[Invocation]:
    """``configs/synthetic_rate.json``: 60 replications, 222,000 iterations."""
    cfg = _write_config(work / "synthetic_rate.json", dict(_SYNTHETIC, instance_seed=1),
                        _algorithm({"kind": "constant", "tau": 0.1}),
                        rate_experiment={"horizons": list(RATE_HORIZONS),
                                         "replications": RATE_REPLICATIONS,
                                         "theta": 1.0})
    total = RATE_REPLICATIONS * sum(RATE_HORIZONS)
    return [Invocation("synthetic_rate", "rate-experiment", cfg, program_seed(seed, 0), total,
                       threads=2, facts={"horizons": RATE_HORIZONS,
                                         "replications": RATE_REPLICATIONS})]


def rotation(seed: int, n: int) -> np.ndarray:
    """Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng_for(seed, _TAG_POLYTOPE, 1).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def polytope_run(seed: int, work: Path) -> list[Invocation]:
    """risk_p1 over a generated polytope, diagnostics off.

    The instance is a fixed base (scenario table and polytope of base seed 0)
    turned by a seeded rotation Q: x = Q^T y maps scenario coefficients c to
    Q c and halfspace rows a to Q a.  Halfspace projections commute with
    rotations, so Dykstra does the same work on every seed while every
    number the program receives changes with the seed.  The program's
    --seed stays fixed, so the noise path is the same rotated path.
    Neither part can vary freely without making iter/s a property of the
    seed: the sweeps per projection depend on the angles at the optimal
    vertex and on where x - z/rho lands near it.  Fresh
    random polytopes gave 42-519 iter/s over eight seeds, and a free --seed
    67-128 iter/s over six.
    """
    weights, coef, offset = scenario_table(0, 1)
    A, b, interior = polytope(0)
    Q = rotation(seed, RISK_N)
    coef, A, interior = coef @ Q.T, A @ Q.T, Q @ interior
    csv = work / "risk_p1_scenarios.csv"
    write_scenarios(csv, weights, coef, offset)
    cfg = _write_config(work / "polytope_run.json",
                        {"family": "risk_p1", "n": RISK_N, "kappa": 0.5,
                         "scenarios": {"csv": str(csv)},
                         "set": {"kind": "polytope", "A": A.tolist(), "b": b.tolist(),
                                 "interior": interior.tolist()}},
                        _algorithm(_DIMINISHING),
                        run={"iterations": POLY_ITERATIONS, "init": "one_sample"},
                        diagnostics={"track_every": 0, "exact_every": 0})
    return [Invocation("polytope_run", "run", cfg, POLY_PROGRAM_SEED, POLY_ITERATIONS,
                       facts={"set": ("polytope", A, b), "tau0": 1.0, "gamma": 0.75,
                              "lp": {"scenarios": (weights, coef, offset), "kappa": 0.5,
                                     "polytope": (A, b)}})]


WORKLOADS = {"cli-run": cli_run, "rate-sweep": rate_sweep, "polytope-run": polytope_run}
