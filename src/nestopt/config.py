"""Config tables and the one reader that walks them.

Every key a section accepts has a Field: kind, default and range.  A range
a constructor checks is left to it: the section's build calls it, and its
ValueError names the section.  The problem family fixes n and M, which
size ``run.init.x`` (n entries) and ``diagnostics.gammas`` (M - 1).
"""

from __future__ import annotations

import numbers
import reprlib
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import DiagnosticsConfig
from .errors import ConfigError
from .model import AlgorithmParams, Constant, Custom, Diminishing, InitPolicy
from .oracles import NoiseModel
from .sets import Ball, Box, Polytope, Simplex

SCHEMA_VERSION = 1
REQUIRED = object()  # the default of a key that has none


class Field(NamedTuple):
    """A vector or matrix also takes what its default is: a number (all n entries) or a name."""

    kind: str  # number, count, bool, enum, path, vector, matrix, numbers or section
    default: object = REQUIRED
    within: str | None = None  # bounds the value, or each entry
    length: str | None = None  # the size of a vector or list, or a matrix's rows of n entries
    of: object = None  # a section's table, or "count" for a list of counts
    most: int | None = None  # the most entries a list may have


class Table(NamedTuple):
    fields: dict
    build: Callable | None = None  # fields and sizes -> the section's object
    levels: int | None = None  # a family's level count M, if it has no levels key
    shorthand: str | None = None  # a string s given for the section reads as {shorthand: s}


class Variants(NamedTuple):  # tables picked by the name under key, or by a key of infer
    key: str
    tables: dict
    infer: tuple = ()


number, count = partial(Field, "number"), partial(Field, "count")


def section(table, default=REQUIRED):
    return Field("section", default, of=table)


# positive and far from underflow: tau0 / 10^6, theta / 10^3 and epsilon / 2 stay above 0
POSITIVE, NONNEGATIVE = "[1e-300, inf)", "[0, inf)"
# size caps: no build allocates an array of more than about 10^7 entries
DIM, SCENARIO_COUNT = "[1, 1000]", "[1, 10000]"
# run allocates about 64 + 16 M bytes per iteration before iteration 0, so at
# most 0.6 GB at the levels cap of 32; a rate experiment holds one small
# payload and result per replication of each horizon
ITERATIONS, REPLICATIONS, HORIZONS = "[1, 1000000]", "[1, 1000]", 100
# (k+1)^gamma within [1, 10^6] up to the iterations cap: no overflow, no division by 0
STEP_DECAY = "[0, 1]"
# the svi ground truth's fixed-point steps grow with the square of the skew part
SKEW = "[-10, 10]"
SCHEDULES = Variants("kind", {
    "diminishing": Table({"tau0": number(within=POSITIVE), "gamma": number(within=STEP_DECAY)},
                         lambda f: Diminishing(f["tau0"], f["gamma"])),
    "constant": Table({"tau": number(within=POSITIVE)}, lambda f: Constant(f["tau"])),
    "custom": Table({"taus": Field("numbers", within=POSITIVE)}, lambda f: Custom(f["taus"])),
})
SETS = Variants("kind", {
    "box": Table({"lo": Field("vector", -1.0, length="n"), "hi": Field("vector", 1.0, length="n")},
                 lambda f: Box(f["lo"], f["hi"])),
    "ball": Table({"center": Field("vector", 0.0, length="n"), "radius": number(1.0)},
                  lambda f: Ball(f["center"], f["radius"])),
    "simplex": Table({"scale": number(1.0)}, lambda f: Simplex(f["n"], f["scale"])),
    "polytope": Table({"A": Field("matrix"), "b": Field("numbers"),
                       "interior": Field("vector", length="n")},
                      lambda f: Polytope(f["A"], f["b"], f["interior"])),
})
SCENARIOS = Variants("kind", {
    "count": Table({"count": count(within=SCENARIO_COUNT), "seed": count(0, NONNEGATIVE),
                    "coef_loc": number(0.3), "coef_scale": number(0.4), "offset_loc": number(1.0),
                    "offset_scale": number(0.5), "relu": Field("bool", False)}),
    "csv": Table({"csv": Field("path"), "relu": Field("bool", False)}),
    "gaussian": Table({"coef_mean": Field("vector", 0.3, length="n"),
                       "coef_sd": number(0.4, NONNEGATIVE), "offset_mean": number(1.0),
                       "offset_sd": number(0.5, NONNEGATIVE)}),
}, infer=("csv", "count"))
NOISE = Table({"value_sd": number(0.0), "jac_sd": number(0.0),
               "distribution": Field("enum", "gaussian")},
              lambda f: NoiseModel(f["value_sd"], f["jac_sd"], f["distribution"]))
RISK = {"n": count(5, DIM), "kappa": number(0.5),
        "scenarios": section(SCENARIOS, {"count": 50}), "set": section(SETS, None)}
PROBLEMS = Variants("family", {
    "synthetic_smooth": Table({"levels": count(3, "[1, 32]"), "n": count(10, DIM),
                               "inner_dim": count(3, "[1, 100]"),
                               "instance_seed": count(1, NONNEGATIVE), "halfwidth": number(2.0),
                               "coupling": number(0.4), "noise": section(NOISE, None)}),
    "risk_p1": Table(RISK, levels=2),
    "risk_p2": Table({**RISK, "epsilon": number(1e-4, POSITIVE)}, levels=3),
    "svi": Table({"n": count(5, DIM), "instance_seed": count(3, NONNEGATIVE),
                  "skew_scale": number(0.5, SKEW), "r": number(1.0),
                  "noise_sd": number(0.0, NONNEGATIVE),
                  "matrix": Field("matrix", "identity_plus_skew", length="n"),
                  "b": Field("vector", "auto", length="n"), "monotone": Field("bool", True),
                  "set": section(SETS, None)}, levels=2),
})
CONFIG = Table({
    "schema_version": count(within=f"[{SCHEMA_VERSION}, {SCHEMA_VERSION}]"),
    "output_dir": Field("path", "out"),
    "problem": section(PROBLEMS),
    "algorithm": section(Table(
        {"a": number(), "b": number(), "rho": number(), "seed": count(),
         "schedule": section(SCHEDULES)},
        lambda f: AlgorithmParams(f["a"], f["b"], f["rho"], f["schedule"], f["seed"]))),
    "run": section(Table({"iterations": count(None, ITERATIONS), "init": section(Table(
        {"policy": Field("enum", "one_sample"), "x": Field("vector", None, length="n")},
        lambda f: (InitPolicy(f["policy"]), f["x"]), shorthand="policy"), {})}), {}),
    "diagnostics": section(Table(
        {"track_every": count(1, NONNEGATIVE), "exact_every": count(10, NONNEGATIVE),
         "exact_window": count(0, NONNEGATIVE), "lyapunov_every": count(0, NONNEGATIVE),
         "gammas": Field("numbers", None, POSITIVE, length="M-1")},
        lambda f: DiagnosticsConfig(f["track_every"], f["exact_every"], f["exact_window"],
                                    f["lyapunov_every"], f["gammas"])), {}),
    "rate_experiment": section(Table(
        {"horizons": Field("numbers", within=ITERATIONS, of="count", most=HORIZONS),
         "replications": count(within=REPLICATIONS), "theta": number(1.0, POSITIVE)}), None),
})


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expected(name: str, what: str, value) -> ConfigError:
    return ConfigError(name, f"expected {what}, got {reprlib.repr(value)}")


def _scalar(value, f: Field, name: str, integral: bool):
    if integral and isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral if integral
                                                  else numbers.Real)
            or not abs(value) <= sys.float_info.max):  # also rejects NaN
        raise _expected(name, "an integer" if integral else "a finite number", value)
    value = int(value) if integral else float(value)
    if f.within is not None:
        lo, hi = (float(end) for end in f.within[1:-1].split(","))
        if not ((lo <= value if f.within[0] == "[" else lo < value)
                and (value <= hi if f.within[-1] == "]" else value < hi)):
            raise ConfigError(name, f"must be in {f.within}, got {value}")
    return value


def _list(value, name: str, size: int | None, entry: Callable, most: int | None = None) -> list:
    if not isinstance(value, list) or not (value or size == 0):
        raise _expected(name, "a non-empty list", value)
    if size is not None and len(value) != size:
        raise ConfigError(name, f"has {len(value)} entries, need {size}")
    if most is not None and len(value) > most:
        raise ConfigError(name, f"has {len(value)} entries, at most {most} allowed")
    return [entry(v) for v in value]


def _field(value, f: Field, name: str, sizes: dict):
    """The entry ``value`` (None when left out) read as field ``name``."""
    kind = f.kind
    if value is None or (kind == "section" and value == {}):
        if f.default is REQUIRED:
            raise ConfigError(name, "missing required field")
        if f.default is None:
            return None
        value = f.default
    if kind == "section":
        return read(value, f.of, name, sizes)
    if kind in ("number", "count"):
        return _scalar(value, f, name, kind == "count")
    if kind in ("bool", "enum", "path") or isinstance(f.default, str) and isinstance(value, str):
        if type(value) is not (bool if kind == "bool" else str) or value == "":
            raise _expected(name, "true or false" if kind == "bool" else "a name", value)
        return value
    entry = partial(_scalar, f=f, name=name, integral=f.of == "count")
    if kind == "vector" and isinstance(f.default, float) and not isinstance(value, list):
        return np.full(sizes["n"], entry(value))
    if kind == "matrix":
        return np.array(_list(value, name, sizes.get(f.length),
                              lambda row: _list(row, name, sizes["n"], entry)))
    values = _list(value, name, sizes.get(f.length), entry, f.most)
    return np.array(values) if kind == "vector" else tuple(values)


def read(doc, spec: Table | Variants, path: str = "", sizes: dict | None = None):
    """The section ``doc`` read against ``spec``: its fields, or what its build makes."""
    sizes = {} if sizes is None else sizes  # a family's n and M-1, for all later sections
    if isinstance(doc, str) and getattr(spec, "shorthand", None):
        doc = {spec.shorthand: doc}
    if not isinstance(doc, dict):
        raise _expected(path or "config", "an object", doc)
    out = {}
    if isinstance(spec, Variants):
        name = next((k for k in spec.infer if k in doc), None)
        if name is None:
            name, doc = doc.get(spec.key), {k: v for k, v in doc.items() if k != spec.key}
            if not (isinstance(name, str) and name in spec.tables):
                raise _expected(_join(path, spec.key), f"one of {', '.join(spec.tables)}", name)
        out[spec.key], spec = name, spec.tables[name]
    unknown = [key for key in doc if key not in spec.fields]
    if unknown:
        raise ConfigError(_join(path, unknown[0]), "unknown key")
    for key, f in spec.fields.items():
        out[key] = _field(doc.get(key), f, _join(path, key), sizes)
        if key == "n":  # a family fixes n and M; it lists them before any vector
            sizes.update({"n": out["n"], "M-1": (spec.levels or out["levels"]) - 1})
    if spec.build is None:
        return out
    try:
        return spec.build({**out, **sizes})
    except ValueError as exc:
        raise ConfigError(path or "config", str(exc)) from exc
