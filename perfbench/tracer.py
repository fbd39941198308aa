"""Spans around the public calls into each nestopt layer, kept in memory.

The tracer patches the names that callers look up at call time (module
globals and per-instance attributes of each built problem), records one
span per call (name, start, end, parent) into flat arrays, and undoes every
module patch on ``restore``.  A span's self time is its duration minus the
time its child spans cover; calls on one thread nest, so children never
overlap and the covered time is the sum of their durations.

The wrapper's own work lands in the spans: some of it inside the span it
opens, the rest (the extra call frame, the appends before the start clock,
the pop after the end clock) in its parent's self time.  ``calibrate``
measures both costs on no-op calls, and ``layer_totals`` takes them off.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def instrument_problem(self, problem) -> None:
        """Trace the oracles, feasible set and exact evaluators of one new problem."""
        for oracle in problem.oracles:
            oracle.sample = self.wrap("oracles.sample", oracle.sample)
        fs = problem.feasible_set
        fs.project = self.wrap(f"sets.project.{type(fs).__name__.lower()}", fs.project)
        exact = problem.exact
        if exact is not None:
            # ExactEvaluators is a frozen dataclass
            object.__setattr__(exact, "value_jac",
                               self.wrap("diagnostics.exact", exact.value_jac))
            object.__setattr__(exact, "nested", self.wrap("diagnostics.exact", exact.nested))

    def install(self, nestopt) -> None:
        """Patch every layer boundary of an imported nestopt package."""
        cli, experiment, model, problems, solver = (
            nestopt.cli, nestopt.experiment, nestopt.model, nestopt.problems, nestopt.solver)
        build = self.wrap("problems.make_problem", problems.make_problem)

        def make_problem(spec):
            problem = build(spec)
            self.instrument_problem(problem)
            return problem

        # (modules that look the name up, name, traced replacement)
        boundaries = [
            ((problems, experiment, cli), "make_problem", make_problem),
            ((experiment, cli), "load_config",
             self.wrap("experiment.load_config", experiment.load_config)),
            ((solver, experiment), "run", self.wrap("solver.run", solver.run)),
            ((model, solver), "init_state", self.wrap("model.init_state", model.init_state)),
            ((cli,), "main", self.wrap("cli.main", cli.main)),
        ]
        for attr in ("assemble_subgradient", "update_z", "update_trackers"):
            boundaries.append(((solver,), attr, self.wrap(f"solver.{attr}",
                                                          getattr(solver, attr))))
        for attr in ("write_trace_csv", "summarize_run", "_replication_task"):
            boundaries.append(((experiment,), attr,
                               self.wrap(f"experiment.{attr.lstrip('_')}",
                                         getattr(experiment, attr))))
        for owners, attr, new in boundaries:
            for owner in owners:
                self._replace(owner, attr, new)

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        return name_id, parent, start, end

    def layer_totals(self, inside_ns: float = 0.0,
                     outside_ns: float = 0.0) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), less the tracer's own cost.

        Each span's duration loses ``inside_ns`` for itself and
        ``inside_ns + outside_ns`` for every span nested in it; self time is
        what is left after the children's corrected durations.
        """
        name_id, parent, start, end = self.arrays()
        # Spans are appended as they open, so start times are sorted and the
        # spans nested in span i are exactly those after i that open before
        # it closes.
        nested = np.searchsorted(start, end, side="right") - np.arange(start.size) - 1
        dur = ((end - start) - inside_ns - nested * (inside_ns + outside_ns)) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=dur, minlength=len(self.names))
        own = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start_ns=start, end_ns=end)


def calibrate(calls: int = 20_000, rounds: int = 7) -> tuple[float, float]:
    """(inside, outside) nanoseconds one span adds; medians over ``rounds``.

    Three traced loops make ``calls`` iterations each: one calls nothing, one
    calls a no-op and one calls the no-op through a span.  Per iteration,
    the plain call costs (no-op loop - empty loop); a span adds (its
    recorded duration - that call) to itself and (traced loop's self time -
    empty loop) to its parent.
    """
    def noop(a, b):
        return None

    def loop(fn):
        for _ in range(calls):
            fn(1, 2)

    def empty(_):
        for _ in range(calls):
            pass

    inside, outside = [], []
    for _ in range(rounds):
        probe = Tracer()
        leaf = probe.wrap("leaf", noop)
        probe.wrap("empty", empty)(None)
        probe.wrap("plain", loop)(noop)
        probe.wrap("traced", loop)(leaf)
        totals = probe.layer_totals()
        empty_ns = totals["empty"][1] / calls * 1e9
        call_ns = totals["plain"][1] / calls * 1e9 - empty_ns
        inside.append(totals["leaf"][1] / calls * 1e9 - call_ns)
        outside.append(totals["traced"][2] / calls * 1e9 - empty_ns)
    return float(np.median(inside)), float(np.median(outside))
