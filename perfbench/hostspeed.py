"""The host's speed while a CLI child runs, from a fixed reference chunk.

The benchmark shares a 2-CPU VM with other tenants, and the speed of the
same code on it moves by up to 2x within minutes: a fixed pure-Python loop
runs at about 1,280 µs per call when alone, 1,800 µs for a minute at a time
while a neighbour is busy, and about 1,950 µs while the other CPU is busy
as well.  ``cpu_s`` moves with it, so the work itself runs slower.

While a child runs, one thread per CPU of the child wakes every
``PERIOD_S`` and times ``reference_chunk`` on that CPU (about 0.5 ms of
small numpy and Python work, like an iteration of the program).  The chunk
is the same code on every commit, so its mean time measures the host, not
the program.  ``Sampler.factor`` is ``NOMINAL_S`` over that mean: the
share of a nominal-speed second that one second of the run was worth.
A timing multiplied by it is in nominal seconds, the time the same work
would take on a host where the chunk takes ``NOMINAL_S``.

Each chunk is timed with the thread's CPU clock, so time the thread waits
for the CPU or the GIL does not count.  The chunks cost the child about
2% of its CPU, the same on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.025
ROUNDS = 40
# the chunk's typical CPU time on the 2-CPU host of README.md
NOMINAL_S = 550e-6

_A = np.eye(5) + 0.004 * np.arange(25.0).reshape(5, 5)
_B = np.ones(5)


def reference_chunk() -> float:
    """Projected gradient steps on a 5x5 system: fixed work, never changed."""
    x = np.zeros(5)
    s = 0.0
    for k in range(ROUNDS):
        g = _A @ x - _B
        x = np.clip(x - 0.01 * g, 0.0, 2.0)
        s += float(x.sum()) * 0.5 + k % 7
    return s


class Sampler:
    """Times ``reference_chunk`` on each of ``cpus`` until stopped."""

    def __init__(self, cpus) -> None:
        self.samples: list[float] = []
        self._done = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in sorted(cpus)]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while True:
            t0 = time.thread_time()
            reference_chunk()
            self.samples.append(time.thread_time() - t0)
            if self._done.wait(PERIOD_S):
                return

    def __enter__(self) -> "Sampler":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        for t in self._threads:
            t.join()

    def factor(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
