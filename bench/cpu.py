"""Pick the CPU to measure on, and measure how fast it runs meanwhile.

The benchmark host is a virtual machine whose CPUs share physical cores
with other tenants.  There is almost no steal time, but each CPU's speed
drifts on its own, from one second to the next, by up to 1.7x: a fixed
pure-Python loop takes ~75 ms on one CPU while it takes ~125 ms on the
other, and a few seconds later the other way round.  The whole host also
drifts by 20% or more over minutes, which a median over one run cannot
remove.

Two corrections, neither of which touches hopfpath:

- `pin_fastest_cpu` times a short probe loop on every CPU this process may
  use and pins the process (and so every thread and child it starts
  afterwards) to the fastest one, which is what an idle machine would give.
- A `Sampler` thread on that same CPU runs a fixed ~10 ms calibration job
  every `SAMPLE_PERIOD_S` while a measured child runs, plus once right
  before and once right after it.  `Sampler.scaled` turns an interval's
  wall time into seconds at the reference speed `REFERENCE_PROBE_S`: the
  CPU seconds the samples took inside the interval are taken off its wall
  time (the child did not run then), and the rest is multiplied by
  REFERENCE_PROBE_S / (mean CPU seconds of the samples around it).  The job
  is the library's mix of operations (Fraction sums into a tuple-keyed
  dict, and float dicts with tuple keys built from other dicts), so it
  slows down with the host as hopfpath does, but it is fixed code, so a
  faster hopfpath still shows in full.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
from fractions import Fraction
from time import perf_counter, thread_time

PROBE_ROUNDS = 2
SAMPLE_PERIOD_S = 0.25
# a round figure near speed_probe's median CPU seconds on the benchmark
# host; scaled times are wall times at the speed this stands for
REFERENCE_PROBE_S = 0.010


def _fractions(n: int) -> None:
    acc: dict = {}
    for i in range(n):
        k = (i % 97, i % 13)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)


def _float_dicts(n: int) -> None:
    out = []
    for i in range(n):
        d = {(i % 5,): i * 0.5, (i % 3, i % 7): 1.5}
        e: dict = {}
        for k, v in d.items():
            e[k + (1,)] = e.get(k, 0.0) + v * 0.25
        out.append(e)


def _probe() -> float:
    """Seconds for a short fixed job in the library's mix of operations:
    Fraction sums into a dict with tuple keys, and small dicts.  The
    collector is off so that a process's own heap cannot lengthen it."""
    gc.disable()
    t0 = perf_counter()
    _fractions(1500)
    objs = [{(i % 50,): i * 0.5} for i in range(8000)]
    t = perf_counter() - t0
    del objs
    gc.enable()
    return t


def pin_fastest_cpu(cpus: tuple) -> None:
    """Pin this process to whichever of `cpus` runs the probe fastest now."""
    best, best_t = cpus[0], float("inf")
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(_probe() for _ in range(PROBE_ROUNDS))
        if t < best_t:
            best, best_t = cpu, t
    os.sched_setaffinity(0, {best})


def speed_probe() -> float:
    """CPU seconds of this thread for the fixed calibration job.  CPU time,
    not wall time, because a measured child shares the CPU with it."""
    gc.disable()
    t0 = thread_time()
    _fractions(1750)
    _float_dicts(2000)
    t = thread_time() - t0
    gc.enable()
    return t


class Sampler:
    """Samples of speed_probe, each as (start in perf_counter time, CPU
    seconds), taken on the current CPU from `start()` to `stop()`:
    one at each end, and one every SAMPLE_PERIOD_S in a thread between."""

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.samples.append((perf_counter(), speed_probe()))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the measured work took from perf_counter time t0 to t1,
        less the samples run inside that interval, at the reference speed.
        The speed is the mean of the samples inside the interval and of the
        nearest one on each side."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        before = [s for s in self.samples if s[0] < t0][-1:]
        after = [s for s in self.samples if s[0] >= t1][:1]
        busy = sum(s[1] for s in inside)
        speed = statistics.fmean(s[1] for s in before + inside + after)
        return (t1 - t0 - busy) * REFERENCE_PROBE_S / speed
