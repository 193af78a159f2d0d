"""Fixed reference work, timed between a run's operations to follow the
speed of the machine.

The benchmark runs on a few cores of a shared host, and the host's speed
drifts: a pure-Python loop slowed by a quarter over seven minutes, and
operations of the program slowed with it.  A set of ten runs that straddles
such a drift spreads by more than any bound a regression check could use.
A :class:`SpeedProbe` times the same two pieces of work many times over a
run: a pure-Python loop of dict lookups, float arithmetic and branches (the
interpreter work the autodiff tape does) and a numpy pass over a 20,000 x
60 array (the kind of work catalog scoring does).  Neither shares code with
hypersess.  Both work on objects made with the probe, create nothing but
floats, and run with the garbage collector off, so how much memory the
program holds hardly changes how long they take.  Their medians, against
the medians on the machine the bounds were set on, give the run's speed;
``run.py`` divides its rates by it and multiplies its times by it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# Median probe times on the machine the bounds were set on: a 2-core x86_64
# virtual machine, Python 3.11, numpy 2.4 with OpenBLAS on one thread.
REFERENCE_PYTHON_S = 0.0055
REFERENCE_NUMPY_S = 0.0075


def _python_work(table: dict, keys: list, n: int = 40_000) -> float:
    """Dict lookups, attribute-free float arithmetic and branches on objects
    made with the probe; only floats are created, from their free list."""
    acc = 0.0
    for i in range(n):
        value = table[keys[i & 1023]]
        if value > acc:
            acc += value * 0.5
        else:
            acc -= value * 0.25
    return acc


class SpeedProbe:
    """Samples of the reference work, and the run's speed from them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.normal(size=(20_000, 60))
        self.point = rng.normal(size=60)
        self.buf = np.empty_like(self.table)
        self.dist = np.empty(len(self.table))
        self.keys = [f"k{i:05d}" for i in range(1024)]
        self.values = {k: float(v) for k, v in zip(self.keys, rng.random(1024))}
        self.python_s: list = []
        self.numpy_s: list = []

    @property
    def nbytes(self) -> int:
        """Memory the probe holds for the whole run."""
        return self.table.nbytes + self.buf.nbytes + self.dist.nbytes

    def _numpy_work(self) -> None:
        np.subtract(self.table, self.point, out=self.buf)
        np.multiply(self.buf, self.buf, out=self.buf)
        np.sum(self.buf, axis=1, out=self.dist)
        self.dist.sort()

    def sample(self) -> None:
        # A collection would scan the program's objects and make the probe
        # depend on how many of them are alive.  Each piece of work runs once
        # untimed first: right after an operation of the program, the caches
        # hold its data, and the first pass is slower by up to a fifth.
        gc.disable()
        _python_work(self.values, self.keys)
        t0 = time.perf_counter()
        _python_work(self.values, self.keys)
        t1 = time.perf_counter()
        self._numpy_work()
        t2 = time.perf_counter()
        self._numpy_work()
        self._numpy_work()
        t3 = time.perf_counter()
        gc.enable()
        self.python_s.append(t1 - t0)
        self.numpy_s.append(t3 - t2)

    def speed(self) -> float:
        """The run's speed against the reference machine; above 1 is faster.

        The geometric mean of the two probes' speeds, each the reference
        median over this run's median.
        """
        return math.sqrt(REFERENCE_PYTHON_S / statistics.median(self.python_s)
                         * REFERENCE_NUMPY_S / statistics.median(self.numpy_s))
