"""Host-speed calibration for the benchmark's timings.

The benchmark's host is shared: for tens of seconds to minutes at a
time it runs the same code up to twice as slowly, while CPU time still
equals wall time.  No estimator inside one run removes a slow phase
that covers the whole run.  So each timed pass is bracketed by three
fixed kernels that never change with the program: a pure-Python heap
event loop (the DES), a small HiGHS LP through
``scipy.optimize.linprog`` (the slot solve) and an interpreter mix of
JSON, sorting, regular expressions and string formatting (the
controllers' Python).  Their inputs take a few hundred kilobytes, so
they leave the peak memory of a benchmark process as it was.

:meth:`Calibration.slowness` returns the geometric mean, over the
kernels, of each kernel's fastest time over its time on the reference
host (:data:`REFERENCE_S`).  It reads 1.0 at reference speed and 1.5
when the host runs 1.5x slower; dividing an op's wall time by it gives
the op's time at reference speed.  On the reference host this cut the
spread of pass times over minutes about fourfold.
"""

import heapq
import json
import math
import re
from time import perf_counter

import numpy as np
import scipy.optimize

#: Each kernel's fastest time, in seconds, on the reference host (a
#: 2-CPU Linux microVM, Python 3.11, numpy/scipy with OpenBLAS pinned to
#: one thread) in a quiet phase.
REFERENCE_S = {
    "heap": 1.2e-3,
    "lp": 2.0e-3,
    "interpreter": 3.6e-3,
}
#: Timings per kernel per calibration; the fastest one counts.
REPEATS = 2


class Calibration:
    """The fixed kernels, their inputs built once from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20130520)
        self._events = [(float(t), i) for i, t in
                        enumerate(rng.random(2000) * 100.0)]
        self._lp = (-rng.random(45), rng.random((24, 45)),
                    1.0 + 10.0 * rng.random(24))
        self._document = {"servers": [
            {"id": i, "name": f"s{i}", "rates": [i * 0.5, i * 1.5, i / 3],
             "tags": ["a", "b"][:i % 3]} for i in range(150)]}
        self._words = [f"w{(i * 7919) % 1000:04d}x{i % 13}"
                       for i in range(3000)]
        self._pattern = re.compile(r"w(\d+)x(\d+)")
        self.kernels = {
            "heap": self._heap,
            "lp": self._solve,
            "interpreter": self._interpreter,
        }
        self.slowness()  # first calls pay for lazy imports and page faults

    def _heap(self) -> None:
        queue = list(self._events)
        heapq.heapify(queue)
        while queue:
            when, job = heapq.heappop(queue)
            if job % 4 == 0 and when < 100.0:
                heapq.heappush(queue, (when + 7.5, job + 1))

    def _solve(self) -> None:
        c, a_ub, b_ub = self._lp
        scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0),
                               method="highs")

    def _interpreter(self) -> None:
        document = json.loads(json.dumps(self._document))
        sorted(self._words, key=lambda w: (len(w), w[::-1]))
        for word in self._words:
            self._pattern.match(word).group(1)
        "".join(f"{k}:{v!r};" for k, v in document["servers"][0].items())

    def slowness(self) -> float:
        """Host slowness now: 1.0 at reference speed, higher when slower."""
        logs = sum(math.log(best / REFERENCE_S[name])
                   for name, best in self.kernel_times().items())
        return math.exp(logs / len(self.kernels))

    def kernel_times(self) -> dict:
        """Each kernel's fastest time now, in seconds."""
        times = {}
        for name, kernel in self.kernels.items():
            best = math.inf
            for _ in range(REPEATS):
                start = perf_counter()
                kernel()
                best = min(best, perf_counter() - start)
            times[name] = best
        return times


class HostSpeed:
    """Host slowness sampled between the ops of timed passes.

    The host's speed changes within a second, faster than one pass of a
    workload.  So a pass calls :meth:`between_ops` after each op, and a
    new sample is taken once ``interval_s`` has gone since the last one
    (outside every op's timing).  An op's slowness is the geometric mean
    of the samples just before and just after it.
    """

    def __init__(self, calibration: Calibration, interval_s: float) -> None:
        self.calibration = calibration
        self.interval_s = interval_s
        self._marks = []
        self._last = calibration.slowness()
        self._last_at = perf_counter()

    def _sample(self, done: int) -> None:
        self._last = self.calibration.slowness()
        self._last_at = perf_counter()
        self._marks.append((done, self._last))

    def begin_pass(self) -> None:
        self._marks = [(0, self._last)]

    def between_ops(self, done: int) -> None:
        """``done`` ops of the pass have finished."""
        if perf_counter() - self._last_at >= self.interval_s:
            self._sample(done)

    def end_pass(self, done: int) -> list:
        """The slowness of each of the pass's ``done`` ops."""
        self._sample(done)
        per_op = []
        for (start, before), (stop, after) in zip(self._marks,
                                                   self._marks[1:]):
            per_op += [math.sqrt(before * after)] * (stop - start)
        return per_op
