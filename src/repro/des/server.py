"""Simulated servers: FCFS queues and processor-sharing VMs.

The paper's architecture runs one VM per request type on a server, with
the CPU shared according to ``phi_{k,i,l}``.  A VM with share ``phi`` on
a server of capacity ``C`` serving type-``k`` requests behaves as an
M/M/1 queue with rate ``phi * C * mu_k`` (Eq. 1); mean sojourn time is
the same under FCFS and egalitarian processor sharing, so both
disciplines are provided and cross-checked in tests.

:class:`FCFSQueueServer` is the hot server for large validation runs
(the ``des_million`` benchmark scenario), so it queues plain
``(arrival_time, work)`` tuples in a deque and completes jobs through
one persistent bound callback — no per-job object, closure, or
cancellation handle is allocated.  The processor-sharing
:class:`VirtualMachine` keeps per-job objects because its completion
events genuinely need cancellation on every arrival; it is the
composable event-driven component (:class:`ProcessorSharingServer`,
mixed models on one :class:`~repro.des.engine.Engine`).

:func:`processor_sharing_departures` runs one whole PS queue on its own,
given all of its arrivals up front (see
:func:`~repro.des.processes.draw_poisson_arrivals`).  A VM shares
nothing with any other VM, so it needs no event heap: one loop over
plain float lists alternates "next arrival" and "pending completion".
It repeats :class:`VirtualMachine`'s float operations exactly — the
work drain ``per_job = (now - last) * rate / n`` then
``max(0.0, r - per_job)``, the first-minimum job choice, the finish time
``now + r * n / rate`` — and the engine's ``(time, seq)`` tie rule: when
the pending completion and the next arrival fall at the same time, the
completion goes first only if the previous arrival scheduled it (it
then holds the smaller sequence number); a completion scheduled by an
earlier completion was scheduled after that arrival and goes second.
The sojourns it returns are therefore bit-identical to a
:class:`VirtualMachine` fed by :class:`~repro.des.processes.PoissonArrivals`
(pinned by ``tests/test_des_ps_loop.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.engine import Engine
from repro.des.events import Event
from repro.des.measurements import SojournStats
from repro.utils.validation import check_positive

_INF = float("inf")

__all__ = [
    "FCFSQueueServer",
    "ProcessorSharingServer",
    "VirtualMachine",
    "processor_sharing_departures",
]


@dataclass
class _Job:
    job_id: int
    arrival_time: float
    remaining_work: float


class FCFSQueueServer:
    """Single-server FCFS queue with a fixed work-processing rate.

    Jobs carry exponential work requirements (mean 1 work unit) and the
    server drains work at ``rate`` units per time unit, so the queue is
    M/M/1 with service rate ``rate`` under Poisson arrivals.
    """

    __slots__ = ("_engine", "_inv_rate", "_queue", "_busy", "_stats",
                 "_current_arrival")

    def __init__(self, engine: Engine, rate: float,
                 stats: Optional[SojournStats] = None):
        check_positive(rate, "rate")
        self._engine = engine
        self._inv_rate = 1.0 / float(rate)
        self._queue: Deque[Tuple[float, float]] = deque()
        self._busy = False
        self._stats = stats if stats is not None else SojournStats()
        self._current_arrival = 0.0

    @property
    def stats(self) -> SojournStats:
        """Sojourn-time statistics recorder."""
        return self._stats

    @property
    def queue_length(self) -> int:
        """Jobs in system (queued + in service)."""
        return len(self._queue) + (1 if self._busy else 0)

    def arrive(self, work: float) -> None:
        """Admit a job with ``work`` exponential work units."""
        if self._busy:
            self._queue.append((self._engine.now, float(work)))
            return
        self._busy = True
        self._current_arrival = self._engine.now
        self._engine.defer(float(work) * self._inv_rate, self._complete)

    def _complete(self) -> None:
        self._stats.record(self._current_arrival, self._engine.now)
        if not self._queue:
            self._busy = False
            return
        arrival, work = self._queue.popleft()
        self._current_arrival = arrival
        self._engine.defer(work * self._inv_rate, self._complete)


class VirtualMachine:
    """Egalitarian processor-sharing queue with a CPU-share-limited rate.

    Models one per-type VM: ``rate = phi * C * mu_k`` work units per time
    unit split equally among resident jobs.  Event complexity is O(n) per
    arrival/departure, which is ample for validation-scale runs.
    """

    def __init__(self, engine: Engine, rate: float,
                 stats: Optional[SojournStats] = None):
        check_positive(rate, "rate")
        self._engine = engine
        self._rate = float(rate)
        self._jobs: List[_Job] = []
        self._stats = stats if stats is not None else SojournStats()
        self._last_update = engine.now
        self._completion_event: Optional[Event] = None
        self._next_id = 0

    @property
    def stats(self) -> SojournStats:
        """Sojourn-time statistics recorder."""
        return self._stats

    @property
    def queue_length(self) -> int:
        """Jobs currently sharing the VM."""
        return len(self._jobs)

    def _advance_work(self) -> None:
        """Drain work accrued since the last state change."""
        now = self._engine.now
        if self._jobs:
            per_job = (now - self._last_update) * self._rate / len(self._jobs)
            for job in self._jobs:
                job.remaining_work = max(0.0, job.remaining_work - per_job)
        self._last_update = now

    def _reschedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._jobs:
            return
        min_job = min(self._jobs, key=lambda j: j.remaining_work)
        time_to_finish = min_job.remaining_work * len(self._jobs) / self._rate
        self._completion_event = self._engine.schedule(
            time_to_finish, lambda: self._complete(min_job.job_id)
        )

    def _complete(self, job_id: int) -> None:
        self._advance_work()
        for idx, job in enumerate(self._jobs):
            if job.job_id == job_id:
                self._stats.record(job.arrival_time, self._engine.now)
                del self._jobs[idx]
                break
        self._completion_event = None
        self._reschedule_completion()

    def arrive(self, work: float) -> None:
        """Admit a job with ``work`` exponential work units."""
        self._advance_work()
        self._jobs.append(_Job(self._next_id, self._engine.now, float(work)))
        self._next_id += 1
        self._reschedule_completion()


def processor_sharing_departures(
    arrival_times: Sequence[float], works: Sequence[float], rate: float
) -> Tuple[List[float], List[float]]:
    """Run one egalitarian processor-sharing queue until it drains.

    ``arrival_times`` (non-decreasing, from time 0) and ``works`` give
    every job; ``rate`` is the VM's work rate.  Returns ``(arrived,
    departed)``: each job's arrival and departure time, in completion
    order — exactly what :class:`VirtualMachine` would record.
    """
    check_positive(rate, "rate")
    rate = float(rate)
    arrived: List[float] = []
    departed: List[float] = []
    remaining: List[float] = []  # resident jobs' work, in arrival order
    born: List[float] = []  # resident jobs' arrival times
    last = 0.0  # time of the last work drain
    finish = 0.0  # time of the pending completion (while jobs reside)
    pick = 0  # index of the job that completion removes
    by_arrival = False  # whether the latest arrival scheduled it
    # A last "arrival" at +inf lets every resident finish; it is never
    # admitted.
    for now, work in zip(chain(arrival_times, (_INF,)), chain(works, (0.0,))):
        while remaining and (finish < now or (finish == now and by_arrival)):
            n = len(remaining)
            if n > 1:  # a lone job's drained work is never read again
                per_job = (finish - last) * rate / n
                # Equals max(0.0, r - per_job) bit for bit, with no call.
                remaining = [r - per_job if r > per_job else 0.0
                             for r in remaining]
            last = finish
            arrived.append(born.pop(pick))
            departed.append(finish)
            del remaining[pick]
            if remaining:
                least = min(remaining)
                pick = remaining.index(least)
                finish = finish + least * (n - 1) / rate
            by_arrival = False
        if now == _INF:
            break
        n = len(remaining)
        if n:
            per_job = (now - last) * rate / n
            remaining = [r - per_job if r > per_job else 0.0
                         for r in remaining]
        last = now
        remaining.append(work)
        born.append(now)
        least = min(remaining)
        pick = remaining.index(least)
        finish = now + least * (n + 1) / rate
        by_arrival = True
    return arrived, departed


class ProcessorSharingServer:
    """A physical server hosting per-request-type VMs.

    Parameters
    ----------
    engine:
        The event engine.
    capacity:
        Normalized capacity ``C`` of the server.
    service_rates:
        ``(K,)`` array of full-capacity per-type rates ``mu_k``.
    shares:
        ``(K,)`` array of CPU shares ``phi_k`` with ``sum(phi) <= 1``;
        classes with zero share host no VM and reject arrivals.
    """

    def __init__(self, engine: Engine, capacity: float,
                 service_rates: np.ndarray, shares: np.ndarray):
        check_positive(capacity, "capacity")
        rates = np.asarray(service_rates, dtype=float)
        shares_arr = np.asarray(shares, dtype=float)
        if rates.shape != shares_arr.shape:
            raise ValueError("service_rates and shares must have the same shape")
        if np.any(shares_arr < 0):
            raise ValueError("shares must be non-negative")
        if shares_arr.sum() > 1.0 + 1e-9:
            raise ValueError(f"shares sum to {shares_arr.sum():.6f} > 1")
        self._vms: Dict[int, VirtualMachine] = {}
        for k, (mu, phi) in enumerate(zip(rates, shares_arr)):
            if phi > 0:
                self._vms[k] = VirtualMachine(engine, rate=float(phi * capacity * mu))

    @property
    def active_classes(self) -> List[int]:
        """Class indices with a live VM."""
        return sorted(self._vms)

    def vm(self, k: int) -> VirtualMachine:
        """The VM for class ``k`` (KeyError if no share was allocated)."""
        return self._vms[k]

    def arrive(self, k: int, work: float) -> bool:
        """Offer one class-``k`` job; False if there is no VM for ``k``."""
        vm = self._vms.get(k)
        if vm is None:
            return False
        vm.arrive(work)
        return True
