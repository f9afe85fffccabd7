"""Analytic-vs-simulation validation helpers.

These helpers run the :mod:`repro.des` simulator against the paper's
analytic M/M/1 delay model (Eq. 1) and report the discrepancy.  They are
used by the test suite and by the model-validation example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

from repro.queueing.mm1 import mm1_mean_delay
from repro.utils.validation import check_positive

# The simulator lives two layers up (queueing is a leaf domain model,
# des is an engine — see AR010); it is pulled in lazily only when a
# validation run actually simulates.
if TYPE_CHECKING:
    from repro.des.measurements import SojournStats

__all__ = ["DelayComparison", "simulate_mm1", "compare_with_des"]

Discipline = Literal["fcfs", "ps"]


@dataclass(frozen=True)
class DelayComparison:
    """Analytic vs simulated mean delay for one queue configuration."""

    service_rate: float
    arrival_rate: float
    analytic_mean: float
    simulated_mean: float
    simulated_stderr: float
    samples: int

    @property
    def relative_error(self) -> float:
        """|simulated - analytic| / analytic."""
        if self.analytic_mean == 0:
            return float("inf")
        return abs(self.simulated_mean - self.analytic_mean) / self.analytic_mean


def simulate_mm1(
    service_rate: float,
    arrival_rate: float,
    horizon: float,
    seed: int = 0,
    discipline: Discipline = "ps",
    warmup_fraction: float = 0.1,
) -> "SojournStats":
    """Simulate one M/M/1 queue and return its sojourn statistics.

    Parameters
    ----------
    service_rate:
        Effective rate ``phi * C * mu`` of the VM (or FCFS server).
    arrival_rate:
        Poisson arrival rate; must keep the queue stable.
    horizon:
        Simulated duration.
    discipline:
        "ps" for the processor-sharing VM (the paper's virtualization
        model) or "fcfs" for the classic single queue.
    warmup_fraction:
        Fraction of the horizon discarded as warmup.

    A PS run needs no event engine: the queue is one VM, so it runs in
    :func:`~repro.des.server.processor_sharing_departures`, the same
    heap-free loop :func:`~repro.des.cluster.simulate_plan` runs each VM
    in, on the same realization an engine-driven run would draw.
    """
    from repro.des.engine import Engine
    from repro.des.measurements import SojournStats
    from repro.des.processes import PoissonArrivals, draw_poisson_arrivals
    from repro.des.server import FCFSQueueServer, processor_sharing_departures

    check_positive(service_rate, "service_rate")
    check_positive(arrival_rate, "arrival_rate")
    check_positive(horizon, "horizon")
    if arrival_rate >= service_rate:
        raise ValueError(
            f"unstable queue: arrival_rate {arrival_rate} >= service_rate {service_rate}"
        )
    stats = SojournStats(warmup_time=warmup_fraction * horizon)
    if discipline == "fcfs":
        engine = Engine()
        server = FCFSQueueServer(engine, rate=service_rate, stats=stats)
        PoissonArrivals(engine, rate=arrival_rate, sink=server.arrive,
                        seed=seed, stop_time=horizon)
        engine.run()
    elif discipline == "ps":
        times, works = draw_poisson_arrivals(arrival_rate, horizon, seed)
        for arrived, departed in zip(*processor_sharing_departures(
                times.tolist(), works.tolist(), service_rate)):
            stats.record(arrived, departed)
    else:
        raise ValueError(f"unknown discipline {discipline!r}")
    return stats


def compare_with_des(
    service_rate: float,
    arrival_rate: float,
    horizon: float = 2000.0,
    seed: int = 0,
    discipline: Discipline = "ps",
) -> DelayComparison:
    """Compare Eq. 1's prediction against a DES measurement."""
    stats = simulate_mm1(service_rate, arrival_rate, horizon, seed, discipline)
    return DelayComparison(
        service_rate=service_rate,
        arrival_rate=arrival_rate,
        analytic_mean=mm1_mean_delay(service_rate, arrival_rate),
        simulated_mean=stats.mean,
        simulated_stderr=stats.stderr,
        samples=stats.count,
    )
