"""Whole-cluster discrete-event simulation of a dispatch plan.

The paper evaluates plans analytically: utility is earned at the
*expected* M/M/1 delay (Eq. 1).  This module closes the loop by actually
*running* a plan: every active (class, server) VM is instantiated as a
processor-sharing queue, Poisson arrivals are generated at the planned
per-(front-end, server) rates, and each job's realized sojourn time is
recorded.

The VMs share nothing — each has its own named RNG stream
(``arrivals-{k}-{n}``), its own queue and its own statistics — so each
is simulated on its own, with no global event heap: its arrivals are
drawn up front (:func:`~repro.des.processes.draw_poisson_arrivals`) and
its queue runs in one heap-free loop
(:func:`~repro.des.server.processor_sharing_departures`) until every
job has left.  That loop repeats :class:`~repro.des.server.VirtualMachine`'s
float operations and the engine's ``(time, seq)`` tie rule exactly, so
the outcome is bit-identical to driving every VM on one shared
:class:`~repro.des.engine.Engine` (pinned by
``tests/test_des_ps_loop.py``).  Each VM drains only its own residents,
so no cap on drain events is needed.

Two revenue accountings are produced:

* ``mean_delay`` — the paper's: per-VM utility evaluated at the measured
  *mean* sojourn, times the completed count;
* ``per_job`` — utility evaluated at each job's own sojourn time and
  summed.  For a step-downward TUF these differ (a VM whose mean sits
  just inside a sub-deadline still has a tail of jobs beyond it), which
  quantifies how optimistic the paper's mean-delay SLA accounting is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

# Not used here: perfbench's ``des_slot`` workload subclasses
# ``repro.des.cluster.Engine`` to count engine events, so the name must
# stay bound in this module (the count now reads 0).
from repro.des.engine import Engine  # noqa: F401

if TYPE_CHECKING:  # avoid the core->queueing->des->core import cycle
    from repro.core.plan import DispatchPlan
from repro.des.processes import draw_poisson_arrivals
from repro.des.server import processor_sharing_departures
from repro.utils.rng import RandomStreams
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["SimulatedSlotOutcome", "ClusterSimulation", "simulate_plan"]


@dataclass(frozen=True)
class SimulatedSlotOutcome:
    """Realized outcome of one simulated slot.

    Revenue figures are dollars over the slot; ``completed`` counts jobs
    that finished before the horizon.
    """

    revenue_mean_delay: float
    revenue_per_job: float
    energy_cost: float
    transfer_cost: float
    completed: int
    generated: int
    mean_sojourn: Dict[Tuple[int, int], float] = field(repr=False, default_factory=dict)
    predicted_sojourn: Dict[Tuple[int, int], float] = field(
        repr=False, default_factory=dict
    )

    @property
    def net_profit_mean_delay(self) -> float:
        """Net profit under the paper's mean-delay revenue accounting."""
        return self.revenue_mean_delay - self.energy_cost - self.transfer_cost

    @property
    def net_profit_per_job(self) -> float:
        """Net profit under per-job TUF accounting."""
        return self.revenue_per_job - self.energy_cost - self.transfer_cost

    @property
    def max_delay_model_error(self) -> float:
        """Worst relative |simulated - Eq.1| mean-sojourn error."""
        worst = 0.0
        for key, measured in self.mean_sojourn.items():
            predicted = self.predicted_sojourn.get(key)
            if predicted and predicted > 0:
                worst = max(worst, abs(measured - predicted) / predicted)
        return worst


class ClusterSimulation:
    """Simulation of one plan over one slot, one VM at a time.

    Parameters
    ----------
    plan:
        The dispatch plan to execute.
    slot_duration:
        Simulated horizon (same time unit as the plan's rates).
    seed:
        Root seed; every (class, server) arrival stream is independent.
    warmup_fraction:
        Leading fraction of the horizon whose arrivals are excluded from
        the sojourn means (``mean_sojourn`` and the utility level of the
        ``mean_delay`` accounting).  It trims nothing else: both
        revenues and ``completed`` count every completed job, as the
        costs count every generated one.  A VM none of whose completed
        jobs arrived after the warmup keeps the mean over all of them.
    """

    def __init__(
        self,
        plan: DispatchPlan,
        slot_duration: float,
        seed: Optional[int] = 0,
        warmup_fraction: float = 0.0,
    ):
        check_positive(slot_duration, "slot_duration")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.plan = plan
        self.slot_duration = float(slot_duration)
        self.warmup_fraction = float(warmup_fraction)
        self._streams = RandomStreams(seed)

    def run(self, prices: np.ndarray) -> SimulatedSlotOutcome:
        """Simulate the slot and return the realized outcome."""
        plan = self.plan
        topo = plan.topology
        prices = check_nonnegative(prices, "prices")
        if prices.shape != (topo.num_datacenters,):
            raise ValueError(
                f"prices must have shape {(topo.num_datacenters,)}"
            )
        loads = plan.server_loads()  # (K, N)
        service = plan.server_service_rates()  # (K, N)
        horizon = self.slot_duration
        warmup = self.warmup_fraction * horizon

        revenue_mean = 0.0
        revenue_jobs = 0.0
        completed = 0
        per_pair_counts: Dict[Tuple[int, int], int] = {}
        mean_sojourn: Dict[Tuple[int, int], float] = {}
        predicted: Dict[Tuple[int, int], float] = {}
        analytic = plan.delays()
        for k in range(topo.num_classes):
            tuf = topo.request_classes[k].tuf
            for n in range(topo.num_servers):
                lam = float(loads[k, n])
                share = float(plan.shares[k, n])
                if lam <= 0 or share <= 0:
                    continue
                times, works = draw_poisson_arrivals(
                    lam, horizon, self._streams.stream(f"arrivals-{k}-{n}"))
                arrived, departed = processor_sharing_departures(
                    times.tolist(), works.tolist(), share * service[k, n])
                per_pair_counts[(k, n)] = len(times)
                if not departed:
                    continue
                sojourns = np.subtract(departed, arrived)
                revenue_jobs += float(np.sum(tuf.utility(sojourns)))
                completed += int(sojourns.size)
                kept = sojourns[np.asarray(arrived) >= warmup]
                mean = _running_mean((kept if kept.size else sojourns).tolist())
                mean_sojourn[(k, n)] = mean
                predicted[(k, n)] = float(analytic[k, n])
                revenue_mean += float(tuf.utility(mean)) * sojourns.size

        # Costs follow realized *generated* traffic (every dispatched
        # request is transferred and processed, utility or not).
        energy_per_req = topo._energy_model.per_request_cost(prices)  # (K, L)
        transfer_per_req = topo._transfer_cost  # (K, S, L)
        dc_of = topo._dc_of_server
        energy_cost = 0.0
        transfer_cost = 0.0
        rates = plan.rates  # (K, S, N)
        for (k, n), count in per_pair_counts.items():
            l = int(dc_of[n])
            energy_cost += float(energy_per_req[k, l]) * count
            # Split the count over front-ends proportionally to the plan.
            total = rates[k, :, n].sum()
            if total > 0:
                weights = rates[k, :, n] / total
                transfer_cost += float(
                    (weights * transfer_per_req[k, :, l]).sum()
                ) * count

        return SimulatedSlotOutcome(
            revenue_mean_delay=revenue_mean,
            revenue_per_job=revenue_jobs,
            energy_cost=energy_cost,
            transfer_cost=transfer_cost,
            completed=completed,
            generated=sum(per_pair_counts.values()),
            mean_sojourn=mean_sojourn,
            predicted_sojourn=predicted,
        )


def _running_mean(values: List[float]) -> float:
    """Welford's running mean, in the order and float operations of
    :meth:`~repro.des.measurements.SojournStats.record`."""
    mean = 0.0
    count = 0
    for value in values:
        count += 1
        mean += (value - mean) / count
    return mean


def simulate_plan(
    plan: DispatchPlan,
    prices: np.ndarray,
    slot_duration: float,
    seed: Optional[int] = 0,
    warmup_fraction: float = 0.0,
) -> SimulatedSlotOutcome:
    """Convenience wrapper around :class:`ClusterSimulation`."""
    return ClusterSimulation(
        plan, slot_duration, seed=seed, warmup_fraction=warmup_fraction
    ).run(prices)
