"""Whole-cluster discrete-event simulation of a dispatch plan.

The paper evaluates plans analytically: utility is earned at the
*expected* M/M/1 delay (Eq. 1).  This module closes the loop by actually
*running* a plan: every active (class, server) VM is instantiated as a
processor-sharing queue, Poisson arrivals are generated at the planned
per-(front-end, server) rates, and each job's realized sojourn time is
recorded.

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

from repro.des.engine import Engine

if TYPE_CHECKING:  # avoid the core->queueing->des->core import cycle
    from repro.core.plan import DispatchPlan
from repro.des.measurements import SojournStats
from repro.des.processes import PoissonArrivals
from repro.des.server import VirtualMachine
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


class _RecordingVM(VirtualMachine):
    """A VM that also keeps raw sojourns for per-job accounting."""

    def __init__(self, engine: Engine, rate: float):
        super().__init__(engine, rate, stats=SojournStats(keep_raw=True))


class ClusterSimulation:
    """Event-driven simulation of one plan over one slot.

    Parameters
    ----------
    plan:
        The dispatch plan to execute.
    slot_duration:
        Simulated horizon (same time unit as the plan's rates).
    seed:
        Root seed; every (class, server) arrival stream is independent.
    warmup_fraction:
        Leading fraction of the horizon excluded from the sojourn means
        used in the ``mean_delay`` accounting (revenue/cost counts still
        include all completed jobs).
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
        engine = Engine()
        loads = plan.server_loads()  # (K, N)
        service = plan.server_service_rates()  # (K, N)
        horizon = self.slot_duration
        warmup = self.warmup_fraction * horizon

        vms: Dict[Tuple[int, int], _RecordingVM] = {}
        generators: List[PoissonArrivals] = []
        for k in range(topo.num_classes):
            for n in range(topo.num_servers):
                lam = float(loads[k, n])
                share = float(plan.shares[k, n])
                if lam <= 0 or share <= 0:
                    continue
                vm = _RecordingVM(engine, rate=share * service[k, n])
                vm.stats.warmup_time = warmup
                vms[(k, n)] = vm
                generators.append(PoissonArrivals(
                    engine, rate=lam, sink=vm.arrive,
                    seed=self._streams.stream(f"arrivals-{k}-{n}"),
                    stop_time=horizon,
                ))
        engine.run_until(horizon)
        # Let in-flight jobs drain (bounded residual work).
        engine.run(max_events=1_000_000)

        revenue_mean = 0.0
        revenue_jobs = 0.0
        completed = 0
        generated = sum(g.generated for g in generators)
        mean_sojourn: Dict[Tuple[int, int], float] = {}
        predicted: Dict[Tuple[int, int], float] = {}
        analytic = plan.delays()
        for (k, n), vm in vms.items():
            tuf = topo.request_classes[k].tuf
            raw = np.asarray(vm.stats.raw)
            if raw.size:
                revenue_jobs += float(np.sum(tuf.utility(raw)))
                completed += int(raw.size)
            if vm.stats.count:
                mean_sojourn[(k, n)] = vm.stats.mean
                predicted[(k, n)] = float(analytic[k, n])
                revenue_mean += float(tuf.utility(vm.stats.mean)) * raw.size

        # Costs follow realized *generated* traffic (every dispatched
        # request is transferred and processed, utility or not).
        per_pair_counts = {
            key: generators[i].generated
            for i, key in enumerate(vms.keys())
        }
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
            generated=generated,
            mean_sojourn=mean_sojourn,
            predicted_sojourn=predicted,
        )


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
