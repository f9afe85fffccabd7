"""The streaming control loop: sub-slot ticks, policy-driven actions.

:class:`StreamingController` runs any
:class:`~repro.core.controller.Dispatcher` under a
:class:`~repro.stream.policy.ControlPolicy` over a tick stream produced
by :class:`~repro.stream.events.TraceEventSource`.  Each tick it

1. forms the planning estimate (oracle slot truth, or the online
   estimator bank's sliding-window rate),
2. sheds load beyond the fleet's deadline-safe capacity (MD043),
3. asks the policy to hold / repair / resolve,
4. executes the action (a failed repair escalates to a full solve),
5. scores the standing plan against the *true* tick arrivals with
   :func:`~repro.core.objective.evaluate_plan` — which is linear in
   duration, so per-tick outcomes sum exactly to per-slot outcomes,
6. feeds the observation into the estimator bank.

Each stage runs under a collector timer — ``stream.margin``,
``stream.repair``, ``stream.plan_slot`` and ``stream.score`` (the
arrival cap plus :func:`~repro.core.objective.evaluate_plan`) — so a
bench record or trace shows where a tick's time went; under the default
``NULL_COLLECTOR`` each timer is a shared no-op.

Per-slot aggregates are emitted as the same
:class:`~repro.core.controller.SlotRecord` the slotted controller
yields, so downstream tooling (ledgers, tables, traces) works
unchanged; streaming-specific counters land on the collector under the
``stream.`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.controller import (
    Dispatcher,
    SlotRecord,
    _cap_to_arrivals,
)
from repro.core.objective import NetProfitBreakdown, evaluate_plan
from repro.core.plan import DispatchPlan
from repro.market.market import MultiElectricityMarket
from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.stream.admission import deadline_safe_capacity, shed_to_capacity
from repro.stream.estimators import RateEstimatorBank
from repro.stream.events import TraceEventSource
from repro.stream.policy import ControlAction, ControlContext, ControlPolicy
from repro.stream.repair import plan_margin, repair_plan
from repro.utils.rng import SeedLike
from repro.workload.traces import WorkloadTrace

__all__ = ["StreamingController", "StreamingResult"]

_ESTIMATION_MODES = ("oracle", "online")

#: Denominator floor for the estimate-vs-planned deviation signal.
_RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of one streaming run."""

    policy: str
    records: List[SlotRecord] = field(repr=False)
    ticks: int = 0
    #: Full warm-started ``plan_slot`` solves (including escalations).
    full_solves: int = 0
    #: Successful in-place plan repairs.
    repairs: int = 0
    #: Repairs whose coverage fell short and escalated to a solve.
    repair_escalations: int = 0
    #: Estimator drift events observed during the run.
    drift_events: int = 0
    #: Requests turned away by admission control (rate x duration).
    shed_requests: float = 0.0
    #: Mean relative L1 error of the planning estimate vs observations.
    estimator_rel_error: float = 0.0

    @property
    def num_slots(self) -> int:
        return len(self.records)

    @property
    def net_profit_series(self) -> np.ndarray:
        return np.array([r.outcome.net_profit for r in self.records])

    @property
    def total_net_profit(self) -> float:
        return float(self.net_profit_series.sum())


class StreamingController:
    """Policy-driven sub-slot control loop over a workload trace.

    Parameters
    ----------
    dispatcher:
        Any :class:`~repro.core.controller.Dispatcher`; a warm-started
        :class:`~repro.core.optimizer.ProfitAwareOptimizer` makes the
        frequent re-solves cheap.
    trace / market:
        Same workload/market pair the slotted controller takes.
    policy:
        When-to-act strategy (see :mod:`repro.stream.policy`).
    ticks_per_slot / synthesis / seed:
        Forwarded to :class:`~repro.stream.events.TraceEventSource`.
    estimation:
        ``"oracle"`` plans on the true slot-average rates (the
        slotted-equivalence configuration); ``"online"`` plans on the
        estimator bank's sliding-window rate.
    admission:
        When True (default), offered load beyond the MD043
        deadline-safe capacity is shed before planning.
    repair_margin:
        Minimum :class:`~repro.stream.repair.RepairOutcome` coverage
        for a repair to stand; below it the controller escalates to a
        full solve.
    estimators:
        Optional pre-configured :class:`RateEstimatorBank` (a default
        bank is built otherwise).
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        trace: WorkloadTrace,
        market: MultiElectricityMarket,
        policy: ControlPolicy,
        *,
        ticks_per_slot: int = 12,
        synthesis: str = "fluid",
        seed: SeedLike = 0,
        estimation: str = "oracle",
        admission: bool = True,
        repair_margin: float = 0.98,
        apply_pue: bool = False,
        collector: Optional[Collector] = None,
        estimators: Optional[RateEstimatorBank] = None,
    ) -> None:
        if estimation not in _ESTIMATION_MODES:
            raise ValueError(
                f"estimation must be one of {_ESTIMATION_MODES} "
                f"(got {estimation!r})"
            )
        if not 0.0 < repair_margin <= 1.0:
            raise ValueError(
                f"repair_margin must be in (0, 1] (got {repair_margin})"
            )
        self.dispatcher = dispatcher
        self.trace = trace
        self.market = market
        self.policy = policy
        self.estimation = estimation
        self.admission = admission
        self.repair_margin = float(repair_margin)
        self.apply_pue = apply_pue
        self.collector = collector if collector is not None else NULL_COLLECTOR
        self.source = TraceEventSource(
            trace, ticks_per_slot=ticks_per_slot,
            synthesis=synthesis, seed=seed,
        )
        shape = (trace.num_classes, trace.num_frontends)
        self.estimators = estimators if estimators is not None \
            else RateEstimatorBank(shape)
        topology = getattr(dispatcher, "topology", None)
        self._safe_capacity = (
            deadline_safe_capacity(topology) if topology is not None else None
        )

    @staticmethod
    def _deviation(estimate: np.ndarray, planned: np.ndarray) -> float:
        return float(
            np.abs(estimate - planned).sum()
            / max(float(planned.sum()), _RATE_FLOOR)
        )

    def _estimate(self, observed: np.ndarray,
                  truth: np.ndarray) -> np.ndarray:
        if self.estimation == "oracle":
            return truth
        if self.estimators.initialized:
            return self.estimators.rate
        return observed

    def run(self, num_slots: Optional[int] = None) -> StreamingResult:
        """Run the streaming loop and return per-slot records + counters."""
        collector = self.collector
        self.policy.reset()
        self.estimators.reset()
        reset = getattr(self.dispatcher, "reset_warm_state", None)
        if callable(reset):
            reset()

        plan: Optional[DispatchPlan] = None
        planned_for: Optional[np.ndarray] = None
        drift_pending = False
        full_solves = repairs = escalations = drift_events = ticks = 0
        shed_requests = 0.0
        error_sum = 0.0
        error_samples = 0

        records: List[SlotRecord] = []
        slot_outcomes: List[NetProfitBreakdown] = []
        slot_truth: List[np.ndarray] = []
        current_slot = -1
        current_prices = np.zeros(0)

        def flush_slot() -> None:
            if not slot_outcomes:
                return
            assert plan is not None
            combined = _sum_outcomes(slot_outcomes, self.trace.slot_duration)
            records.append(SlotRecord(
                slot=current_slot,
                plan=plan,
                outcome=combined,
                prices=current_prices,
                arrivals=np.mean(slot_truth, axis=0),
            ))
            slot_outcomes.clear()
            slot_truth.clear()

        for batch in self.source.events(num_slots):
            if batch.slot != current_slot:
                flush_slot()
                current_slot = batch.slot
                current_prices = self.market.prices_at(batch.slot)

            estimate = self._estimate(batch.rates, batch.true_rates)
            if self.admission and self._safe_capacity is not None:
                admitted, shed = shed_to_capacity(
                    estimate, self._safe_capacity
                )
                shed_now = float(shed.sum()) * batch.duration
                if shed_now > 0.0:
                    shed_requests += shed_now
                    collector.increment("stream.shed_requests", shed_now)
            else:
                admitted = estimate

            sla_margin = 1.0
            if plan is not None:
                with collector.timer("stream.margin"):
                    sla_margin = plan_margin(plan, admitted)
            ctx = ControlContext(
                tick=batch.tick,
                slot=batch.slot,
                tick_in_slot=batch.tick_in_slot,
                slot_start=batch.slot_start,
                estimate=admitted,
                planned=planned_for,
                has_plan=plan is not None,
                drift=drift_pending,
                deviation=(
                    self._deviation(admitted, planned_for)
                    if planned_for is not None else float("inf")
                ),
                sla_margin=sla_margin,
            )
            action = self.policy.decide(ctx)
            drift_pending = False

            if action.kind == "repair" and plan is not None:
                with collector.timer("stream.repair"):
                    outcome = repair_plan(plan, admitted)
                if outcome.coverage >= self.repair_margin:
                    plan = outcome.plan
                    planned_for = admitted
                    repairs += 1
                    collector.increment("stream.repairs")
                else:
                    escalations += 1
                    collector.increment("stream.repair_escalations")
                    action = ControlAction.resolve(
                        f"repair coverage {outcome.coverage:.3f} < "
                        f"{self.repair_margin:g}"
                    )
            if action.kind == "resolve" or plan is None:
                with collector.timer("stream.plan_slot"):
                    plan = self.dispatcher.plan_slot(
                        admitted, current_prices,
                        slot_duration=self.trace.slot_duration,
                    )
                planned_for = admitted
                full_solves += 1
                collector.increment("stream.resolves")

            with collector.timer("stream.score"):
                scored = _cap_to_arrivals(plan, batch.true_rates)
                tick_outcome = evaluate_plan(
                    scored, batch.true_rates, current_prices,
                    slot_duration=batch.duration, apply_pue=self.apply_pue,
                )
            slot_outcomes.append(tick_outcome)
            slot_truth.append(batch.true_rates)

            drifted = self.estimators.observe(batch.rates)
            if drifted:
                drift_pending = True
                drift_events += 1
                collector.increment("stream.drift_events")
            if self.estimators.ticks > 1:
                error_sum += self.estimators.last_rel_error
                error_samples += 1
                collector.observe(
                    "stream.estimator_rel_error",
                    self.estimators.last_rel_error,
                )
            ticks += 1
            collector.increment("stream.ticks")

        flush_slot()
        return StreamingResult(
            policy=self.policy.name,
            records=records,
            ticks=ticks,
            full_solves=full_solves,
            repairs=repairs,
            repair_escalations=escalations,
            drift_events=drift_events,
            shed_requests=shed_requests,
            estimator_rel_error=(
                error_sum / error_samples if error_samples else 0.0
            ),
        )


def _sum_outcomes(
    outcomes: List[NetProfitBreakdown], slot_duration: float
) -> NetProfitBreakdown:
    """Sum per-tick breakdowns into one per-slot breakdown.

    Dollar figures and kWh add directly; rate vectors combine as
    duration-weighted means so the slot record reports slot-average
    rates, matching the slotted controller's convention.
    """
    total_duration = sum(o.slot_duration for o in outcomes)
    weight = np.array([o.slot_duration for o in outcomes])
    weight = weight / max(total_duration, 1e-300)
    served = np.sum(
        [w * o.served_rates for w, o in zip(weight, outcomes)], axis=0
    )
    offered = np.sum(
        [w * o.offered_rates for w, o in zip(weight, outcomes)], axis=0
    )
    dc_loads = np.sum(
        [w * o.dc_loads for w, o in zip(weight, outcomes)], axis=0
    )
    return NetProfitBreakdown(
        revenue=float(sum(o.revenue for o in outcomes)),
        energy_cost=float(sum(o.energy_cost for o in outcomes)),
        transfer_cost=float(sum(o.transfer_cost for o in outcomes)),
        served_rates=served,
        offered_rates=offered,
        dc_loads=dc_loads,
        energy_kwh=float(sum(o.energy_kwh for o in outcomes)),
        slot_duration=slot_duration,
        idle_cost=float(sum(o.idle_cost for o in outcomes)),
    )
