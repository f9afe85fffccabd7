"""The three benchmark workloads.

Each workload builds its inputs from a seed in its constructor (the
set-up the benchmark times), then runs *passes*: one pass drives the
program over the workload's fixed input set in a closed loop, timing
every operation from outside and checking every output.  Every pass of
a run sees identical inputs, so every pass must report identical profit
and counts.

Day ``i`` of a run is ``section6_experiment(seed=seed + i)``; the days
are concatenated into one trace so warm solver state chains across them
exactly as it does across the slots of one day.  The §VI market carries
no seed and wraps every 24 slots, so all days share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

import numpy as np
import scipy.optimize
import scipy.optimize._linprog_highs as linprog_highs

import repro.utils.validation as validation
from repro.core.controller import SlottedController
from repro.core.formulation import FixedLevelLPCache
from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.plan import DispatchPlan
from repro.des import cluster
from repro.experiments.section6 import section6_experiment
from repro.solvers.linprog import solve_lp
from repro.stream import DriftTriggered, StreamingController
from repro.stream import controller as stream_controller
from repro.workload.traces import WorkloadTrace

from calibrate import HostSpeed
from tracing import Rebinder, Tracer

DAYS = 4
SLOTS_PER_DAY = 24
TICKS_PER_SLOT = 12
#: Simulated horizon of one DES slot, in hours (the §VI rate unit).
DES_HORIZON_H = 0.02
DES_SLOTS = (0, 6, 12, 18)
#: Relative slack for the plan checks (dispatch vs arrivals, CPU shares).
CHECK_TOL = 1e-6
#: Per-day profit agreement with the simplex reference.
REFERENCE_RTOL = 1e-6
#: Generated DES arrivals must lie within this many sigma of lambda*h.
ARRIVAL_SIGMAS = 5.0


@dataclass
class PassResult:
    """What one pass measured and checked."""

    op_times: List[float] = field(default_factory=list)
    #: Positions (op index within a pass) of the ops that raised or
    #: failed a check, and of the ops an abort left unreached.
    failed_ops: Set[int] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    profit: float = 0.0
    #: Deterministic counts; must repeat exactly across passes and runs.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Requests the pass handled (offered, or simulated for the DES).
    requests: float = 0.0
    #: Ungated diagnostics printed next to the metrics.
    notes: Dict[str, float] = field(default_factory=dict)
    day_profits: List[float] = field(default_factory=list)

    def fail(self, message: str, *ops: int) -> None:
        self.failed_ops.update(ops)
        if len(self.errors) < 5:
            self.errors.append(message)

    def abort(self, message: str, op: int, ops_per_pass: int) -> None:
        """Op ``op`` raised and ended the pass: it and every later op fail."""
        self.fail(message, *range(op, ops_per_pass))


def section6_days(seed: int):
    """``(first day's experiment, DAYS-day concatenated trace)``."""
    days = [section6_experiment(seed=seed + i) for i in range(DAYS)]
    trace = WorkloadTrace(
        np.concatenate([day.trace.rates for day in days], axis=2),
        days[0].trace.slot_duration,
    )
    return days[0], trace


def install_slot_path(rb: Rebinder, tracer: Tracer,
                      optimizer: Optional[ProfitAwareOptimizer]) -> None:
    """Span wrappers shared by every workload that plans or scores slots."""
    wrap = tracer.wrap
    counts = tracer.counts
    if optimizer is not None:
        plan_slot = optimizer.plan_slot

        def counted_plan_slot(*args, **kwargs):
            plan = plan_slot(*args, **kwargs)
            stats = optimizer.last_stats
            counts["optimizer.fallbacks"] += stats.fallback_level > 0
            counts["solvers.iterations"] += stats.iterations
            counts["solvers.warm_offered"] += \
                stats.warm_outcome in ("hit", "miss")
            counts["solvers.warm_used"] += stats.warm_outcome == "hit"
            return plan

        rb.set(optimizer, "plan_slot",
               wrap(counted_plan_slot, "optimizer.plan_slot"))
    rb.set(FixedLevelLPCache, "build", wrap(
        FixedLevelLPCache.build, "formulation.build",
        on_return=lambda built: (built[0],
                                 wrap(built[1], "optimizer.decode")),
    ))
    rb.everywhere(solve_lp, wrap(solve_lp, "solvers.solve_lp"))
    rb.set(scipy.optimize, "linprog",
           wrap(scipy.optimize.linprog, "solvers.linprog"))
    if hasattr(linprog_highs, "_highs_wrapper"):
        rb.set(linprog_highs, "_highs_wrapper",
               wrap(linprog_highs._highs_wrapper, "solvers.highs"))
    rb.set(DispatchPlan, "with_spare_capacity_distributed", wrap(
        DispatchPlan.with_spare_capacity_distributed, "plan.spare_capacity"))
    rb.set(DispatchPlan, "__init__",
           wrap(DispatchPlan.__init__, "plan.construct"))
    for name in dir(validation):
        if name.startswith("check_"):
            original = getattr(validation, name)
            rb.everywhere(original, wrap(original, "validation"),
                          skip=validation.__name__)
    rb.everywhere(evaluate_plan, wrap(evaluate_plan, "objective.evaluate"))


class SlotWorkload:
    """``paper_day``: the slotted controller over 4 days."""

    op_span = "controller"
    latency = True

    def __init__(self, seed: int) -> None:
        exp, self.trace = section6_days(seed)
        self.market = exp.market
        self.topology = exp.topology
        self.optimizer = ProfitAwareOptimizer(self.topology,
                                              config=OptimizerConfig())
        self.ops_per_pass = self.trace.num_slots
        self.requests = float(self.trace.rates.sum()
                              * self.trace.slot_duration)

    def install(self, rb: Rebinder, tracer: Tracer) -> None:
        install_slot_path(rb, tracer, self.optimizer)

    def run_pass(self, tracer: Optional[Tracer] = None,
                 host: Optional[HostSpeed] = None) -> PassResult:
        out = PassResult()
        optimizer = self.optimizer
        optimizer.reset_warm_state()
        records = SlottedController(optimizer, self.trace,
                                    self.market).iter_slots()
        day_profits = [0.0] * DAYS
        fallbacks = iterations = 0
        while True:
            slot = len(out.op_times)
            if host is not None:
                host.between_ops(slot)
            if tracer is not None:
                tracer.op += 1
                tracer.begin(self.op_span)
            start = perf_counter()
            try:
                record = next(records)
            except StopIteration:
                break
            except Exception as exc:  # a failed op; the pass cannot go on
                out.abort(f"slot {slot}: {exc!r}", slot, self.ops_per_pass)
                break
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.end()
            out.op_times.append(elapsed)
            if tracer is not None:
                tracer.pause()
            stats = optimizer.last_stats
            fallbacks += stats.fallback_level > 0
            iterations += stats.iterations
            problem = self._check(record, stats.fallback_level)
            if problem:
                out.fail(f"slot {slot}: {problem}", slot)
            day_profits[record.slot // SLOTS_PER_DAY] += \
                record.outcome.net_profit
            if tracer is not None:
                tracer.resume()
        out.day_profits = day_profits
        out.profit = sum(day_profits)
        out.counts = {"slots": len(out.op_times), "fallbacks": fallbacks,
                      "iterations": iterations}
        out.requests = self.requests
        return out

    @staticmethod
    def _check(record, fallback_level: int) -> str:
        plan = record.plan
        if fallback_level > 0:
            return f"fallback level {fallback_level}"
        if not plan.meets_deadlines():
            return "plan misses a deadline"
        dispatched = plan.rates.sum(axis=2)
        if np.any(dispatched > record.arrivals * (1 + CHECK_TOL) + CHECK_TOL):
            return "dispatch above arrivals"
        if np.any(plan.shares.sum(axis=0) > 1 + CHECK_TOL):
            return "CPU shares above 1 on a server"
        return ""

    def reference_check(self, result: PassResult) -> PassResult:
        """Each day's profit against the repo's own simplex backend; a day
        that misses fails all of its slots."""
        out = PassResult()
        reference = ProfitAwareOptimizer(
            self.topology, config=OptimizerConfig(lp_method="simplex"))
        day_profits = [0.0] * DAYS
        try:
            for record in SlottedController(reference, self.trace,
                                            self.market).iter_slots():
                day_profits[record.slot // SLOTS_PER_DAY] += \
                    record.outcome.net_profit
        except Exception as exc:
            out.fail(f"simplex reference: {exc!r}",
                     *range(self.ops_per_pass))
            return out
        worst = 0.0
        for day, (got, want) in enumerate(zip(result.day_profits,
                                              day_profits)):
            rel = abs(got - want) / max(abs(want), 1.0)
            worst = max(worst, rel)
            if rel > REFERENCE_RTOL:
                out.fail(f"day {day}: profit {got!r} vs simplex {want!r}",
                         *range(day * SLOTS_PER_DAY,
                                (day + 1) * SLOTS_PER_DAY))
        out.notes["reference_max_rel_diff"] = worst
        return out


class StreamWorkload:
    """``stream_day``: drift-triggered streaming control, online estimates."""

    latency = True

    def __init__(self, seed: int) -> None:
        exp, trace = section6_days(seed)
        self.optimizer = ProfitAwareOptimizer(exp.topology,
                                              config=OptimizerConfig())
        self.policy = DriftTriggered()
        self.controller = StreamingController(
            self.optimizer, trace, exp.market, self.policy,
            ticks_per_slot=TICKS_PER_SLOT, estimation="online",
        )
        self.ops_per_pass = trace.num_slots * TICKS_PER_SLOT
        self.requests = float(trace.rates.sum() * trace.slot_duration)

    def install(self, rb: Rebinder, tracer: Tracer) -> None:
        install_slot_path(rb, tracer, self.optimizer)
        wrap = tracer.wrap
        estimators = self.controller.estimators
        rb.set(estimators, "observe",
               wrap(estimators.observe, "stream.estimate"))
        rb.set(self.policy, "decide", wrap(self.policy.decide,
                                           "stream.decide"))
        for name, span in (("shed_to_capacity", "stream.admit"),
                           ("plan_margin", "stream.decide"),
                           ("repair_plan", "stream.repair")):
            rb.set(stream_controller, name,
                   wrap(getattr(stream_controller, name), span))

    def run_pass(self, tracer: Optional[Tracer] = None,
                 host: Optional[HostSpeed] = None) -> PassResult:
        out = PassResult()
        source = self.controller.source
        events = source.events
        times = out.op_times

        def timed_events(num_slots=None):
            batches = events(num_slots)
            while True:
                if host is not None:
                    host.between_ops(len(times))
                if tracer is not None:
                    tracer.op += 1
                    tracer.begin("stream.ingest")
                batch = next(batches, None)
                if tracer is not None:
                    tracer.end()
                if batch is None:
                    return
                if tracer is not None:
                    tracer.begin("stream.tick")
                start = perf_counter()
                try:
                    yield batch
                finally:
                    if tracer is not None:
                        tracer.end()
                times.append(perf_counter() - start)

        source.events = timed_events
        try:
            result = self.controller.run()
        except Exception as exc:  # the tick in flight failed
            tick = len(times)
            out.abort(f"tick {tick}: {exc!r}", tick, self.ops_per_pass)
            return out
        finally:
            del source.events
        if result.ticks != self.ops_per_pass:
            out.abort(f"{result.ticks} ticks, expected {self.ops_per_pass}",
                      len(times), self.ops_per_pass)
        out.profit = result.total_net_profit
        out.counts = {
            "ticks": result.ticks, "full_solves": result.full_solves,
            "repairs": result.repairs,
            "escalations": result.repair_escalations,
            "drift_events": result.drift_events,
        }
        out.requests = self.requests
        return out


class DesWorkload:
    """``des_slot``: §VI slots 0/6/12/18 of each day, simulated by the
    cluster DES."""

    op_span = "des.slot"
    latency = False

    def __init__(self, seed: int) -> None:
        exp, trace = section6_days(seed)
        optimizer = ProfitAwareOptimizer(exp.topology,
                                         config=OptimizerConfig())
        self.slots = []
        for day in range(DAYS):
            for j, t in enumerate(DES_SLOTS):
                slot = day * SLOTS_PER_DAY + t
                arrivals = trace.arrivals_at(slot)
                prices = exp.market.prices_at(slot)
                plan = optimizer.plan_slot(arrivals, prices,
                                           slot_duration=trace.slot_duration)
                planned = evaluate_plan(plan, arrivals, prices,
                                        slot_duration=DES_HORIZON_H).net_profit
                expected = float(plan.server_loads().sum()) * DES_HORIZON_H
                des_seed = (seed * DAYS + day) * len(DES_SLOTS) + j
                self.slots.append((plan, prices, des_seed, planned, expected))
        self.ops_per_pass = len(self.slots)
        # Count engine events: simulate_plan builds its Engine through
        # the ``Engine`` name in ``repro.des.cluster``.
        self.engines: List = []
        engines = self.engines

        class CountingEngine(cluster.Engine):
            def __init__(self) -> None:
                super().__init__()
                engines.append(self)

        self.engine_class = CountingEngine
        cluster.Engine = CountingEngine

    def install(self, rb: Rebinder, tracer: Tracer) -> None:
        install_slot_path(rb, tracer, None)
        wrap = tracer.wrap
        engine = self.engine_class
        rb.set(engine, "run_until", wrap(engine.run_until, "des.dispatch"))
        rb.set(engine, "run", wrap(engine.run, "des.drain"))
        rb.set(cluster.ClusterSimulation, "run", wrap(
            cluster.ClusterSimulation.run, "des.build_account"))

    def run_pass(self, tracer: Optional[Tracer] = None,
                 host: Optional[HostSpeed] = None) -> PassResult:
        out = PassResult()
        events = generated = completed = 0
        planned_total = model_error = 0.0
        for op, (plan, prices, des_seed, planned, expected) in \
                enumerate(self.slots):
            if host is not None:
                host.between_ops(len(out.op_times))
            self.engines.clear()
            if tracer is not None:
                tracer.op += 1
                tracer.begin(self.op_span)
            start = perf_counter()
            try:
                sim = cluster.simulate_plan(plan, prices, DES_HORIZON_H,
                                            seed=des_seed)
            except Exception as exc:
                out.fail(f"DES slot seed {des_seed}: {exc!r}", op)
                continue
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.end()
            out.op_times.append(elapsed)
            if tracer is not None:
                tracer.pause()
            events += sum(e.events_processed for e in self.engines)
            generated += sim.generated
            completed += sim.completed
            if sim.generated != sim.completed:
                out.fail(f"DES seed {des_seed}: generated {sim.generated} "
                         f"!= completed {sim.completed}", op)
            elif abs(sim.generated - expected) > \
                    ARRIVAL_SIGMAS * math.sqrt(expected):
                out.fail(f"DES seed {des_seed}: {sim.generated} arrivals, "
                         f"expected {expected:.1f}", op)
            out.profit += sim.net_profit_per_job
            planned_total += planned
            model_error = max(model_error, sim.max_delay_model_error)
            if tracer is not None:
                tracer.resume()
        out.counts = {"events": events, "generated": generated,
                      "completed": completed}
        out.requests = float(generated)
        out.notes = {
            "max_delay_model_error": model_error,
            "realized_over_planned": out.profit / planned_total,
        }
        return out


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "paper_day": SlotWorkload,
    "stream_day": StreamWorkload,
    "des_slot": DesWorkload,
}
