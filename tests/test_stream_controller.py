"""Tests for the streaming control plane (repro.stream)."""

import numpy as np
import pytest

from repro.core.controller import SlottedController
from repro.experiments.section6 import section6_experiment
from repro.obs import InMemoryCollector
from repro.stream import (
    ControlAction,
    ControlContext,
    ControlPolicy,
    DriftTriggered,
    MarginTriggered,
    PeriodicResolve,
    StreamingController,
    deadline_safe_capacity,
    make_policy,
    repair_plan,
    shed_to_capacity,
)
from repro.workload.traces import WorkloadTrace

REL_TOL = 1e-6


@pytest.fixture(scope="module")
def section6():
    return section6_experiment()


def blockify(trace, block):
    """Piecewise-constant ("bursty") variant of a trace: each run of
    `block` slots repeats the first slot of the run."""
    idx = (np.arange(trace.num_slots) // block) * block
    return WorkloadTrace(trace.rates[:, :, idx], trace.slot_duration)


class TestSlottedEquivalence:
    """The ISSUE acceptance pin: PeriodicResolve streaming over the §VI
    day matches SlottedController slot for slot within 1e-6."""

    def test_periodic_streaming_matches_slotted(self, section6):
        exp = section6
        slotted = SlottedController(
            exp.optimizer(), exp.trace, exp.market
        ).run()
        streamed = StreamingController(
            exp.optimizer(), exp.trace, exp.market, PeriodicResolve(),
            ticks_per_slot=12,
        ).run()
        assert streamed.num_slots == len(slotted) == exp.trace.num_slots
        assert streamed.full_solves == exp.trace.num_slots
        assert streamed.repairs == 0
        for ref, got in zip(slotted, streamed.records):
            np.testing.assert_allclose(
                got.plan.rates, ref.plan.rates, rtol=REL_TOL, atol=1e-9
            )
            np.testing.assert_allclose(
                got.plan.shares, ref.plan.shares, rtol=REL_TOL, atol=1e-9
            )
            assert got.outcome.net_profit == pytest.approx(
                ref.outcome.net_profit, rel=REL_TOL
            )
            assert got.outcome.revenue == pytest.approx(
                ref.outcome.revenue, rel=REL_TOL
            )
            assert got.outcome.total_cost == pytest.approx(
                ref.outcome.total_cost, rel=REL_TOL, abs=1e-9
            )

    def test_tick_count_independence(self, section6):
        """Per-slot outcomes do not depend on the tick granularity
        (evaluate_plan is linear in duration)."""
        exp = section6
        coarse = StreamingController(
            exp.optimizer(), exp.trace, exp.market, PeriodicResolve(),
            ticks_per_slot=2,
        ).run(num_slots=6)
        fine = StreamingController(
            exp.optimizer(), exp.trace, exp.market, PeriodicResolve(),
            ticks_per_slot=24,
        ).run(num_slots=6)
        np.testing.assert_allclose(
            coarse.net_profit_series, fine.net_profit_series, rtol=REL_TOL
        )


class TestDriftTriggered:
    """Second half of the acceptance pin: on a bursty trace the drift
    policy performs strictly fewer full solves than periodic at equal
    or better realized profit."""

    def test_fewer_solves_equal_profit_on_bursty_trace(self, section6):
        exp = section6
        bursty = blockify(exp.trace, block=4)
        periodic = StreamingController(
            exp.optimizer(), bursty, exp.market, PeriodicResolve(),
            ticks_per_slot=12,
        ).run()
        drift = StreamingController(
            exp.optimizer(), bursty, exp.market, DriftTriggered(),
            ticks_per_slot=12,
        ).run()
        assert drift.full_solves < periodic.full_solves
        assert drift.total_net_profit >= periodic.total_net_profit \
            * (1.0 - REL_TOL)

    def test_holds_within_blocks(self, section6):
        exp = section6
        bursty = blockify(exp.trace, block=4)
        result = StreamingController(
            exp.optimizer(), bursty, exp.market, DriftTriggered(),
            ticks_per_slot=6,
        ).run(num_slots=8)
        # Deterministic under fluid synthesis: bootstrap, the block edge
        # at slot 4, and one drift-triggered re-solve inside the ramping
        # second block — far fewer than one solve per slot.
        assert result.full_solves == 3
        assert result.repairs == 0


class TestMarginTriggered:
    def test_runs_and_resolves_at_least_once(self, section6):
        exp = section6
        result = StreamingController(
            exp.optimizer(), exp.trace, exp.market, MarginTriggered(),
            ticks_per_slot=4,
        ).run(num_slots=6)
        assert result.full_solves >= 1
        assert result.num_slots == 6
        assert np.all(np.isfinite(result.net_profit_series))


class TestAdmissionControl:
    def test_safe_capacity_matches_md043_formula(self, section6):
        topo = section6.topology
        cap = deadline_safe_capacity(topo)
        mu = topo.service_rates
        expected = np.zeros(topo.num_classes)
        for k, rc in enumerate(topo.request_classes):
            deadline = rc.deadline * (1.0 - 1e-6)
            for l in range(topo.num_datacenters):
                per = topo.server_capacities[l] * mu[k, l] - 1.0 / deadline
                expected[k] += topo.servers_per_datacenter[l] * max(0.0, per)
        np.testing.assert_allclose(cap, expected)

    def test_shed_proportional_across_frontends(self):
        arrivals = np.array([[60.0, 40.0], [10.0, 10.0]])
        capacity = np.array([50.0, 100.0])
        admitted, shed = shed_to_capacity(arrivals, capacity)
        np.testing.assert_allclose(admitted[0], [30.0, 20.0])
        np.testing.assert_allclose(admitted[1], [10.0, 10.0])
        np.testing.assert_allclose(shed, [50.0, 0.0])

    def test_no_shed_under_capacity_is_identity(self):
        arrivals = np.array([[6.0, 4.0]])
        admitted, shed = shed_to_capacity(arrivals, np.array([100.0]))
        np.testing.assert_array_equal(admitted, arrivals)
        assert shed[0] == 0.0

    def test_overload_is_shed_before_planning(self, section6):
        """An impossible offered load still produces a feasible run,
        with the excess counted as shed requests."""
        exp = section6
        overload = exp.trace.scaled(50.0)
        result = StreamingController(
            exp.optimizer(), overload, exp.market, PeriodicResolve(),
            ticks_per_slot=2,
        ).run(num_slots=2)
        assert result.shed_requests > 0.0
        assert np.all(np.isfinite(result.net_profit_series))


class TestRepairPath:
    def test_repair_scales_along_existing_routes(self, section6):
        exp = section6
        arrivals = exp.trace.arrivals_at(3)
        prices = exp.market.prices_at(3)
        plan = exp.optimizer().plan_slot(arrivals, prices,
                                         slot_duration=1.0)
        outcome = repair_plan(plan, arrivals * 0.9)
        assert outcome.coverage == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(
            outcome.plan.rates, plan.rates * 0.9, rtol=1e-9
        )

    def test_repair_caps_at_deadline_safe_rates(self, section6):
        exp = section6
        arrivals = exp.trace.arrivals_at(3)
        prices = exp.market.prices_at(3)
        plan = exp.optimizer().plan_slot(arrivals, prices,
                                         slot_duration=1.0)
        outcome = repair_plan(plan, arrivals * 50.0)
        assert outcome.coverage < 1.0
        repaired = outcome.plan
        effective = repaired.shares * repaired.server_service_rates()
        loads = repaired.server_loads()
        # Every loaded server still meets its deadline-safe rate.
        for k, rc in enumerate(plan.topology.request_classes):
            safe = effective[k] - 1.0 / (rc.deadline * (1.0 - 1e-6))
            ok = loads[k] <= np.maximum(safe, 0.0) + 1e-9
            assert bool(ok.all())

    def test_failed_repair_escalates_to_full_solve(self, section6):
        """A policy that always says repair still yields full coverage
        because the controller escalates when coverage drops."""

        class AlwaysRepair:
            name = "always-repair"

            def reset(self):
                return None

            def decide(self, ctx):
                if not ctx.has_plan:
                    return ControlAction.resolve("bootstrap")
                return ControlAction.repair("forced")

        exp = section6
        result = StreamingController(
            exp.optimizer(), exp.trace, exp.market, AlwaysRepair(),
            ticks_per_slot=4, repair_margin=0.999,
        ).run()
        # The §VI day ramps hard; pure repair cannot cover the peaks.
        assert result.repair_escalations >= 1
        assert result.full_solves >= 2
        assert result.repairs >= 1


class TestPoliciesAndPlumbing:
    def test_policy_protocol_conformance(self):
        for name in ("periodic", "drift", "margin"):
            policy = make_policy(name)
            assert isinstance(policy, ControlPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_control_action_validation(self):
        with pytest.raises(ValueError):
            ControlAction("panic")
        assert ControlAction.hold().kind == "hold"
        assert ControlAction.repair("x").reason == "x"

    def test_policy_thresholds_validated(self):
        with pytest.raises(ValueError):
            PeriodicResolve(period=0)
        with pytest.raises(ValueError):
            DriftTriggered(resolve_deviation=0.01, repair_deviation=0.5)
        with pytest.raises(ValueError):
            MarginTriggered(margin_floor=1.5)

    def test_drift_policy_decides_from_context(self):
        policy = DriftTriggered(resolve_deviation=0.2,
                                repair_deviation=0.05)
        base = dict(tick=5, slot=0, tick_in_slot=5, slot_start=False,
                    estimate=np.ones((1, 1)), planned=np.ones((1, 1)),
                    has_plan=True, drift=False)
        assert policy.decide(
            ControlContext(**base, deviation=0.01)).kind == "hold"
        assert policy.decide(
            ControlContext(**base, deviation=0.1)).kind == "repair"
        assert policy.decide(
            ControlContext(**base, deviation=0.5)).kind == "resolve"
        assert policy.decide(ControlContext(
            **{**base, "drift": True}, deviation=0.0)).kind == "resolve"

    def test_counters_reach_collector(self, section6):
        exp = section6
        collector = InMemoryCollector()
        result = StreamingController(
            exp.optimizer(), exp.trace, exp.market, PeriodicResolve(),
            ticks_per_slot=3, collector=collector,
        ).run(num_slots=4)
        assert collector.counters["stream.ticks"] == 12
        assert collector.counters["stream.resolves"] == result.full_solves
        assert "stream.estimator_rel_error" in collector.histograms
        # Tick stages are timed: every tick is scored, every tick with a
        # standing plan is margined (all but the first).
        timers = collector.timers
        assert timers["stream.score"].count == 12
        assert timers["stream.margin"].count == 11
        assert timers["stream.plan_slot"].count == result.full_solves

    def test_repairs_are_timed(self, section6):
        exp = section6
        collector = InMemoryCollector()
        result = StreamingController(
            exp.optimizer(), exp.trace, exp.market, DriftTriggered(),
            ticks_per_slot=6, estimation="online", collector=collector,
        ).run(num_slots=6)
        attempts = result.repairs + result.repair_escalations
        assert attempts > 0
        assert collector.timers["stream.repair"].count == attempts

    def test_online_estimation_runs(self, section6):
        exp = section6
        result = StreamingController(
            exp.optimizer(), exp.trace, exp.market, DriftTriggered(),
            ticks_per_slot=6, synthesis="poisson", estimation="online",
            seed=42,
        ).run(num_slots=6)
        assert result.num_slots == 6
        assert result.estimator_rel_error > 0.0
        assert np.all(np.isfinite(result.net_profit_series))

    def test_streaming_is_deterministic_given_seed(self, section6):
        exp = section6
        runs = [
            StreamingController(
                exp.optimizer(), exp.trace, exp.market, DriftTriggered(),
                ticks_per_slot=4, synthesis="poisson",
                estimation="online", seed=9,
            ).run(num_slots=4)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].net_profit_series, runs[1].net_profit_series
        )
        assert runs[0].full_solves == runs[1].full_solves
        assert runs[0].repairs == runs[1].repairs
