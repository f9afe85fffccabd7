"""Tests for ProfitAwareOptimizer (all solve paths and formulations)."""

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer, _explode_topology
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.sim.failures import degraded_topology


def profits(topology, optimizer, arrivals, prices):
    plan = optimizer.plan_slot(arrivals, prices)
    return evaluate_plan(plan, arrivals, prices).net_profit


class TestConstruction:
    def test_rejects_unknown_method(self, small_topology):
        with pytest.raises(ValueError, match="level_method"):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(level_method="magic"))

    def test_rejects_unknown_formulation(self, small_topology):
        with pytest.raises(ValueError, match="formulation"):
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(formulation="magic"))

    def test_lp_refused_for_multilevel(self, multilevel_topology):
        opt = ProfitAwareOptimizer(multilevel_topology, config=OptimizerConfig(level_method="lp"))
        with pytest.raises(ValueError, match="one-level"):
            opt.plan_slot(np.array([[100.0], [100.0]]), np.array([0.1, 0.1]))


class TestOneLevelPaths:
    def test_auto_selects_lp(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        opt.plan_slot(np.full((2, 2), 40.0), np.array([0.1, 0.1]))
        assert opt.last_stats.method == "lp"

    def test_plan_feasible_and_profitable(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        opt = ProfitAwareOptimizer(small_topology)
        plan = opt.plan_slot(arrivals, prices)
        assert plan.meets_deadlines()
        out = evaluate_plan(plan, arrivals, prices)
        assert out.net_profit > 0

    @pytest.mark.parametrize("formulation", ["aggregated", "per_server"])
    @pytest.mark.parametrize("lp_method", ["highs", "simplex"])
    def test_all_lp_paths_agree(self, small_topology, formulation, lp_method):
        arrivals = np.full((2, 2), 60.0)
        prices = np.array([0.05, 0.12])
        reference = profits(
            small_topology,
            ProfitAwareOptimizer(small_topology),
            arrivals, prices,
        )
        value = profits(
            small_topology,
            ProfitAwareOptimizer(small_topology, config=OptimizerConfig(formulation=formulation, lp_method=lp_method)),
            arrivals, prices,
        )
        assert value == pytest.approx(reference, rel=1e-6)

    def test_optimizer_at_least_matches_any_feasible_plan(self, small_topology):
        from repro.core.baselines import BalancedDispatcher
        arrivals = np.full((2, 2), 80.0)
        prices = np.array([0.04, 0.15])
        opt_profit = profits(
            small_topology, ProfitAwareOptimizer(small_topology),
            arrivals, prices,
        )
        balanced = BalancedDispatcher(small_topology)
        bal_plan = balanced.plan_slot(arrivals, prices)
        bal_profit = evaluate_plan(bal_plan, arrivals, prices).net_profit
        assert opt_profit >= bal_profit - 1e-6


class TestMultiLevelPaths:
    @pytest.fixture
    def setup(self, multilevel_topology):
        arrivals = np.array([[9000.0], [8000.0]])
        prices = np.array([0.05, 0.09])
        return multilevel_topology, arrivals, prices

    def test_auto_selects_milp(self, setup):
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(topo)
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.method == "milp"
        assert opt.last_stats.num_variables > 0

    def test_milp_bb_matches_highs(self, setup):
        topo, arrivals, prices = setup
        a = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(milp_method="highs")),
                    arrivals, prices)
        b = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(milp_method="bb")),
                    arrivals, prices)
        assert a == pytest.approx(b, rel=1e-6)

    def test_greedy_close_to_milp(self, setup):
        topo, arrivals, prices = setup
        exact = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        greedy = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="greedy")),
                         arrivals, prices)
        assert greedy >= 0.9 * exact
        assert greedy <= exact + 1e-6

    def test_bigm_close_to_milp(self, setup):
        topo, arrivals, prices = setup
        exact = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        bigm = profits(topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="bigm")),
                       arrivals, prices)
        assert bigm >= 0.8 * exact

    def test_per_server_milp_at_least_matches_aggregated(self, setup):
        # The aggregated MILP targets ONE TUF level per (class, DC); the
        # per-server layout may mix levels across a DC's servers, so it
        # can only do better (and usually only marginally so).
        topo, arrivals, prices = setup
        agg = profits(topo, ProfitAwareOptimizer(topo), arrivals, prices)
        per = profits(
            topo, ProfitAwareOptimizer(topo, config=OptimizerConfig(formulation="per_server")),
            arrivals, prices,
        )
        assert per >= agg - 1e-6
        assert per == pytest.approx(agg, rel=1e-2)

    def test_greedy_stats_expose_lp_evaluations(self, setup):
        topo, arrivals, prices = setup
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(level_method="greedy"))
        opt.plan_slot(arrivals, prices)
        assert opt.last_stats.lp_evaluations >= 1


class TestConsolidation:
    def test_consolidated_plan_uses_fewer_servers(self, small_topology):
        arrivals = np.full((2, 2), 10.0)  # light load
        prices = np.array([0.05, 0.12])
        spread = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(consolidate=False))
        packed = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(consolidate=True))
        plan_spread = spread.plan_slot(arrivals, prices)
        plan_packed = packed.plan_slot(arrivals, prices)
        assert (plan_packed.powered_on_per_dc().sum()
                <= plan_spread.powered_on_per_dc().sum())
        # Consolidation must not change net profit (per-request energy).
        a = evaluate_plan(plan_spread, arrivals, prices).net_profit
        b = evaluate_plan(plan_packed, arrivals, prices).net_profit
        assert b == pytest.approx(a, rel=1e-6)


class TestExplodeTopology:
    def test_structure(self, small_topology):
        exploded = _explode_topology(small_topology)
        assert exploded.num_datacenters == small_topology.num_servers
        assert all(dc.num_servers == 1 for dc in exploded.datacenters)
        assert exploded.num_classes == small_topology.num_classes

    def test_distances_replicated(self, small_topology):
        exploded = _explode_topology(small_topology)
        # First 3 columns replicate dc1's distances, last 2 dc2's.
        assert np.allclose(exploded.distances[:, 0],
                           small_topology.distances[:, 0])
        assert np.allclose(exploded.distances[:, 4],
                           small_topology.distances[:, 1])


class TestSolveStats:
    def test_wall_time_recorded(self, small_topology):
        opt = ProfitAwareOptimizer(small_topology)
        opt.plan_slot(np.full((2, 2), 10.0), np.array([0.1, 0.1]))
        assert opt.last_stats.wall_time > 0
        assert opt.last_stats.formulation == "aggregated"
        assert opt.last_stats.objective > 0


def _degenerate_topology(servers=(3, 2), mu=3000.0):
    classes = (
        RequestClass("c0", ConstantTUF(8.0, 0.05), transfer_unit_cost=1e-4),
        RequestClass("c1", ConstantTUF(6.0, 0.08), transfer_unit_cost=2e-4),
    )
    datacenters = tuple(
        DataCenter(
            f"dc{l}", num_servers=count,
            service_rates=np.array([mu, mu * 1.2]),
            energy_per_request=np.array([2e-4, 3e-4]),
        )
        for l, count in enumerate(servers)
    )
    frontends = (FrontEnd("fe0"), FrontEnd("fe1"))
    distances = np.array([[200.0, 800.0], [500.0, 300.0]])
    return CloudTopology(
        request_classes=classes, frontends=frontends,
        datacenters=datacenters, distances=distances,
    )


_DEGENERATE_SLOTS = {
    "zero_arrival_frontend": (
        _degenerate_topology, np.array([[0.0, 600.0], [0.0, 300.0]]),
    ),
    "zero_arrival_class": (
        _degenerate_topology, np.array([[0.0, 0.0], [300.0, 300.0]]),
    ),
    "all_zero_arrivals": (_degenerate_topology, np.zeros((2, 2))),
    "zero_server_datacenter": (
        lambda: degraded_topology(_degenerate_topology(), [3, 0]),
        np.array([[400.0, 200.0], [150.0, 250.0]]),
    ),
    "single_server_datacenters": (
        lambda: _degenerate_topology(servers=(1, 1)),
        np.array([[300.0, 200.0], [150.0, 250.0]]),
    ),
}


class TestDegenerateSlots:
    """Degenerate slot data takes the primary LP path, not a fallback."""

    @pytest.mark.parametrize("warm_start", [True, False])
    @pytest.mark.parametrize("case", sorted(_DEGENERATE_SLOTS))
    def test_default_path_solves_degenerate_slot(self, case, warm_start):
        make_topology, arrivals = _DEGENERATE_SLOTS[case]
        topo = make_topology()
        prices = np.array([0.05, 0.08])
        opt = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="lp", warm_start=warm_start,
        ))
        # A regular slot first, so the warm run offers carried-over state.
        opt.plan_slot(np.array([[400.0, 200.0], [150.0, 250.0]]), prices)
        plan = opt.plan_slot(arrivals, prices)
        assert opt.last_stats.fallback_level == 0
        assert plan.meets_deadlines()
        reference = ProfitAwareOptimizer(topo, config=OptimizerConfig(
            level_method="lp", lp_method="simplex", warm_start=False,
        ))
        reference.plan_slot(arrivals, prices)
        assert opt.last_stats.objective == pytest.approx(
            reference.last_stats.objective, rel=1e-6, abs=1e-9
        )
        if case == "zero_server_datacenter":
            assert np.all(plan.dc_rates()[:, :, 1] == 0.0)
