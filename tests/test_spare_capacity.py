"""Tests for spare-CPU distribution on dispatch plans."""

import numpy as np
import pytest

from repro.core.objective import evaluate_plan
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.core.plan import DispatchPlan


class TestWithSpareCapacityDistributed:
    def test_fills_loaded_servers(self, small_topology):
        rates = np.zeros((2, 2, 5))
        rates[0, 0, 0] = 10.0
        rates[1, 0, 0] = 5.0
        shares = np.zeros((2, 5))
        shares[:, 0] = [0.3, 0.2]
        plan = DispatchPlan(small_topology, rates, shares)
        boosted = plan.with_spare_capacity_distributed()
        assert boosted.shares[:, 0].sum() == pytest.approx(1.0)
        # Proportions preserved.
        assert boosted.shares[0, 0] / boosted.shares[1, 0] == pytest.approx(1.5)

    def test_releases_unloaded_class_shares(self, small_topology):
        rates = np.zeros((2, 2, 5))
        rates[0, 0, 0] = 10.0  # only class 0 loaded on server 0
        shares = np.zeros((2, 5))
        shares[:, 0] = [0.4, 0.4]
        plan = DispatchPlan(small_topology, rates, shares)
        boosted = plan.with_spare_capacity_distributed()
        assert boosted.shares[1, 0] == 0.0
        assert boosted.shares[0, 0] == pytest.approx(1.0)

    def test_delays_strictly_improve(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        raw = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(use_spare_capacity=False)).plan_slot(arrivals, prices)
        boosted = raw.with_spare_capacity_distributed()
        d_raw, d_boost = raw.delays(), boosted.delays()
        mask = ~np.isnan(d_raw)
        assert np.all(d_boost[mask] <= d_raw[mask] + 1e-12)
        assert np.any(d_boost[mask] < d_raw[mask])

    def test_profit_never_decreases(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        raw = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(use_spare_capacity=False)).plan_slot(arrivals, prices)
        base = evaluate_plan(raw, arrivals, prices).net_profit
        boosted = evaluate_plan(
            raw.with_spare_capacity_distributed(), arrivals, prices
        ).net_profit
        assert boosted >= base - 1e-9

    def test_rates_unchanged(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        plan = ProfitAwareOptimizer(small_topology, config=OptimizerConfig(use_spare_capacity=False)).plan_slot(arrivals, prices)
        boosted = plan.with_spare_capacity_distributed()
        assert np.array_equal(boosted.rates, plan.rates)

    def test_idempotent(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        plan = ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices)
        again = plan.with_spare_capacity_distributed()
        assert np.allclose(again.shares, plan.shares)

    def test_empty_plan_unchanged(self, small_topology):
        plan = DispatchPlan.empty(small_topology)
        boosted = plan.with_spare_capacity_distributed()
        assert np.array_equal(boosted.shares, plan.shares)

    def test_optimizer_flag_default_on(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        plan = ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices)
        loads = plan.server_loads()
        active = loads.sum(axis=0) > 1e-9
        assert np.allclose(plan.shares[:, active].sum(axis=0), 1.0)
