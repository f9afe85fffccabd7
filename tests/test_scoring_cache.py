"""Equivalence pins for the cached per-tick scoring path.

Topologies cache their fleet constants and plans memoize their
reductions (loads, per-DC rates, delays, route weights), so scoring a
plan re-derives nothing.  The oracle below is a literal copy of the
scorer as it was before any of that caching: ``evaluate_plan``,
``plan_margin``, ``repair_plan`` and the arrival cap, together with the
plan/topology reductions they called, all recomputed from the raw
``rates``/``shares``/topology fields on every call.  Every comparison
is exact (``==``), never approximate.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter
from repro.cloud.energy import EnergyModel
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.controller import _cap_to_arrivals
from repro.core.formulation import DEADLINE_SAFETY
from repro.core.objective import NetProfitBreakdown, evaluate_plan
from repro.core.plan import DispatchPlan
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, MonotonicTUF, StepDownwardTUF
from repro.experiments.section6 import section6_experiment
from repro.queueing.mm1 import mm1_mean_delay
from repro.solvers.tolerances import FEASIBILITY_TOL, ZERO_TOL
from repro.stream import DriftTriggered, StreamingController
from repro.stream import controller as stream_controller
from repro.stream.repair import RepairOutcome, plan_margin, repair_plan
from repro.utils.validation import check_nonnegative, check_positive
from repro.workload.traces import WorkloadTrace

# --------------------------------------------------------------- oracle
# Pre-cache scorer, copied verbatim except that every DispatchPlan /
# CloudTopology accessor is inlined as the function it used to be.

_ORACLE_LOAD_TOL = ZERO_TOL
_ORACLE_ROUTE_TOL = 1e-12


def _oracle_offsets(topo):
    return np.concatenate([[0], np.cumsum(topo.servers_per_datacenter)])


def _oracle_dc_of_server(topo):
    out = np.empty(topo.num_servers, dtype=int)
    for l, dc in enumerate(topo.datacenters):
        offset = _oracle_offsets(topo)[l]
        out[offset:offset + dc.num_servers] = l
    return out


def _oracle_server_service_rates(topo):
    dc_idx = _oracle_dc_of_server(topo)
    mu = topo.service_rates
    capacity = topo.server_capacities
    return mu[:, dc_idx] * capacity[dc_idx][None, :]


def _oracle_server_loads(plan):
    return plan.rates.sum(axis=1)


def _oracle_dc_rates(plan):
    topo = plan.topology
    out = np.zeros((topo.num_classes, topo.num_frontends, topo.num_datacenters))
    offsets = _oracle_offsets(topo)
    for l in range(topo.num_datacenters):
        out[:, :, l] = plan.rates[:, :, offsets[l]:offsets[l + 1]].sum(axis=2)
    return out


def _oracle_delays(plan):
    loads = _oracle_server_loads(plan)
    effective = plan.shares * _oracle_server_service_rates(plan.topology)
    delays = mm1_mean_delay(effective, loads)
    return np.where(loads > _ORACLE_LOAD_TOL, delays, np.nan)


def _oracle_powered_on_per_dc(plan):
    topo = plan.topology
    mask = _oracle_server_loads(plan).sum(axis=0) > _ORACLE_LOAD_TOL
    offsets = _oracle_offsets(topo)
    return np.array([
        int(mask[offsets[l]:offsets[l + 1]].sum())
        for l in range(topo.num_datacenters)
    ])


def oracle_evaluate_plan(plan, arrivals, prices, slot_duration=1.0,
                         apply_pue=False):
    topo = plan.topology
    arrivals = check_nonnegative(arrivals, "arrivals")
    prices = check_nonnegative(prices, "prices")
    check_positive(slot_duration, "slot_duration")
    dispatched_per_source = plan.rates.sum(axis=2)
    excess = dispatched_per_source - arrivals
    if np.any(excess > FEASIBILITY_TOL * np.maximum(1.0, arrivals)):
        raise ValueError("plan dispatches more than the offered arrivals")

    delays = _oracle_delays(plan)
    loads = _oracle_server_loads(plan)
    revenue = 0.0
    for k, rc in enumerate(topo.request_classes):
        row_delays = delays[k]
        row_loads = loads[k]
        loaded = row_loads > 0
        if not np.any(loaded):
            continue
        util = rc.tuf.utility(np.nan_to_num(row_delays[loaded], nan=0.0,
                                            posinf=np.inf))
        util = np.where(np.isfinite(row_delays[loaded]), util, 0.0)
        revenue += float(np.sum(util * row_loads[loaded]) * slot_duration)

    energy_model = EnergyModel(topo.datacenters, apply_pue=apply_pue)
    dc_rates = _oracle_dc_rates(plan)
    dc_loads = dc_rates.sum(axis=1)
    energy_cost = energy_model.slot_cost(dc_loads, prices, slot_duration)
    energy_kwh = energy_model.slot_energy_kwh(dc_loads, slot_duration)
    unit = topo.transfer_unit_costs
    per_request = unit[:, None, None] * np.asarray(topo.distances)[None, :, :]
    transfer_cost = float(np.sum(per_request * dc_rates) * slot_duration)

    idle_cost = 0.0
    idle_kwh = 0.0
    powered = _oracle_powered_on_per_dc(plan)
    for l, dc in enumerate(topo.datacenters):
        if dc.idle_power_kw <= 0.0 or powered[l] == 0:
            continue
        pue = dc.pue if apply_pue else 1.0
        kwh = dc.idle_power_kw * pue * powered[l] * slot_duration
        idle_kwh += kwh
        idle_cost += kwh * float(prices[l])

    return NetProfitBreakdown(
        revenue=revenue,
        energy_cost=energy_cost,
        transfer_cost=transfer_cost,
        served_rates=plan.rates.sum(axis=(1, 2)),
        offered_rates=arrivals.sum(axis=1),
        dc_loads=dc_loads,
        energy_kwh=energy_kwh + idle_kwh,
        slot_duration=slot_duration,
        idle_cost=idle_cost,
    )


def _oracle_effective_deadlines(plan, deadlines):
    if deadlines is not None:
        return np.asarray(deadlines, dtype=float)
    return np.array(
        [rc.deadline for rc in plan.topology.request_classes]
    ) * (1.0 - DEADLINE_SAFETY)


def _oracle_safe_server_rates(plan, deadlines):
    effective = plan.shares * _oracle_server_service_rates(plan.topology)
    return np.asarray(np.clip(
        effective - 1.0 / deadlines[:, None], 0.0, None
    ))


def _oracle_weights(plan):
    row_totals = plan.rates.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            row_totals[:, :, None] > _ORACLE_ROUTE_TOL,
            plan.rates / np.maximum(row_totals, _ORACLE_ROUTE_TOL)[:, :, None],
            0.0,
        )


def oracle_repair_plan(plan, target, deadlines=None):
    target = np.asarray(target, dtype=float)
    deadlines = _oracle_effective_deadlines(plan, deadlines)
    rates = target[:, :, None] * _oracle_weights(plan)
    loads = rates.sum(axis=1)
    safe = _oracle_safe_server_rates(plan, deadlines)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            loads > safe, safe / np.maximum(loads, _ORACLE_ROUTE_TOL), 1.0
        )
    rates *= np.clip(scale, 0.0, 1.0)[:, None, :]
    repaired = DispatchPlan(
        topology=plan.topology, rates=rates, shares=plan.shares
    )
    delivered = float(rates.sum())
    wanted = float(target.sum())
    coverage = 1.0 if wanted <= _ORACLE_ROUTE_TOL else delivered / wanted
    return RepairOutcome(
        plan=repaired, coverage=coverage, delivered=delivered, target=wanted
    )


def oracle_plan_margin(plan, target, deadlines=None):
    target = np.asarray(target, dtype=float)
    deadlines = _oracle_effective_deadlines(plan, deadlines)
    loads = (target[:, :, None] * _oracle_weights(plan)).sum(axis=1)
    safe = _oracle_safe_server_rates(plan, deadlines)
    loaded = loads > _ORACLE_ROUTE_TOL
    if not bool(loaded.any()):
        return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        headroom = (safe - loads) / np.maximum(safe, _ORACLE_ROUTE_TOL)
    return float(np.clip(headroom[loaded], -1.0, 1.0).min())


def oracle_cap_to_arrivals(plan, arrivals):
    dispatched = plan.rates.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            dispatched > arrivals, arrivals / np.maximum(dispatched, 1e-300), 1.0
        )
    scale = np.clip(scale, 0.0, 1.0)
    return DispatchPlan(
        topology=plan.topology,
        rates=plan.rates * scale[:, :, None],
        shares=plan.shares,
    )


# ------------------------------------------------------------- fixtures

class _ContinuousTUF(StepDownwardTUF):
    """Step-downward TUF that scores with a monotonic TUF's continuous
    utility (a RequestClass only accepts step TUFs)."""

    def __init__(self, monotonic, num_levels):
        steps = monotonic.discretize(num_levels)
        super().__init__(values=steps.values, deadlines=steps.deadlines)
        self._monotonic = monotonic

    def utility(self, delay):
        return self._monotonic.utility(delay)


def _linear_utility(delay):
    return 30.0 * (1.0 - 20.0 * delay)


def _tufs():
    monotonic = MonotonicTUF(_linear_utility, 0.05)
    return [
        ConstantTUF(value=12.0, deadline=0.02),
        StepDownwardTUF(values=[20.0, 9.0, 2.5], deadlines=[0.01, 0.03, 0.06]),
        monotonic.discretize(4),
        _ContinuousTUF(monotonic, 3),
    ]


def scenario(seed):
    """A random topology with every awkward feature, a plan on it that
    hits each delay regime, and arrivals/prices that admit the plan."""
    rng = np.random.default_rng(seed)
    tufs = _tufs()
    k = len(tufs)
    classes = tuple(
        RequestClass(f"class{i}", tuf, float(rng.uniform(1e-4, 1e-2)))
        for i, tuf in enumerate(tufs)
    )
    counts = [int(rng.integers(3, 7)), 0, int(rng.integers(8, 12)),
              int(rng.integers(2, 4))]
    datacenters = tuple(
        DataCenter(
            f"dc{l}", m,
            service_rates=rng.uniform(80.0, 220.0, size=k),
            energy_per_request=rng.uniform(1e-4, 1e-3, size=k),
            server_capacity=float(rng.uniform(0.8, 1.2)),
            pue=float(rng.uniform(1.0, 1.6)),
            idle_power_kw=float(rng.choice([0.0, rng.uniform(0.05, 0.3)])),
        )
        for l, m in enumerate(counts)
    )
    s = 3
    topo = CloudTopology(
        request_classes=classes,
        frontends=tuple(FrontEnd(f"fe{i}") for i in range(s)),
        datacenters=datacenters,
        distances=rng.uniform(50.0, 2500.0, size=(s, len(counts))),
    )
    n = topo.num_servers
    shares = rng.dirichlet(np.ones(k), size=n).T * rng.uniform(0.6, 1.0, n)
    effective = shares * _oracle_server_service_rates(topo)
    target = effective * rng.uniform(0.2, 0.95, size=(k, n))
    target[:, 0] = effective[:, 0] * 1.5            # overloaded: inf delay
    target[[0, 3], 1] = ZERO_TOL / 2                # tiny load: nan delay
    target[1] = 0.0                                 # a zero-load class
    target[:, -1] = 0.0                             # a powered-off server
    split = rng.dirichlet(np.ones(s), size=(k, n)).transpose(0, 2, 1)
    rates = target[:, None, :] * split
    # A (class, front-end) row carrying less than ZERO_TOL but more than
    # the repair's route tolerance.
    rates[2, 1] *= 5e-10 / rates[2, 1].sum()
    plan = DispatchPlan(topology=topo, rates=rates, shares=shares)
    arrivals = rates.sum(axis=2) * rng.uniform(1.0, 1.4, size=(k, s))
    prices = rng.uniform(0.02, 0.2, size=len(counts))
    return plan, arrivals, prices


SEEDS = range(12)


def assert_breakdowns_identical(got, want):
    for f in dataclasses.fields(NetProfitBreakdown):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert got.net_profit == want.net_profit


# ------------------------------------------------------------------ tests

class TestScenarioCoverage:
    """The random scenarios really exercise every regime they claim to."""

    def test_each_regime_present(self):
        plan, _, _ = scenario(0)
        topo = plan.topology
        delays = _oracle_delays(plan)
        loads = _oracle_server_loads(plan)
        assert np.isinf(delays).any()
        assert (np.isnan(delays) & (loads > 0)).any()
        assert (loads.sum(axis=1) == 0).any()
        assert 0 in topo.servers_per_datacenter
        assert any(tuf.num_levels > 1 for tuf in
                   (rc.tuf for rc in topo.request_classes))
        assert any(isinstance(rc.tuf, _ContinuousTUF)
                   for rc in topo.request_classes)

    def test_idle_power_present_across_seeds(self):
        powered_idle = 0
        for seed in SEEDS:
            plan, _, _ = scenario(seed)
            powered = _oracle_powered_on_per_dc(plan)
            powered_idle += sum(
                1 for l, dc in enumerate(plan.topology.datacenters)
                if dc.idle_power_kw > 0 and powered[l] > 0
            )
        assert powered_idle > 0


class TestEvaluateEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("apply_pue", [False, True])
    def test_breakdown_bit_identical(self, seed, apply_pue):
        plan, arrivals, prices = scenario(seed)
        duration = 1.0 / (1 + seed % 5)
        want = oracle_evaluate_plan(plan, arrivals, prices, duration,
                                    apply_pue)
        # Twice: the second call runs entirely on memoized reductions.
        for _ in range(2):
            got = evaluate_plan(plan, arrivals, prices,
                                slot_duration=duration, apply_pue=apply_pue)
            assert_breakdowns_identical(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spare_capacity_plan_identical(self, seed):
        plan, arrivals, prices = scenario(seed)
        boosted = plan.with_spare_capacity_distributed()
        assert_breakdowns_identical(
            evaluate_plan(boosted, arrivals, prices),
            oracle_evaluate_plan(boosted, arrivals, prices),
        )

    def test_boundary_checks_kept(self):
        plan, arrivals, prices = scenario(0)
        with pytest.raises(ValueError, match="more than the offered"):
            evaluate_plan(plan, arrivals * 0.5, prices)
        with pytest.raises(ValueError, match="arrivals must have shape"):
            evaluate_plan(plan, arrivals[:, :-1], prices)
        with pytest.raises(ValueError, match="prices must have shape"):
            evaluate_plan(plan, arrivals, prices[:-1])
        with pytest.raises(ValueError, match="non-negative"):
            evaluate_plan(plan, -arrivals, prices)
        bad = arrivals.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluate_plan(plan, bad, prices)


class TestRepairEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("explicit_deadlines", [False, True])
    def test_margin_and_repair_bit_identical(self, seed, explicit_deadlines):
        plan, arrivals, _ = scenario(seed)
        rng = np.random.default_rng(1000 + seed)
        deadlines = None
        if explicit_deadlines:
            deadlines = np.array([
                rc.deadline for rc in plan.topology.request_classes
            ]) * rng.uniform(0.5, 1.0)
        for scale in (0.0, 0.5, 1.0, 1.7):
            target = arrivals * scale * rng.uniform(0.8, 1.2, arrivals.shape)
            assert plan_margin(plan, target, deadlines) == \
                oracle_plan_margin(plan, target, deadlines)
            got = repair_plan(plan, target, deadlines)
            want = oracle_repair_plan(plan, target, deadlines)
            assert got.coverage == want.coverage
            assert got.delivered == want.delivered
            assert got.target == want.target
            assert np.array_equal(got.plan.rates, want.plan.rates)
            assert np.array_equal(got.plan.shares, want.plan.shares)


class TestCapToArrivals:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cap_bit_identical(self, seed):
        plan, arrivals, _ = scenario(seed)
        truth = arrivals.copy()
        truth[0] = plan.rates.sum(axis=2)[0] * 0.5
        got = _cap_to_arrivals(plan, truth)
        want = oracle_cap_to_arrivals(plan, truth)
        assert got is not plan
        assert np.array_equal(got.rates, want.rates)

    def test_uncapped_plan_is_returned_itself(self):
        plan, arrivals, _ = scenario(3)
        assert _cap_to_arrivals(plan, arrivals) is plan
        # ...which is what scaling every row by 1.0 would have built.
        assert np.array_equal(
            oracle_cap_to_arrivals(plan, arrivals).rates, plan.rates
        )


def _two_day_trace():
    days = [section6_experiment(seed=seed) for seed in (1, 2)]
    trace = WorkloadTrace(
        np.concatenate([day.trace.rates for day in days], axis=2),
        days[0].trace.slot_duration,
    )
    return days[0], trace


class TestStreamingPin:
    """A drift-triggered, online-estimated streaming run over two §VI
    days is unchanged when the pre-cache scorer is patched in."""

    @staticmethod
    def _run(exp, trace):
        return StreamingController(
            exp.optimizer(), trace, exp.market, DriftTriggered(),
            ticks_per_slot=12, estimation="online",
        ).run()

    def test_oracle_scorer_gives_identical_run(self, monkeypatch):
        exp, trace = _two_day_trace()
        shipped = self._run(exp, trace)
        for name, oracle in (
            ("evaluate_plan", oracle_evaluate_plan),
            ("plan_margin", oracle_plan_margin),
            ("repair_plan", oracle_repair_plan),
            ("_cap_to_arrivals", oracle_cap_to_arrivals),
        ):
            monkeypatch.setattr(stream_controller, name, oracle)
        patched = self._run(exp, trace)
        assert shipped.ticks == patched.ticks == trace.num_slots * 12
        assert np.array_equal(shipped.net_profit_series,
                              patched.net_profit_series)
        assert shipped.full_solves == patched.full_solves
        assert shipped.repairs == patched.repairs
        assert shipped.repair_escalations == patched.repair_escalations
        assert shipped.repairs > 0 and shipped.full_solves > 0


class TestCacheSafety:
    def test_caller_mutation_does_not_reach_the_topology(self):
        plan, arrivals, prices = scenario(4)
        topo = plan.topology
        before = evaluate_plan(plan, arrivals, prices, apply_pue=True)
        distances = np.array(topo.distances)
        rates = np.array(topo.datacenters[0].service_rates)
        energy = np.array(topo.datacenters[0].energy_per_request)
        dc0 = dataclasses.replace(topo.datacenters[0], service_rates=rates,
                                  energy_per_request=energy)
        rebuilt = CloudTopology(topo.request_classes, topo.frontends,
                                (dc0,) + topo.datacenters[1:], distances)
        fresh = DispatchPlan(rebuilt, plan.rates, plan.shares)
        assert_breakdowns_identical(
            evaluate_plan(fresh, arrivals, prices, apply_pue=True), before)
        # Scribble over every caller array after construction.
        distances *= 3.0
        rates *= 0.5
        energy *= 7.0
        assert_breakdowns_identical(
            evaluate_plan(fresh, arrivals, prices, apply_pue=True), before)
        assert_breakdowns_identical(
            evaluate_plan(DispatchPlan(rebuilt, plan.rates, plan.shares),
                          arrivals, prices, apply_pue=True),
            before)

    def test_derived_topologies_get_fresh_caches(self):
        plan, arrivals, prices = scenario(5)
        topo = plan.topology
        base_rates = topo._server_service_rates  # populate the cache
        base_transfer = topo._transfer_cost
        scaled = topo.scaled_capacity(2.0)
        assert np.array_equal(scaled._server_service_rates,
                              _oracle_server_service_rates(scaled))
        assert np.array_equal(scaled._server_service_rates, 2.0 * base_rates)
        resized = topo.with_datacenters(
            [dc.with_servers(dc.num_servers + 1) for dc in topo.datacenters]
        )
        assert np.array_equal(resized.server_offsets(),
                              _oracle_offsets(resized))
        assert resized.num_servers == topo.num_servers + topo.num_datacenters
        replaced = dataclasses.replace(topo, distances=topo.distances * 2.0)
        assert np.array_equal(replaced._transfer_cost, 2.0 * base_transfer)
        moved = DispatchPlan(replaced, plan.rates, plan.shares)
        assert_breakdowns_identical(
            evaluate_plan(moved, arrivals, prices),
            oracle_evaluate_plan(moved, arrivals, prices),
        )

    def test_pickled_topology_rebuilds_read_only_caches(self):
        plan, arrivals, prices = scenario(6)
        topo = plan.topology
        # numpy pickles arrays C-contiguous; start from that layout so the
        # clone sums in the same order.
        plan = DispatchPlan(topo, np.ascontiguousarray(plan.rates),
                            np.ascontiguousarray(plan.shares))
        topo._server_service_rates  # populate before pickling
        clone = pickle.loads(pickle.dumps(topo))
        assert "_server_service_rates" not in vars(clone)
        assert not clone.distances.flags.writeable
        assert not clone.datacenters[0].service_rates.flags.writeable
        assert not clone.server_offsets().flags.writeable
        plan_clone = pickle.loads(pickle.dumps(plan))
        assert_breakdowns_identical(
            evaluate_plan(plan_clone, arrivals, prices),
            evaluate_plan(plan, arrivals, prices),
        )


class TestReadOnlyContract:
    def test_cached_accessors_are_not_writeable(self):
        plan, _, _ = scenario(7)
        topo = plan.topology
        arrays = {
            "server_loads": plan.server_loads(),
            "dc_rates": plan.dc_rates(),
            "delays": plan.delays(),
            "server_offsets": topo.server_offsets(),
            "server_service_rates": plan.server_service_rates(),
            "dc_of_server": plan._dc_of_server(),
            "distances": topo.distances,
            "service_rates": topo.datacenters[0].service_rates,
            "energy_per_request": topo.datacenters[0].energy_per_request,
        }
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_accessors_return_the_memoized_array(self):
        plan, _, _ = scenario(8)
        assert plan.server_loads() is plan.server_loads()
        assert plan.dc_rates() is plan.dc_rates()
        assert plan.delays() is plan.delays()
        assert plan.topology.server_offsets() is plan.topology.server_offsets()

    def test_fresh_results_stay_writeable(self):
        """Only the memoized accessors are frozen; results handed to a
        caller to keep (breakdown vectors, per-DC loads) are not."""
        plan, arrivals, prices = scenario(9)
        outcome = evaluate_plan(plan, arrivals, prices)
        for arr in (outcome.served_rates, outcome.offered_rates,
                    outcome.dc_loads, plan.dc_loads(), plan.served_rates(),
                    plan.topology.service_rates):
            assert arr.flags.writeable
