"""Equivalence pins for the heap-free processor-sharing cluster path.

``simulate_plan`` runs each (class, server) VM on its own: its arrivals
are drawn up front (``draw_poisson_arrivals``) and its queue runs in one
loop over plain float lists (``processor_sharing_departures``).  The
oracle below is a literal copy of ``ClusterSimulation.run`` as it was
when every VM was a ``VirtualMachine`` fed by ``PoissonArrivals`` on one
shared ``Engine`` (drain cap included).  Every comparison is exact
(``==``), never approximate.
"""

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter
from repro.cloud.frontend import FrontEnd
from repro.cloud.topology import CloudTopology
from repro.core.optimizer import ProfitAwareOptimizer
from repro.core.plan import DispatchPlan
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, StepDownwardTUF
from repro.des.cluster import SimulatedSlotOutcome, simulate_plan
from repro.des.engine import Engine
from repro.des.measurements import SojournStats
from repro.des.processes import (
    SAMPLE_BATCH,
    PoissonArrivals,
    draw_poisson_arrivals,
)
from repro.des.server import VirtualMachine, processor_sharing_departures
from repro.queueing.validation import simulate_mm1
from repro.utils.rng import RandomStreams
from repro.utils.validation import check_nonnegative

# --------------------------------------------------------------- oracle
# ClusterSimulation.run on the shared event engine, copied verbatim
# (``self.*`` became arguments).


class _OracleRecordingVM(VirtualMachine):
    def __init__(self, engine: Engine, rate: float):
        super().__init__(engine, rate, stats=SojournStats(keep_raw=True))


def _oracle_simulate(plan, prices, slot_duration, seed=0,
                     warmup_fraction=0.0) -> SimulatedSlotOutcome:
    streams = RandomStreams(seed)
    topo = plan.topology
    prices = check_nonnegative(prices, "prices")
    engine = Engine()
    loads = plan.server_loads()  # (K, N)
    service = plan.server_service_rates()  # (K, N)
    horizon = float(slot_duration)
    warmup = warmup_fraction * horizon

    vms: Dict[Tuple[int, int], _OracleRecordingVM] = {}
    generators: List[PoissonArrivals] = []
    for k in range(topo.num_classes):
        for n in range(topo.num_servers):
            lam = float(loads[k, n])
            share = float(plan.shares[k, n])
            if lam <= 0 or share <= 0:
                continue
            vm = _OracleRecordingVM(engine, rate=share * service[k, n])
            vm.stats.warmup_time = warmup
            vms[(k, n)] = vm
            generators.append(PoissonArrivals(
                engine, rate=lam, sink=vm.arrive,
                seed=streams.stream(f"arrivals-{k}-{n}"),
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


class _Recorder:
    """Stats sink keeping every (arrival, departure) pair in order."""

    def __init__(self):
        self.arrived: List[float] = []
        self.departed: List[float] = []

    def record(self, arrival_time: float, departure_time: float) -> None:
        self.arrived.append(arrival_time)
        self.departed.append(departure_time)


def _engine_vm(times, works, rate):
    """One ``VirtualMachine`` on an ``Engine``, fed the way
    ``PoissonArrivals`` feeds it: arrival ``i + 1`` is scheduled when
    arrival ``i`` fires, after the VM has rescheduled its completion."""
    engine = Engine()
    recorder = _Recorder()
    vm = VirtualMachine(engine, rate, stats=recorder)

    def fire(i):
        assert engine.now == times[i]
        vm.arrive(works[i])
        if i + 1 < len(times):
            engine.schedule_at(times[i + 1], lambda: fire(i + 1))

    if len(times):
        engine.schedule_at(times[0], lambda: fire(0))
    engine.run()
    return recorder.arrived, recorder.departed


def _assert_identical(outcome, oracle):
    for f in dataclasses.fields(SimulatedSlotOutcome):
        assert getattr(outcome, f.name) == getattr(oracle, f.name), f.name


# ---------------------------------------------------------- topologies


def _random_topology(rng) -> CloudTopology:
    num_classes = int(rng.integers(1, 4))
    num_frontends = int(rng.integers(1, 3))
    servers = [int(s) for s in rng.integers(0, 4, size=int(rng.integers(1, 4)))]
    servers[0] = max(servers[0], 1)
    classes = []
    for k in range(num_classes):
        if rng.random() < 0.5:
            tuf = ConstantTUF(float(rng.uniform(1, 10)),
                              float(rng.uniform(0.02, 0.1)))
        else:
            d1 = float(rng.uniform(0.005, 0.03))
            tuf = StepDownwardTUF([float(rng.uniform(6, 10)),
                                   float(rng.uniform(1, 5))],
                                  [d1, 3 * d1])
        classes.append(RequestClass(f"r{k}", tuf,
                                    transfer_unit_cost=1e-4 * (k + 1)))
    datacenters = tuple(
        DataCenter(f"dc{l}", num_servers=count,
                   service_rates=rng.uniform(80, 200, size=num_classes),
                   energy_per_request=rng.uniform(1e-4, 5e-4,
                                                  size=num_classes))
        for l, count in enumerate(servers)
    )
    frontends = tuple(FrontEnd(f"fe{s}") for s in range(num_frontends))
    distances = rng.uniform(100, 2000, size=(num_frontends, len(servers)))
    return CloudTopology(tuple(classes), frontends, datacenters, distances)


def _random_plan(topo, rng, max_rho=0.9) -> DispatchPlan:
    """Random shares and loads at utilization up to ``max_rho``; some
    (class, server) pairs are left idle."""
    k, s, n = topo.num_classes, topo.num_frontends, topo.num_servers
    shares = rng.dirichlet(np.ones(k + 1), size=n).T[:k]  # (K, N)
    shares[rng.random((k, n)) < 0.2] = 0.0
    capacity = shares * DispatchPlan.empty(topo).server_service_rates()
    rho = rng.uniform(0.1, max_rho, size=(k, n))
    split = rng.dirichlet(np.ones(s), size=(k, n))  # (K, N, S)
    rates = (capacity * rho)[:, :, None] * split
    return DispatchPlan(topo, np.transpose(rates, (0, 2, 1)), shares)


def _prices(topo, rng):
    return rng.uniform(0.03, 0.15, size=topo.num_datacenters)


# -------------------------------------------------- cluster vs oracle


class TestClusterMatchesEngineOracle:
    @pytest.mark.parametrize("case", range(8))
    def test_random_topologies(self, case):
        rng = np.random.default_rng(1000 + case)
        topo = _random_topology(rng)
        plan = _random_plan(topo, rng)
        prices = _prices(topo, rng)
        seed = int(rng.integers(0, 2**31))
        _assert_identical(simulate_plan(plan, prices, 1.0, seed=seed),
                          _oracle_simulate(plan, prices, 1.0, seed=seed))

    def test_near_saturated_vm(self, single_class_topology):
        # rho = 0.95 on every server: long queues, many simultaneous
        # residents, so the list drain and first-minimum choice matter.
        topo = single_class_topology
        shares = np.full((1, 4), 0.5)
        loads = 0.95 * shares * DispatchPlan.empty(topo).server_service_rates()
        plan = DispatchPlan(topo, loads[:, None, :], shares)
        prices = np.array([0.1])
        outcome = simulate_plan(plan, prices, 20.0, seed=5)
        oracle = _oracle_simulate(plan, prices, 20.0, seed=5)
        _assert_identical(outcome, oracle)
        assert outcome.generated > 4000

    def test_zero_load_class(self, small_topology):
        rng = np.random.default_rng(3)
        plan = _random_plan(small_topology, rng)
        rates = plan.rates.copy()
        rates[1] = 0.0
        plan = DispatchPlan(small_topology, rates, plan.shares)
        prices = np.array([0.05, 0.12])
        outcome = simulate_plan(plan, prices, 2.0, seed=8)
        _assert_identical(outcome, _oracle_simulate(plan, prices, 2.0, seed=8))
        assert all(k == 0 for k, _ in outcome.mean_sojourn)

    def test_zero_server_datacenter(self, small_topology):
        dcs = small_topology.datacenters
        topo = small_topology.with_datacenters(
            (dcs[0], dcs[1].with_servers(0)))
        rng = np.random.default_rng(4)
        plan = _random_plan(topo, rng)
        prices = np.array([0.05, 0.12])
        _assert_identical(simulate_plan(plan, prices, 2.0, seed=2),
                          _oracle_simulate(plan, prices, 2.0, seed=2))

    def test_empty_plan(self, small_topology):
        plan = DispatchPlan.empty(small_topology)
        prices = np.array([0.1, 0.1])
        outcome = simulate_plan(plan, prices, 10.0)
        _assert_identical(outcome, _oracle_simulate(plan, prices, 10.0))
        assert outcome.generated == 0

    def test_optimized_multilevel_plan(self, multilevel_topology):
        arrivals = np.array([[9000.0], [8000.0]])
        prices = np.array([0.05, 0.09])
        plan = ProfitAwareOptimizer(multilevel_topology).plan_slot(
            arrivals, prices)
        _assert_identical(simulate_plan(plan, prices, 0.3, seed=4),
                          _oracle_simulate(plan, prices, 0.3, seed=4))

    def test_optimized_small_plan(self, small_topology):
        arrivals = np.full((2, 2), 40.0)
        prices = np.array([0.05, 0.12])
        plan = ProfitAwareOptimizer(small_topology).plan_slot(arrivals, prices)
        for seed in (0, 7, 11):
            _assert_identical(simulate_plan(plan, prices, 20.0, seed=seed),
                              _oracle_simulate(plan, prices, 20.0, seed=seed))


# ------------------------------------------ one VM vs VirtualMachine


class TestLoopMatchesVirtualMachine:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rho", [0.3, 0.8, 0.97])
    def test_poisson_fed_vm(self, seed, rho):
        rate = 7.0 + seed
        lam = rho * rate
        horizon = 600.0 / lam
        engine = Engine()
        recorder = _Recorder()
        vm = VirtualMachine(engine, rate, stats=recorder)
        PoissonArrivals(engine, rate=lam, sink=vm.arrive, seed=seed,
                        stop_time=horizon)
        engine.run()
        times, works = draw_poisson_arrivals(lam, horizon, seed)
        got = processor_sharing_departures(times.tolist(), works.tolist(),
                                           rate)
        assert got == (recorder.arrived, recorder.departed)
        assert len(got[1]) == len(times) > 0

    def test_tie_with_completion_scheduled_by_previous_arrival(self):
        # Job 0's completion is scheduled when it arrives, before arrival
        # 1 is scheduled, so at an exact tie it fires first: job 0 leaves
        # at exactly t1.  Firing arrival 1 first would drain job 0 to a
        # positive remainder ((w0 / 3) * 3 < w0) and delay its exit.
        rate, w0 = 3.0, 0.9
        t1 = 0.0 + w0 * 1 / rate
        times, works = [0.0, t1], [w0, 0.5]
        got = processor_sharing_departures(times, works, rate)
        assert got == _engine_vm(times, works, rate)
        assert got[1][0] == t1

    def test_tie_with_completion_scheduled_by_completion(self):
        # Jobs 0 and 1 arrive at time 0.  Job 1's completion is scheduled
        # by job 0's completion, after arrival 2 was scheduled, so at an
        # exact tie arrival 2 fires first and job 1 leaves after f2.
        rate, w0, w1 = 3.0, 0.7, 2.0
        _, (f1, f2) = processor_sharing_departures([0.0, 0.0], [w0, w1],
                                                   rate)
        times, works = [0.0, 0.0, f2], [w0, w1, 1.0]
        got = processor_sharing_departures(times, works, rate)
        assert got == _engine_vm(times, works, rate)
        assert got[1][0] == f1
        assert got[1][1] > f2

    def test_equal_remaining_work_picks_first_arrival(self):
        # At t = 1 job 0 has 2 - 1 = 1 unit left, as much as job 1 brings:
        # the first minimum (job 0, the earlier arrival) completes first.
        times, works = [0.0, 1.0], [2.0, 1.0]
        got = processor_sharing_departures(times, works, 1.0)
        assert got == _engine_vm(times, works, 1.0)
        assert got == ([0.0, 1.0], [3.0, 3.0])

    def test_drained_work_is_clamped_at_zero(self):
        # Three equal jobs at rate 7: the drain to the first completion
        # overshoots the survivors' work by an ulp.  Clamped at 0 they
        # leave at that same instant; unclamped, their negative work would
        # finish them an ulp *before* it.
        times, works = [0.0, 0.0, 0.1], [1.1, 1.1, 1.1]
        got = processor_sharing_departures(times, works, 7.0)
        assert got == _engine_vm(times, works, 7.0)
        assert got[1][0] == got[1][1]

    def test_no_arrivals(self):
        assert processor_sharing_departures([], [], 1.0) == ([], [])

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            processor_sharing_departures([0.0], [1.0], 0.0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_simulate_mm1_ps_matches_engine(self, seed):
        stats = simulate_mm1(10.0, 8.5, horizon=200.0, seed=seed)
        engine = Engine()
        oracle = SojournStats(warmup_time=0.1 * 200.0)
        vm = VirtualMachine(engine, rate=10.0, stats=oracle)
        PoissonArrivals(engine, rate=8.5, sink=vm.arrive, seed=seed,
                        stop_time=200.0)
        engine.run()
        assert (stats.count, stats.discarded, stats.mean, stats.variance) == \
            (oracle.count, oracle.discarded, oracle.mean, oracle.variance)


# --------------------------------------------- vectorised arrivals


class TestDrawPoissonArrivals:
    @staticmethod
    def _engine_arrivals(rate, stop, seed):
        engine = Engine()
        seen: List[Tuple[float, float]] = []
        rng = np.random.default_rng(seed)
        source = PoissonArrivals(engine, rate=rate,
                                 sink=lambda w: seen.append((engine.now, w)),
                                 seed=rng, stop_time=stop)
        engine.run()
        return seen, source, rng

    @pytest.mark.parametrize("count", [SAMPLE_BATCH // 2 - 1,
                                       SAMPLE_BATCH // 2,
                                       SAMPLE_BATCH // 2 + 1,
                                       3 * SAMPLE_BATCH // 2])
    def test_matches_engine_across_refill_boundary(self, count):
        rate, seed = 4.0, 21
        # Stop just after the count-th engine arrival, so the crossing
        # gap lands on either side of a SAMPLE_BATCH refill.
        seen, _, _ = self._engine_arrivals(rate, 2 * count / rate, seed)
        stop = np.nextafter(seen[count - 1][0], np.inf)
        seen, source, rng = self._engine_arrivals(rate, stop, seed)
        assert source.generated == count
        own = np.random.default_rng(seed)
        times, works = draw_poisson_arrivals(rate, stop, own)
        assert list(zip(times.tolist(), works.tolist())) == seen
        # The generator is left where PoissonArrivals leaves it.
        assert own.standard_exponential() == rng.standard_exponential()

    def test_nothing_before_first_arrival(self):
        times, works = draw_poisson_arrivals(1.0, 1e-12, seed=0)
        assert times.size == works.size == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            draw_poisson_arrivals(0.0, 1.0)
