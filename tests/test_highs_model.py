"""The persistent HiGHS model behind ``solve_lp(method="highs")``.

The adapter (``repro.solvers._highs``) must return exactly what the
``scipy.optimize.linprog`` fallback returns — same ``x``, objective and
row duals, bit for bit — on one-shot LPs and on every slot LP of the
§VI days, whose shared read-only matrix keeps one model alive across
slots.  Failed solves (iteration budget, infeasible right-hand side)
must not leak into the next solve on the same model.
"""

import gc
import sys
import threading

import numpy as np
import pytest

import repro.core.optimizer as optimizer_module
import repro.solvers.linprog as linprog_module
from repro.core.controller import SlottedController
from repro.core.formulation import FixedLevelLPCache
from repro.core.optimizer import OptimizerConfig, ProfitAwareOptimizer
from repro.experiments.section6 import section6_experiment
from repro.obs import InMemoryCollector
from repro.solvers import LinearProgram, SolveStatus, solve_lp
from repro.solvers import _highs
from repro.stream import DriftTriggered, StreamingController

pytestmark = pytest.mark.skipif(
    not _highs.AVAILABLE, reason="scipy's private HiGHS bindings are missing"
)


def _fallback(monkeypatch):
    """Force the probe off: ``solve_lp`` goes through ``linprog``."""
    monkeypatch.setattr(_highs, "AVAILABLE", False)


def _assert_same(got, want):
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert np.array_equal(got.x, want.x)
    assert got.objective == want.objective
    assert np.array_equal(got.ineq_marginals, want.ineq_marginals)
    assert np.array_equal(got.eq_marginals, want.eq_marginals)


def _one_shot_lp():
    """A small LP with inequality, equality and finite upper-bound rows."""
    return LinearProgram(
        c=np.array([-3.0, -2.0, -4.0, 1.0]),
        a_ub=np.array([[1.0, 1.0, 2.0, 0.0], [2.0, 0.5, 1.0, -1.0]]),
        b_ub=np.array([4.0, 5.0]),
        a_eq=np.array([[1.0, -1.0, 0.0, 1.0]]),
        b_eq=np.array([0.5]),
        upper=np.array([np.inf, 3.0, 1.5, 2.0]),
    )


def _section6_slot_lps(monkeypatch, seeds):
    """Every slot LP the default optimizer solves over the §VI days."""
    lps = []
    solve = optimizer_module.solve_lp

    def recording(lp, **kwargs):
        lps.append(lp)
        return solve(lp, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer_module, "solve_lp", recording)
        for seed in seeds:
            exp = section6_experiment(seed=seed)
            SlottedController(exp.optimizer(), exp.trace, exp.market).run()
    return lps


def _slot_lp(day_lps, b_ub=None, c=None):
    """A slot LP on the shared matrix of ``day_lps`` with new data."""
    base = day_lps[0]
    return LinearProgram(
        c=base.c if c is None else c, a_ub=base.a_ub,
        b_ub=base.b_ub if b_ub is None else b_ub, upper=base.upper,
    )


def _throwaway(lp):
    """The same LP on a private, writable copy of its matrix."""
    return LinearProgram(c=lp.c, a_ub=np.array(lp.a_ub), b_ub=lp.b_ub,
                         a_eq=lp.a_eq, b_eq=lp.b_eq, lower=lp.lower,
                         upper=lp.upper)


class TestFallback:
    def test_probe_off_matches_adapter_bit_for_bit(self, monkeypatch):
        adapted = solve_lp(_one_shot_lp())
        assert adapted.ok and adapted.eq_marginals.size == 1
        _fallback(monkeypatch)
        _assert_same(solve_lp(_one_shot_lp()), adapted)

    def test_fallback_runs_linprog(self, monkeypatch):
        calls = []
        linprog = linprog_module.optimize.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(linprog_module.optimize, "linprog", counting)
        solve_lp(_one_shot_lp())
        assert calls == []
        _fallback(monkeypatch)
        solve_lp(_one_shot_lp())
        assert calls == [1]

    def test_probe_fails_on_missing_method(self, monkeypatch):
        monkeypatch.setattr(_highs, "_REQUIRED",
                            _highs._REQUIRED + ("noSuchMethod",))
        assert _highs._probe() is None

    def test_probe_fails_on_missing_module(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
        assert _highs._probe() is None

    def test_section6_days_adapter_equals_fallback(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(1, 2))
        assert len(lps) == 48
        adapted = [solve_lp(lp) for lp in lps]
        _fallback(monkeypatch)
        for lp, got in zip(lps, adapted):
            assert got.ok
            _assert_same(got, solve_lp(lp))


class TestPersistentModel:
    def test_slot_lps_reuse_one_model(self):
        exp = section6_experiment(seed=3)
        collector = InMemoryCollector()
        optimizer = ProfitAwareOptimizer(
            exp.topology, config=OptimizerConfig(collector=collector))
        SlottedController(optimizer, exp.trace, exp.market).run()
        slots = exp.trace.num_slots
        assert collector.counters["highs.model_builds"] == 1
        assert collector.counters["highs.model_reuses"] == slots - 1
        assert collector.timers["highs.solve"].count == slots

    def test_writable_matrix_gets_a_throwaway_model(self):
        collector = InMemoryCollector()
        before = len(_highs._MODELS)
        for _ in range(2):
            solve_lp(_one_shot_lp(), collector=collector)
        assert collector.counters["highs.model_builds"] == 2
        assert "highs.model_reuses" not in collector.counters
        assert len(_highs._MODELS) == before

    def test_model_is_dropped_with_its_matrix(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(4,))
        key = id(lps[0].a_ub)
        solve_lp(lps[0])
        assert key in _highs._MODELS
        del lps
        gc.collect()
        assert key not in _highs._MODELS

    def test_iteration_limit_does_not_leak(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(5,))
        day = lps[:3]
        solve_lp(day[0])
        limited = solve_lp(day[1], max_iterations=1)
        assert limited.status is SolveStatus.ITERATION_LIMIT
        assert limited.x is None
        _assert_same(solve_lp(day[2]), solve_lp(_throwaway(day[2])))
        _assert_same(solve_lp(day[1]), solve_lp(_throwaway(day[1])))

    def test_infeasible_rhs_does_not_leak(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(6,))
        solve_lp(lps[0])
        b_ub = lps[1].b_ub.copy()
        b_ub[-1] = -1.0  # an arrival cap below zero: no lam >= 0 fits
        infeasible = solve_lp(_slot_lp(lps, b_ub=b_ub))
        assert infeasible.status is SolveStatus.INFEASIBLE
        assert infeasible.x is None
        for lp in lps[2:6]:
            _assert_same(solve_lp(lp), solve_lp(_throwaway(lp)))

    def test_unbounded_cost_maps_to_unbounded(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(7,))
        solve_lp(lps[0])
        lp = LinearProgram(c=np.array([-1.0, 0.0]),
                           a_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))
        assert solve_lp(lp).status is SolveStatus.UNBOUNDED
        _assert_same(solve_lp(lps[1]), solve_lp(_throwaway(lps[1])))

    def test_changed_column_bounds_are_applied(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(2,))
        solve_lp(lps[0])
        base = lps[1]
        upper = base.upper.copy()
        half = upper.size // 2
        upper[:half] = 50.0
        capped = LinearProgram(c=base.c, a_ub=base.a_ub, b_ub=base.b_ub,
                               upper=upper)
        got = solve_lp(capped)
        assert got.ok and got.x[:half].max() == 50.0
        _assert_same(got, solve_lp(_throwaway(capped)))
        _assert_same(solve_lp(base), solve_lp(_throwaway(base)))

    def test_non_finite_cost_raises_like_linprog(self, monkeypatch):
        lp = _one_shot_lp()
        lp.c[0] = np.nan
        with pytest.raises(ValueError):
            solve_lp(lp)
        _fallback(monkeypatch)
        with pytest.raises(ValueError):
            solve_lp(lp)


    def test_threads_share_one_model_safely(self, monkeypatch):
        lps = _section6_slot_lps(monkeypatch, seeds=(8,))
        expected = [solve_lp(_throwaway(lp)) for lp in lps]
        results = {}

        def worker(offset):
            order = lps[offset:] + lps[:offset]
            results[offset] = [solve_lp(lp) for lp in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(0, len(lps), 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(threads)
        for offset, got in results.items():
            want = expected[offset:] + expected[:offset]
            for solution, reference in zip(got, want):
                _assert_same(solution, reference)


class TestReadOnlySkeleton:
    def test_shared_matrix_rejects_writes(self, monkeypatch):
        lp = _section6_slot_lps(monkeypatch, seeds=(1,))[0]
        with pytest.raises(ValueError):
            lp.a_ub[0, 0] = 1.0

    @pytest.mark.parametrize("per_server", [False, True])
    def test_cache_matrix_is_read_only(self, per_server):
        exp = section6_experiment()
        cache = FixedLevelLPCache(exp.topology, per_server=per_server)
        assert not cache._a_ub.flags.writeable
        assert cache._a_ub.flags.owndata


class TestClearedBasis:
    """Why every run starts from a cleared solver.

    The §VI slot LPs are degenerate: a basis kept between slots returns
    a different optimal vertex with the same objective, and the
    streaming controller then repairs where it would have re-solved,
    losing profit.  Streaming over a §VI day through the persistent
    model must therefore match the ``linprog`` fallback exactly.
    """

    @staticmethod
    def _stream(exp):
        optimizer = ProfitAwareOptimizer(exp.topology,
                                         config=OptimizerConfig())
        return StreamingController(
            optimizer, exp.trace, exp.market, DriftTriggered(),
            ticks_per_slot=12, estimation="online",
        ).run()

    def test_stream_day_matches_fallback(self, monkeypatch):
        exp = section6_experiment(seed=5)
        adapted = self._stream(exp)
        _fallback(monkeypatch)
        fallback = self._stream(exp)
        assert adapted.total_net_profit == fallback.total_net_profit
        assert adapted.full_solves == fallback.full_solves
        assert adapted.repairs == fallback.repairs
        assert adapted.repair_escalations == fallback.repair_escalations
