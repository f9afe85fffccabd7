"""Tests for the ``repro.bench`` subsystem (runner, schema, scenarios).

Three groups:

* runner/schema unit tests — :func:`summarize_times`,
  :class:`TimingResult`, record building/validation, and the baseline
  comparison policy (determinism vs timing, ratios vs wall time);
* the determinism regression: running a scenario twice with the same
  seed must produce bit-identical non-timing fields — the contract the
  ``BENCH_*.json`` trajectory and CI gate rest on;
* the dedupe pin: Fig. 11 and ``benchmarks/bench_warmstart.py`` must
  aggregate through the *same* ``repro.bench`` median as the scenarios,
  so the benchmark scripts cannot drift apart again.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.runner import TimingResult, summarize_times, time_callable
from repro.bench.scenarios import available_scenarios, run_scenario
from repro.bench.schema import (
    MODES,
    NONDETERMINISTIC_KEYS,
    SCHEMA_VERSION,
    bench_filename,
    build_record,
    compare_records,
    load_record,
    strip_nondeterministic,
    validate_record,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Trivial workloads per scenario so the full catalog runs in seconds.
TINY_OVERRIDES = {
    "paper_scale": {"slots": 2, "repeats": 1, "warmup": 0},
    "streaming_ingest": {"slots": 4, "ticks_per_slot": 2, "repeats": 1,
                         "warmup": 0},
    "fleet_10x": {"slots": 1, "repeats": 1, "warmup": 0},
    "fleet_100x": {"slots": 1, "repeats": 1, "warmup": 0},
    "warm_vs_cold": {"slots": 2, "repeats": 1, "warmup": 0,
                     "servers_per_dc": 2},
    "des_cluster": {"slots": 1, "repeats": 1},
    "des_million": {"requests": 2_000, "repeats": 1},
}


def _valid_timing():
    return {
        "wall_s": 0.5,
        "samples_s": [0.5, 0.6],
        "warmup": 1,
        "median_s": 0.55,
        "mean_s": 0.55,
        "min_s": 0.5,
        "max_s": 0.6,
        "per_phase_s": {"solve": 0.4},
        "peak_rss_mb": 100.0,
        "ratios": {"speedup": 2.0},
        "throughput": {"events_per_s": 1000.0},
    }


def _valid_record(**updates):
    record = build_record(
        scenario="unit",
        mode="full",
        seed=7,
        config={"n": 1},
        determinism={"objective": 1.25, "counts": [1, 2, 3]},
        timing=_valid_timing(),
        machine={"platform": "test", "python": "3"},
        created_unix=1754500000.0,
    )
    record.update(updates)
    return record


class TestRunner:
    def test_median_odd_and_even(self):
        assert summarize_times([3.0, 1.0, 2.0])["median_s"] == 2.0
        assert summarize_times([4.0, 1.0, 2.0, 3.0])["median_s"] == 2.5

    def test_summary_fields(self):
        stats = summarize_times([2.0, 1.0, 4.0])
        assert stats == {"median_s": 2.0, "mean_s": pytest.approx(7.0 / 3),
                         "min_s": 1.0, "max_s": 4.0}

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            summarize_times([])

    def test_time_callable_counts_calls_and_returns_result(self):
        calls = []

        def fn():
            calls.append(len(calls))
            return len(calls)

        timing, result = time_callable(fn, repeats=3, warmup=2)
        assert len(calls) == 5          # warmup + repeats
        assert result == 5              # value from the final run
        assert timing.repeats == 3
        assert timing.warmup == 2
        assert all(s >= 0 for s in timing.samples_s)

    def test_time_callable_validates_arguments(self):
        with pytest.raises(ValueError, match="repeats"):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            time_callable(lambda: None, warmup=-1)

    def test_timing_result_properties_match_summarize(self):
        timing = TimingResult(samples_s=(0.3, 0.1, 0.2), warmup=1)
        stats = summarize_times(timing.samples_s)
        assert timing.median_s == stats["median_s"]
        assert timing.mean_s == stats["mean_s"]
        assert timing.min_s == stats["min_s"]
        assert timing.max_s == stats["max_s"]
        as_dict = timing.to_dict()
        assert as_dict["samples_s"] == [0.3, 0.1, 0.2]
        assert as_dict["warmup"] == 1


class TestSchema:
    def test_filename(self):
        assert bench_filename("des_million") == "BENCH_des_million.json"

    def test_build_record_valid(self):
        record = _valid_record()
        assert record["schema"] == SCHEMA_VERSION
        assert validate_record(record) == []

    def test_build_record_rejects_bad_sections(self):
        with pytest.raises(ValueError, match="invalid bench record"):
            build_record(
                scenario="unit", mode="nope", seed=7, config={},
                determinism={}, timing=_valid_timing(),
                machine={}, created_unix=0.0,
            )

    @pytest.mark.parametrize("corrupt, fragment", [
        ({"schema": "repro-bench/0"}, "schema"),
        ({"mode": "fast"}, "mode"),
        ({"seed": "7"}, "seed"),
        ({"determinism": []}, "determinism"),
        ({"timing": {}}, "wall_s"),
    ])
    def test_validate_flags_corruption(self, corrupt, fragment):
        record = _valid_record(**corrupt)
        problems = validate_record(record)
        assert problems
        assert any(fragment in p for p in problems)

    def test_validate_non_dict(self):
        assert validate_record([1, 2]) != []
        assert validate_record(None) != []

    def test_strip_nondeterministic(self):
        record = _valid_record()
        stable = strip_nondeterministic(record)
        for key in NONDETERMINISTIC_KEYS:
            assert key not in stable
        assert stable["determinism"] == record["determinism"]
        assert stable["scenario"] == record["scenario"]

    def test_modes_are_the_cli_modes(self):
        assert MODES == ("full", "smoke")


class TestCompareRecords:
    def test_identical_records_pass(self):
        comparison = compare_records(_valid_record(), _valid_record())
        assert comparison.ok
        assert comparison.problems == ()

    def test_old_schema_baseline_is_hard_failure(self):
        comparison = compare_records(
            _valid_record(schema="repro-bench/0"), _valid_record()
        )
        assert not comparison.ok
        assert any("baseline record rejected" in p
                   for p in comparison.problems)

    def test_scenario_mismatch_fails(self):
        comparison = compare_records(
            _valid_record(scenario="other"), _valid_record()
        )
        assert not comparison.ok

    def test_determinism_drift_fails_same_mode_and_seed(self):
        current = _valid_record()
        current["determinism"] = dict(current["determinism"],
                                      objective=99.0)
        comparison = compare_records(_valid_record(), current)
        assert not comparison.ok
        assert any("determinism drift" in p for p in comparison.problems)

    def test_determinism_skipped_across_modes(self):
        current = _valid_record(mode="smoke")
        current["determinism"] = dict(current["determinism"],
                                      objective=99.0)
        comparison = compare_records(_valid_record(), current)
        assert comparison.ok
        assert any("determinism skipped" in n for n in comparison.notes)

    def test_ratio_regression_fails_even_across_machines(self):
        current = _valid_record(machine={"platform": "elsewhere"})
        current["timing"] = dict(current["timing"], ratios={"speedup": 1.0})
        comparison = compare_records(_valid_record(), current,
                                     tolerance=0.25)
        assert not comparison.ok
        assert any("ratio regression" in p for p in comparison.problems)

    def test_ratio_within_tolerance_passes(self):
        current = _valid_record()
        current["timing"] = dict(current["timing"], ratios={"speedup": 1.6})
        assert compare_records(_valid_record(), current,
                               tolerance=0.25).ok

    def test_wall_time_only_compared_on_same_machine_and_mode(self):
        slow = _valid_record()
        slow["timing"] = dict(slow["timing"], wall_s=50.0)
        same_machine = compare_records(_valid_record(), slow, tolerance=0.25)
        assert any("wall-time regression" in p
                   for p in same_machine.problems)

        slow_elsewhere = _valid_record(machine={"platform": "elsewhere"})
        slow_elsewhere["timing"] = dict(slow_elsewhere["timing"], wall_s=50.0)
        other_machine = compare_records(_valid_record(), slow_elsewhere,
                                        tolerance=0.25)
        assert other_machine.ok
        assert any("wall-time skipped" in n for n in other_machine.notes)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_records(_valid_record(), _valid_record(), tolerance=-0.1)

    def test_load_record_roundtrip(self, tmp_path):
        path = tmp_path / bench_filename("unit")
        with path.open("w") as fh:
            json.dump(_valid_record(), fh)
        assert load_record(path) == _valid_record()

    def test_load_record_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="JSON object"):
            load_record(path)


class TestScenarioDeterminism:
    """`repro bench` run twice with one seed must agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(TINY_OVERRIDES))
    def test_catalog_covers_scenario(self, name):
        assert name in available_scenarios()

    @pytest.mark.parametrize("name", ["paper_scale", "streaming_ingest",
                                      "warm_vs_cold", "des_cluster",
                                      "des_million"])
    def test_same_seed_identical_nontiming_fields(self, name):
        first = run_scenario(name, mode="smoke",
                             overrides=TINY_OVERRIDES[name])
        second = run_scenario(name, mode="smoke",
                              overrides=TINY_OVERRIDES[name])
        stable_first = strip_nondeterministic(first)
        stable_second = strip_nondeterministic(second)
        # JSON round-trip: what gets committed is what must be stable.
        assert json.loads(json.dumps(stable_first, sort_keys=True)) == \
            json.loads(json.dumps(stable_second, sort_keys=True))
        # Timing fields are present and sane even though they may vary.
        for record in (first, second):
            assert validate_record(record) == []
            assert record["timing"]["wall_s"] > 0
            assert math.isfinite(record["timing"]["peak_rss_mb"])

    def test_seed_override_changes_determinism_section(self):
        base = run_scenario("paper_scale", mode="smoke", seed=1998,
                            overrides=TINY_OVERRIDES["paper_scale"])
        other = run_scenario("paper_scale", mode="smoke", seed=2024,
                             overrides=TINY_OVERRIDES["paper_scale"])
        assert base["seed"] == 1998 and other["seed"] == 2024
        assert base["determinism"] != other["determinism"]

    def test_paper_scale_tracks_certify_overhead(self):
        record = run_scenario("paper_scale", mode="smoke",
                              overrides=TINY_OVERRIDES["paper_scale"])
        # The certify-off-vs-on ratio is the CI gate for verification
        # overhead; every certified solve in the loop must come back
        # clean or the ratio is measuring a broken verifier.
        assert record["timing"]["ratios"]["certify_efficiency"] > 0.0
        det = record["determinism"]
        assert det["certified_solves"] == record["config"]["certify_slots"]
        assert det["certify_error_findings"] == 0

    def test_des_million_reference_engine_agrees(self):
        record = run_scenario("des_million", mode="smoke",
                              overrides=TINY_OVERRIDES["des_million"])
        det = record["determinism"]
        assert det["reference_engine_identical"] is True
        assert det["generated"] > 0
        assert det["relative_error"] < 0.5
        assert "engine_speedup" in record["timing"]["ratios"]
        assert set(record["timing"]["per_phase_s"]) == {"horizon", "drain"}

    def test_des_cluster_simulates_every_job(self):
        record = run_scenario("des_cluster", mode="smoke",
                              overrides=TINY_OVERRIDES["des_cluster"])
        assert record["config"]["slots"] == [0]
        det = record["determinism"]
        assert det["completed"] == det["generated"] > 0
        assert 0.5 < det["realized_over_planned"] < 1.2
        assert set(record["timing"]["per_phase_s"]) == {"simulate"}
        assert record["timing"]["throughput"]["arrivals_per_s"] > 0

    def test_fleet_scenario_scales_servers(self):
        record = run_scenario("fleet_10x", mode="smoke",
                              overrides=TINY_OVERRIDES["fleet_10x"])
        assert record["config"]["fleet_multiplier"] == 10
        assert record["config"]["num_servers"] == 180
        # The default slot pipeline: one phase per SlotTrace stage.
        assert set(record["timing"]["per_phase_s"]) == {
            "build", "solve", "postprocess",
        }
        assert record["timing"]["ratios"] == {}
        det = record["determinism"]
        assert det["fallback_slots"] == 0
        assert len(det["objectives"]) == record["config"]["num_slots"]

    def test_streaming_ingest_tracks_solve_reduction(self):
        record = run_scenario(
            "streaming_ingest", mode="smoke",
            overrides=TINY_OVERRIDES["streaming_ingest"],
        )
        det = record["determinism"]
        assert det["drift_full_solves"] <= det["periodic_full_solves"]
        assert det["equivalence_max_rel_diff"] < 1e-6
        assert len(det["drift_profit_series"]) == det["num_slots"]
        ratios = record["timing"]["ratios"]
        assert ratios["resolve_reduction"] >= 1.0
        assert ratios["profit_ratio"] == pytest.approx(1.0, rel=1e-6)
        assert record["timing"]["throughput"]["ticks_per_s"] > 0
        # Every timed tick stage is attributed, not just the solves.
        phases = record["timing"]["per_phase_s"]
        assert set(phases) == {"margin", "repair", "plan_slot", "score"}
        assert phases["score"] > 0 and phases["plan_slot"] > 0


class TestMedianDedupe:
    """Fig. 11 and bench_warmstart share the scenarios' median."""

    @staticmethod
    def _load_benchmarks_module(name):
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        try:
            return pytest.importorskip(name)
        finally:
            sys.path.pop(0)

    def test_bench_warmstart_uses_shared_summarize(self):
        bench_warmstart = self._load_benchmarks_module("bench_warmstart")
        assert bench_warmstart.summarize_times is summarize_times

    def test_fig11_uses_shared_runner(self):
        from repro.experiments import figures
        assert figures.summarize_times is summarize_times
        assert figures.time_callable is time_callable

    def test_shared_median_matches_numpy_on_fixed_samples(self):
        # The pinned contract: both benchmark scripts and the scenarios
        # reduce repeats with this exact statistic.
        rng = np.random.default_rng(1998)
        for n in (1, 2, 3, 5, 8):
            samples = rng.uniform(0.001, 2.0, size=n).tolist()
            assert summarize_times(samples)["median_s"] == \
                pytest.approx(float(np.median(samples)), abs=1e-15)

    def test_warmstart_record_median_is_shared_median(self, monkeypatch):
        bench_warmstart = self._load_benchmarks_module("bench_warmstart")
        record = bench_warmstart.measure_warmstart(
            servers_per_dc=2, num_slots=2, repeats=3, seed=2010,
        )
        assert record["speedup"] == pytest.approx(
            float(np.median(record["speedup_per_repeat"])), abs=1e-15,
        )
        assert record["speedup"] == \
            summarize_times(record["speedup_per_repeat"])["median_s"]
