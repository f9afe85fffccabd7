"""One benchmark process: set up one workload, then measure or check it.

``run.py`` starts this script in a fresh process per role:

* ``main``    — set up, then run timed passes for ``--seconds`` and check
  every output; with ``--trace 1`` half the time runs untraced and half
  with span wrappers installed, and the per-layer metrics come out;
* ``probe``   — set up and run the untimed warm-up pass only: a further
  set-up time sample, and a second process whose profit and counts
  must equal the main process's;
* ``heldout`` — set up and run every check, on a seed the benchmark was
  not tuned on: a third set-up time sample.

Every time is divided by the host slowness that ``calibrate.py``
measures next to it, so it reads as the time at the reference host's
speed; the raw wall times are printed as notes.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Span name -> the per-layer metric its self time adds to.
SELF_METRICS = {
    "controller": "controller.self_s",
    "optimizer.plan_slot": "optimizer.plan_slot.self_s",
    "formulation.build": "formulation.build.s",
    "optimizer.decode": "optimizer.decode.s",
    "solvers.solve_lp": "solvers.solve_lp.self_s",
    "solvers.linprog": "solvers.linprog.self_s",
    "solvers.highs": "solvers.highs.s",
    "plan.spare_capacity": "plan.spare_capacity.s",
    "plan.construct": "plan.construct.s",
    "validation": "validation.s",
    "objective.evaluate": "objective.evaluate.s",
    "stream.tick": "stream.controller.self_s",
    "stream.ingest": "stream.ingest.s",
    "stream.estimate": "stream.estimate.s",
    "stream.admit": "stream.admit.s",
    "stream.decide": "stream.decide.s",
    "stream.repair": "stream.repair.s",
    "des.slot": "des.build_account.s",
    "des.build_account": "des.build_account.s",
    "des.dispatch": "des.dispatch.s",
    "des.drain": "des.drain.s",
}
#: Span name -> the per-layer metric counting its calls.
CALL_METRICS = {
    "formulation.build": "formulation.build.calls",
    "solvers.solve_lp": "solvers.solve_lp.calls",
    "optimizer.plan_slot": "optimizer.plan_slot.calls",
    "plan.construct": "plan.construct.calls",
    "validation": "validation.calls",
    "objective.evaluate": "objective.evaluate.calls",
    "stream.repair": "stream.repair.calls",
}
#: Latency needs >= 10 samples beyond p99.
MIN_LATENCY_OPS = 1000
#: Host-slowness samples taken right after set-up; their median counts.
SETUP_CALIBRATIONS = 3
#: Seconds between host-slowness samples in a timed pass.
SAMPLE_INTERVAL_S = 0.1


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def kept_op_times(passes, slowness):
    """For each op position of a pass, the faster half of its repeats,
    each divided by the host slowness measured around it.

    Within a second the host's speed varies more than the slowness
    samples follow.  Each op repeats once per pass with the same input,
    so its faster repeats are the ones that ran least disturbed; keeping
    the same number for every position keeps the workload's op mix.
    """
    kept = []
    scaled = ([t / s for t, s in zip(p.op_times, per_op)]
              for p, per_op in zip(passes, slowness))
    for repeats in zip(*scaled):
        kept += sorted(repeats)[:(len(repeats) + 1) // 2]
    return kept


def timed_passes(run_one, host, seconds, min_ops):
    """Call ``run_one(host)`` for passes until ``seconds`` have gone and
    ``min_ops`` op times are kept (giving up on the count at 3x
    ``seconds``).  Returns the passes and each pass's per-op slowness."""
    passes, slowness = [], []
    start = time.perf_counter()
    while True:
        host.begin_pass()
        passes.append(run_one(host))
        slowness.append(host.end_pass(len(passes[-1].op_times)))
        elapsed = time.perf_counter() - start
        kept = (len(passes) + 1) // 2 * len(passes[0].op_times)
        if elapsed >= seconds and (kept >= min_ops or elapsed >= 3 * seconds):
            return passes, slowness


def mismatches(reference, passes, label):
    """Messages for passes whose profit or counts differ from ``reference``."""
    return [
        f"{label} pass {i}: profit {p.profit!r} counts {p.counts} != "
        f"{reference.profit!r} {reference.counts}"
        for i, p in enumerate(passes)
        if p.profit != reference.profit or p.counts != reference.counts
    ]


def absorb(out, result):
    """Add a checked pass (or reference check) to the process's totals."""
    out["failed_ops"] |= result.failed_ops
    out["errors"] += result.errors
    out["notes"].update(result.notes)


def layer_row(tracer, result, mark, wall):
    """Per-layer metrics of one traced pass (spans from index ``mark``)."""
    self_s, calls, top = tracer.self_times(mark)
    unknown = set(self_s) - set(SELF_METRICS)
    if unknown:
        raise RuntimeError(f"spans with no layer metric: {sorted(unknown)}")
    row = {name: 0.0 for name in SELF_METRICS.values()}
    for span, seconds in self_s.items():
        row[SELF_METRICS[span]] += seconds
    for span, metric in CALL_METRICS.items():
        row[metric] = calls.get(span, 0)
    row["unattributed_s"] = wall - top
    row["traced_wall_s"] = wall
    counts = tracer.counts
    row["solvers.iterations"] = counts["solvers.iterations"]
    offered = counts["solvers.warm_offered"]
    row["solvers.warm_hit_ratio"] = (
        counts["solvers.warm_used"] / offered if offered else 0.0)
    row["optimizer.fallbacks"] = counts["optimizer.fallbacks"]
    c = result.counts
    repairs, escalations = c.get("repairs", 0), c.get("escalations", 0)
    row["stream.resolves"] = c.get("full_solves", 0)
    row["stream.repair_accept_ratio"] = (
        repairs / (repairs + escalations) if repairs + escalations else 0.0)
    row["des.events"] = c.get("events", 0)
    row["des.events_per_arrival"] = (
        c["events"] / c["generated"] if c.get("generated") else 0.0)
    return row


def traced_run(workload, host, seconds, warm, out, spans_path):
    """Untraced then traced passes; per-layer metrics into ``out``.

    These passes take no slowness samples between ops, which would land
    inside the traced wall; a pass's slowness comes from the samples
    just before and just after it."""
    from tracing import Tracer, installed

    untraced, untraced_slowness = timed_passes(
        lambda host: workload.run_pass(), host, seconds / 2, 0)
    tracer = Tracer()
    rows = []

    def traced_pass(host):
        mark = len(tracer.spans)
        tracer.counts.clear()
        tracer.paused_s = 0.0
        tracer.on = True
        pass_start = time.perf_counter()
        result = workload.run_pass(tracer)
        pass_end = time.perf_counter()
        tracer.on = False
        wall = pass_end - pass_start - tracer.paused_s
        row = layer_row(tracer, result, mark, wall)
        problems = tracer.problems(mark, (pass_start, pass_end))
        if row["unattributed_s"] < 0:
            problems.append(f"top-level spans {wall - row['unattributed_s']:g}"
                            f" s exceed the traced wall {wall:g} s")
        out["errors"] += [f"traced pass {len(rows)}: {p}" for p in problems]
        rows.append(row)
        return result

    origin = time.perf_counter()
    with installed(lambda rb: workload.install(rb, tracer)):
        traced, traced_slowness = timed_passes(
            traced_pass, host, seconds / 2, 0)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_jsonl(spans_path, origin)

    for row, per_op in zip(rows, traced_slowness):
        for name in row:
            if name.endswith(("_s", ".s")):
                row[name] /= per_op[0] if per_op else 1.0
    layers = {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
    layers["trace_overhead_ratio"] = (
        statistics.mean(kept_op_times(traced, traced_slowness))
        / statistics.mean(kept_op_times(untraced, untraced_slowness)))
    out["layers"] = layers
    out["traced_passes"] = len(traced)
    out["spans"] = len(tracer.spans)
    out["errors"] += mismatches(warm, untraced, "untraced")
    out["errors"] += mismatches(warm, traced, "traced")
    for p in untraced + traced:
        absorb(out, p)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "heldout"),
                        default="main")
    parser.add_argument("--spans", default=os.path.join(HERE, "out",
                                                        "spans.jsonl"))
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.run_pass()
    setup_wall_s = time.perf_counter() - T0

    from calibrate import Calibration, HostSpeed

    calibration = Calibration()
    setup_slowness = statistics.median(calibration.slowness()
                                       for _ in range(SETUP_CALIBRATIONS))
    out = {"setup_s": setup_wall_s / setup_slowness,
           "setup_wall_s": setup_wall_s, "profit": warm.profit,
           "counts": warm.counts, "ops_per_pass": workload.ops_per_pass,
           "failed_ops": set(), "errors": [], "notes": {}}
    absorb(out, warm)
    if args.role == "heldout" and hasattr(workload, "reference_check"):
        absorb(out, workload.reference_check(warm))
    if args.role == "main":
        host = HostSpeed(calibration, SAMPLE_INTERVAL_S)
    if args.role == "main" and args.trace:
        traced_run(workload, host, args.seconds, warm, out, args.spans)
    elif args.role == "main":
        min_ops = MIN_LATENCY_OPS if workload.latency else 0
        passes, slowness = timed_passes(
            lambda host: workload.run_pass(host=host), host, args.seconds,
            min_ops)
        times = sorted(kept_op_times(passes, slowness))
        wall = sorted(kept_op_times(passes, [[1.0] * len(p.op_times)
                                             for p in passes]))
        ops_per_s = len(times) / sum(times)
        p99 = percentile(times, 0.99)
        out.update({
            "passes": len(passes),
            "ops": len(times),
            "latency_p50_s": percentile(times, 0.50),
            "latency_p99_s": p99,
            "beyond_p99": sum(t > p99 for t in times),
            "ops_per_s": ops_per_s,
            "arrivals_per_s": ops_per_s * passes[0].requests
            / workload.ops_per_pass,
            "host_slowness": statistics.median(sum(slowness, [])),
            "wall_latency_p50_s": percentile(wall, 0.50),
        })
        for p in passes:
            absorb(out, p)
        out["errors"] += mismatches(warm, passes, "timed")
        if hasattr(workload, "reference_check"):
            absorb(out, workload.reference_check(passes[0]))
    out["failed_ops"] = len(out["failed_ops"])
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
