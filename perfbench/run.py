"""External benchmark of the profit-aware dispatcher.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_day --seed 1 --seconds 30 --trace 0

Each workload runs in fresh single-threaded processes (BLAS/OpenMP
pinned to one thread) started by ``worker.py``.  With ``--trace 0``
the run prints every end-to-end metric; with ``--trace 1`` it prints
every per-layer metric.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output checked out.  See ``README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Added to ``--seed`` for the held-out correctness probe.
HELDOUT_OFFSET = 100_003
#: Extra processes before the main one; with it, three set-up samples.
PROBE_ROLES = ("probe", "heldout")
#: Wall-clock limit for one worker process.
WORKER_TIMEOUT_S = 120


def load_spec():
    """Workload names and ``{metric: unit}`` tables from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], units


def worker(role, args, seed):
    """Run ``worker.py`` in a fresh pinned process; return its JSON line."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spans = os.path.join(HERE, "out",
                         f"{args.workload}-seed{seed}.spans.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--spans", spans]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{role} worker failed with exit code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    workloads, units = load_spec()
    args = parse_args(argv, workloads)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit(f"no program source at {os.path.join(ROOT, 'src')}")

    errors = []
    probes = []
    if not args.trace:
        for role in PROBE_ROLES:
            seed = args.seed + HELDOUT_OFFSET if role == "heldout" \
                else args.seed
            probes.append(worker(role, args, seed))
    main_run = worker("main", args, args.seed)
    runs = [main_run] + probes
    # An op is one position of a pass in one process; it failed if any
    # pass of that process, or its reference check, failed it.
    attempted = sum(r["ops_per_pass"] for r in runs)
    failed = sum(r["failed_ops"] for r in runs)
    for r in runs:
        errors += r["errors"]
    for role, probe in zip(PROBE_ROLES, probes):
        same = (probe["profit"], probe["counts"]) == \
            (main_run["profit"], main_run["counts"])
        if role == "probe" and not same:
            errors.append(f"second process disagrees: {probe['profit']!r} "
                          f"{probe['counts']} vs {main_run['profit']!r} "
                          f"{main_run['counts']}")

    notes = dict(main_run["notes"])
    for role, probe in zip(PROBE_ROLES, probes):
        if role == "heldout":
            notes.update({f"heldout.{k}": v
                          for k, v in probe["notes"].items()})
    if args.trace:
        values = main_run["layers"]
        units = units["per_layer"]
        notes.update(traced_passes=main_run["traced_passes"],
                     spans=main_run["spans"])
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "latency_p50_ms": 1e3 * main_run["latency_p50_s"],
            "latency_p99_ms": 1e3 * main_run["latency_p99_s"],
            "ops_per_s": main_run["ops_per_s"],
            "arrivals_per_s": main_run["arrivals_per_s"],
            "net_profit_usd": main_run["profit"],
            "success_frac": 1.0 - failed / attempted,
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        units = units["end_to_end"]
        notes.update(
            kept_ops=main_run["ops"], passes=main_run["passes"],
            samples_beyond_p99=main_run["beyond_p99"],
            host_slowness=main_run["host_slowness"],
            wall_latency_p50_ms=1e3 * main_run["wall_latency_p50_s"],
            wall_setup_s=statistics.median(r["setup_wall_s"] for r in runs),
            counts=main_run["counts"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for name, value in notes.items():
        print(f"{args.workload} note {name} = {value}")
    for message in errors:
        print(f"{args.workload} ERROR {message}")
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
