"""The ``repro certify`` subcommand (wired up by :mod:`repro.cli`).

Solves one or more slots of a canned experiment scenario with the
optimality certifier active and reports every ``CT0xx`` finding.  Exit
codes follow the same gate convention as ``repro lint`` and ``repro
audit``:

* ``0`` — every certified solve is clean (warnings/info may be present);
* ``1`` — at least one CT error (a solve failed independent
  verification);
* ``2`` — usage error (bad slot index, unwritable report path).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.analysis.certify.findings import (
    CertFinding,
    render_certify_json,
    render_certify_text,
)
from repro.analysis.certify.registry import all_certify_rules
from repro.cli_registry import register_subcommand

__all__ = ["add_certify_arguments", "run_certify"]

_SCENARIOS = ("section5", "section6", "section7")


def add_certify_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro certify`` flags to ``parser``."""
    parser.add_argument(
        "--scenario", choices=list(_SCENARIOS), default="section6",
        help="experiment whose slots to solve and certify "
             "(default: section6)",
    )
    parser.add_argument(
        "--slot", type=int, default=0,
        help="certify this slot (the optimizer still warms up from "
             "slot 0 so the certified solve is the realistic "
             "warm-started one; default: 0)",
    )
    parser.add_argument(
        "--slots", type=int, default=None, metavar="N",
        help="certify slots 0..N-1 instead of a single slot "
             "(e.g. the scenario's full day)",
    )
    parser.add_argument(
        "--method",
        choices=["auto", "lp", "milp", "bigm", "greedy"], default="auto",
        help="level method to solve with (default: auto)",
    )
    parser.add_argument(
        "--lp-method", choices=["highs", "simplex", "ipm"],
        default="highs", help="LP backend (default: highs)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="additionally write the JSON report to this file",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print the certificate check catalog (codes, rationale) "
             "and exit",
    )


def _print_checks() -> None:
    # Import for the registration side effect (mirrors ``repro audit
    # --list-checks``); the checks register on import of the package.
    import repro.analysis.certify  # noqa: F401

    for rule in all_certify_rules():
        print(f"{rule.code}  {rule.name}")
        for code in sorted(rule.codes):
            print(f"    {code}: {rule.codes[code]}")
        print(f"    {rule.rationale}")


def _scenario_experiment(scenario: str) -> object:
    if scenario == "section5":
        from repro.experiments.section5 import section5_experiment
        return section5_experiment("low")
    if scenario == "section6":
        from repro.experiments.section6 import section6_experiment
        return section6_experiment()
    from repro.experiments.section7 import section7_experiment
    return section7_experiment()


def _certify_slots(
    scenario: str, slots: List[int], method: str, lp_method: str,
) -> "tuple[List[CertFinding], Dict]":
    """Solve slots 0..max(slots) and collect certificates for ``slots``.

    Findings are re-anchored with a ``slot<N>:`` component prefix so a
    multi-slot report stays readable.  Returns the findings plus a
    details payload (slots certified, solver counters).
    """
    from repro.core.config import OptimizerConfig
    from repro.core.optimizer import ProfitAwareOptimizer
    from repro.obs import InMemoryCollector

    exp = _scenario_experiment(scenario)
    collector = InMemoryCollector()
    config = OptimizerConfig(
        level_method=method,
        lp_method=lp_method,
        certify="warn",
        collector=collector,
    )
    optimizer = ProfitAwareOptimizer(exp.topology, config=config)
    wanted = set(slots)
    for slot in range(max(slots) + 1):
        optimizer.plan_slot(
            exp.trace.arrivals_at(slot), exp.market.prices_at(slot)
        )
    findings: List[CertFinding] = []
    for trace in collector.slot_traces:
        if trace.slot not in wanted:
            continue
        for record in trace.certificates:
            findings.append(CertFinding(
                code=record["code"],
                severity=record["severity"],
                component=f"slot{trace.slot}:{record['component']}",
                message=record["message"],
                data=record.get("data", {}),
            ))
    details = {
        "scenario": scenario,
        "slots_certified": sorted(wanted),
        "solves_certified": collector.counters.get(
            "optimizer.certifies", 0
        ),
        "solves_skipped": collector.counters.get(
            "optimizer.certify_skipped", 0
        ),
    }
    return findings, details


@register_subcommand(
    "certify",
    help_text="solve scenario slots and independently verify the "
              "optimality certificates; exit 1 on CT-level errors",
    configure=add_certify_arguments,
)
def run_certify(args: argparse.Namespace) -> int:
    """Execute ``repro certify`` for parsed ``args``; returns the exit
    code."""
    if args.list_checks:
        _print_checks()
        return 0
    if args.slots is not None:
        if args.slots < 1:
            print(f"error: --slots must be >= 1 (got {args.slots})",
                  file=sys.stderr)
            return 2
        slots = list(range(args.slots))
    else:
        if args.slot < 0:
            print(f"error: --slot must be >= 0 (got {args.slot})",
                  file=sys.stderr)
            return 2
        slots = [args.slot]

    findings, details = _certify_slots(
        args.scenario, slots, args.method, args.lp_method
    )
    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity == "warning"]

    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(
                    render_certify_json(findings, details=details) + "\n"
                )
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        print(render_certify_json(findings, details=details))
    else:
        if findings:
            print(render_certify_text(findings))
            print()
        else:
            print("certificates: clean")
        print(
            f"{args.scenario} slot(s) "
            f"{slots[0] if len(slots) == 1 else f'0..{slots[-1]}'}: "
            f"{details['solves_certified']:g} solve(s) certified, "
            f"{len(findings)} finding(s): {len(errors)} error(s), "
            f"{len(warnings)} warning(s), "
            f"{len(findings) - len(errors) - len(warnings)} info"
        )
    return 1 if errors else 0


def _standalone(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis.certify.cli`` — the gate without the
    CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-certify",
        description="optimality-certificate verifier for solved slots",
    )
    add_certify_arguments(parser)
    return run_certify(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(_standalone())
