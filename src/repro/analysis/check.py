"""The ``repro check`` umbrella subcommand (wired up by :mod:`repro.cli`).

Runs the whole trust stack in one invocation — reprolint (``RP0xx``),
the formulation auditor (``MD0xx``), the optimality certifier
(``CT0xx``) and the architecture auditor (``AR0xx``) — and reports a
unified JSON document plus a worst-of exit code:

* ``0`` — every check gate passed;
* ``1`` — at least one check found gate-failing findings;
* ``2`` — usage error in any check (dominates findings).

Individual checks can be skipped (``--skip certify``), which is
recorded in the report rather than silently omitted.  CI runs this as
its smoke gate and uploads the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    SEVERITIES,
    worst_exit_code,
)
from repro.cli_registry import register_subcommand

__all__ = ["CHECK_NAMES", "add_check_arguments", "run_check", "run_checks"]

#: Execution order: cheap AST passes first, solver-backed last.
CHECK_NAMES = ("lint", "arch", "audit", "certify")

_DEFAULT_PATHS = ["src"]


def _summarize(findings: List[Dict]) -> Dict[str, int]:
    counts = {name: 0 for name in SEVERITIES}
    for record in findings:
        severity = record.get("severity")
        if severity in counts:
            counts[severity] += 1
    return {
        "findings": len(findings),
        "errors": counts["error"],
        "warnings": counts["warning"],
        "info": counts["info"],
    }


def _check_lint(paths: List[str], options: Dict) -> Tuple[int, Dict]:
    from repro.analysis.runner import LintReport, lint_paths

    report: LintReport = lint_paths(paths)
    findings = [d.to_dict() for d in report.findings]
    return (
        EXIT_CLEAN if report.clean else EXIT_FINDINGS,
        {
            "findings": findings,
            "summary": _summarize(findings),
            "details": {
                "files_checked": report.files_checked,
                "suppressed": report.suppressed,
            },
        },
    )


def _check_arch(paths: List[str], options: Dict) -> Tuple[int, Dict]:
    from repro.analysis.arch import audit_tree

    report = audit_tree(
        paths, api_baseline_path=options.get("api_baseline")
    )
    findings = [f.to_dict() for f in report.findings]
    details = dict(report.details)
    details["suppressed"] = report.suppressed
    return (
        EXIT_CLEAN if report.clean else EXIT_FINDINGS,
        {
            "findings": findings,
            "summary": _summarize(findings),
            "details": details,
        },
    )


def _check_audit(paths: List[str], options: Dict) -> Tuple[int, Dict]:
    from repro.analysis.model.cli import _scenario_inputs
    from repro.analysis.model import audit_slot

    inputs = _scenario_inputs(options["scenario"], options["slot"])
    report = audit_slot(inputs)
    findings = [f.to_dict() for f in report.findings]
    return (
        EXIT_CLEAN if report.clean else EXIT_FINDINGS,
        {
            "findings": findings,
            "summary": _summarize(findings),
            "details": {
                "scenario": options["scenario"],
                "slot": options["slot"],
            },
        },
    )


def _check_certify(paths: List[str], options: Dict) -> Tuple[int, Dict]:
    from repro.analysis.certify.cli import _certify_slots

    slots = list(range(options["certify_slots"]))
    found, details = _certify_slots(
        options["scenario"], slots, "auto", "highs"
    )
    findings = [f.to_dict() for f in found]
    errors = sum(1 for f in found if f.severity == "error")
    return (
        EXIT_FINDINGS if errors else EXIT_CLEAN,
        {
            "findings": findings,
            "summary": _summarize(findings),
            "details": details,
        },
    )


_RUNNERS: Dict[str, Callable[[List[str], Dict], Tuple[int, Dict]]] = {
    "lint": _check_lint,
    "arch": _check_arch,
    "audit": _check_audit,
    "certify": _check_certify,
}


def run_checks(
    paths: List[str],
    *,
    skip: Tuple[str, ...] = (),
    scenario: str = "section6",
    slot: int = 0,
    certify_slots: int = 1,
    api_baseline: str = "API_SURFACE.json",
) -> Tuple[int, Dict]:
    """Run every non-skipped check; returns (exit_code, report dict).

    The report shape is stable for scripting::

        {"checks": {name: {"exit_code", "findings", "summary",
                           "details"} | {"skipped": true}},
         "summary": {"exit_code", "ran", "skipped"}}
    """
    options = {
        "scenario": scenario,
        "slot": slot,
        "certify_slots": certify_slots,
        "api_baseline": api_baseline,
    }
    checks: Dict[str, Dict] = {}
    codes: List[int] = []
    ran: List[str] = []
    for name in CHECK_NAMES:
        if name in skip:
            checks[name] = {"skipped": True}
            continue
        try:
            code, payload = _RUNNERS[name](paths, options)
        except FileNotFoundError as exc:
            code, payload = EXIT_USAGE, {"error": str(exc)}
        except ValueError as exc:
            code, payload = EXIT_USAGE, {"error": str(exc)}
        checks[name] = {"exit_code": code, **payload}
        codes.append(code)
        ran.append(name)
    exit_code = worst_exit_code(codes)
    report = {
        "checks": checks,
        "summary": {
            "exit_code": exit_code,
            "ran": ran,
            "skipped": sorted(skip),
        },
    }
    return exit_code, report


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro check`` flags to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="tree passed to the lint and arch checks (default: src)",
    )
    parser.add_argument(
        "--skip", action="append", default=None,
        choices=list(CHECK_NAMES), metavar="CHECK",
        help="skip one check (repeatable); recorded in the report",
    )
    parser.add_argument(
        "--scenario", choices=["section5", "section6", "section7"],
        default="section6",
        help="scenario for the audit and certify checks "
             "(default: section6)",
    )
    parser.add_argument(
        "--slot", type=int, default=0,
        help="slot audited by the audit check (default: 0)",
    )
    parser.add_argument(
        "--certify-slots", type=int, default=1, metavar="N",
        help="certify slots 0..N-1 (default: 1)",
    )
    parser.add_argument(
        "--api-baseline", type=str, default="API_SURFACE.json",
        metavar="FILE",
        help="API-surface snapshot for the arch check "
             "(default: API_SURFACE.json)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="additionally write the JSON report to this file",
    )


@register_subcommand(
    "check",
    help_text="run lint + arch + audit + certify in one gate; "
              "worst-of exit code",
    configure=add_check_arguments,
)
def run_check(args: argparse.Namespace) -> int:
    """Execute ``repro check`` for parsed ``args``; returns the exit
    code."""
    if args.certify_slots < 1:
        print(
            f"error: --certify-slots must be >= 1 (got "
            f"{args.certify_slots})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.slot < 0:
        print(f"error: --slot must be >= 0 (got {args.slot})",
              file=sys.stderr)
        return EXIT_USAGE
    paths = args.paths or _DEFAULT_PATHS
    skip = tuple(dict.fromkeys(args.skip or ()))
    exit_code, report = run_checks(
        paths,
        skip=skip,
        scenario=args.scenario,
        slot=args.slot,
        certify_slots=args.certify_slots,
        api_baseline=args.api_baseline,
    )

    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if args.format == "json":
        print(rendered)
        return exit_code

    for name in CHECK_NAMES:
        entry = report["checks"][name]
        if entry.get("skipped"):
            print(f"{name:8s} skipped")
            continue
        if "error" in entry:
            print(f"{name:8s} usage error: {entry['error']}")
            continue
        summary = entry["summary"]
        verdict = "ok" if entry["exit_code"] == EXIT_CLEAN else "FAIL"
        print(
            f"{name:8s} {verdict}  {summary['findings']} finding(s): "
            f"{summary['errors']} error(s), "
            f"{summary['warnings']} warning(s), {summary['info']} info"
        )
    print(f"check: exit {exit_code}")
    return exit_code


def _standalone(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis.check`` — the gate without the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="umbrella gate: lint + arch + audit + certify",
    )
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(_standalone())
