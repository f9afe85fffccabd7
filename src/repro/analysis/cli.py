"""The analysis subcommands: ``repro lint|arch|audit|certify|check``.

One runner per tool turns parsed options into a
:class:`~repro.analysis.report.Report`.  ``repro <tool>`` is a thin
alias running one of them; ``repro check`` runs every tool not named
by ``--skip`` and reports a unified JSON document with a worst-of exit
code.  Exit codes, shared by all five:

* ``0`` — every gate passed (lint and arch fail on any finding, audit
  and certify only on error-severity findings);
* ``1`` — at least one gate-failing finding;
* ``2`` — usage error: a missing path, an out-of-range slot, a corrupt
  baseline, an unwritable report (dominates findings in ``check``).

The audit and certify tools read a canned scenario's slot problems;
``--slot``/``--slots``/``--certify-slots`` must lie inside the
scenario's trace (1, 24 and 7 slots for section 5, 6 and 7).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis.arch import (
    audit_tree,
    build_api_surface,
    build_tree_index,
    render_api_surface,
)
from repro.analysis.model import AuditThresholds, audit_slot
from repro.analysis.report import (
    EXIT_CLEAN,
    EXIT_USAGE,
    TOOLS,
    Finding,
    Report,
    apply_baseline,
    read_baseline,
    rules,
    severity_summary,
    tool,
    worst_exit_code,
    write_baseline,
)
from repro.analysis.runner import lint_paths
from repro.cli_registry import register_subcommand

__all__ = ["CHECK_NAMES", "run_checks"]

#: ``repro check`` order: cheap AST passes first, solver-backed last.
CHECK_NAMES = tuple(t.name for t in TOOLS)

_SCENARIOS = ("section5", "section6", "section7")

# ---------------------------------------------------------------- flags
#
# Every flag is declared once; each subcommand picks its own set.

_FLAGS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "paths": (("paths",), dict(
        nargs="*", default=None, metavar="PATH",
        help="files or package roots to analyse (default: src)")),
    "skip": (("--skip",), dict(
        action="append", default=None, choices=list(CHECK_NAMES),
        metavar="CHECK",
        help="skip one check (repeatable); recorded in the report")),
    "scenario": (("--scenario",), dict(
        choices=list(_SCENARIOS), default="section6",
        help="experiment whose slot problems to analyse "
             "(default: section6)")),
    "slot": (("--slot",), dict(
        type=int, default=0,
        help="slot to audit or certify, within the scenario's trace "
             "(default: 0; certify solves from slot 0 to warm up)")),
    "slots": (("--slots",), dict(
        type=int, default=None, metavar="N",
        help="certify slots 0..N-1 instead of a single slot")),
    "certify_slots": (("--certify-slots",), dict(
        type=int, default=1, metavar="N", dest="slots",
        help="certify slots 0..N-1 (default: 1)")),
    "big": (("--big",), dict(
        type=float, default=None,
        help="big-M constant to audit (default: the bigm path's default)")),
    "bigm_ratio_limit": (("--bigm-ratio-limit",), dict(
        type=float, default=None,
        help="flag BIG more than this factor above the data-driven "
             "minimum (default: 100)")),
    "row_decades_limit": (("--row-decades-limit",), dict(
        type=float, default=None,
        help="flag rows/columns spanning more than this many log10 "
             "decades (default: 6)")),
    "method": (("--method",), dict(
        choices=["auto", "lp", "milp", "bigm", "greedy"], default="auto",
        help="level method to solve with (default: auto)")),
    "lp_method": (("--lp-method",), dict(
        choices=["highs", "simplex", "ipm"], default="highs",
        help="LP backend (default: highs)")),
    "api_baseline": (("--api-baseline",), dict(
        default="API_SURFACE.json", metavar="FILE",
        help="API-surface snapshot to diff against (default: "
             "API_SURFACE.json; a missing file disables the diff)")),
    "write_api_baseline": (("--write-api-baseline",), dict(
        action="store_true",
        help="write the live API surface to --api-baseline FILE and "
             "exit 0 (the deliberate way to accept surface changes)")),
    "usage_paths": (("--usage-path",), dict(
        action="append", default=None, metavar="PATH", dest="usage_paths",
        help="extra tree consulted for name usage (repeatable; "
             "default: tests, benchmarks, examples when present)")),
    "baseline": (("--baseline",), dict(
        default=None, metavar="FILE",
        help="filter findings recorded in this baseline file; new "
             "findings still fail the run")),
    "write_baseline": (("--write-baseline",), dict(
        action="store_true",
        help="write the current findings to --baseline FILE and exit 0")),
    "format": (("--format",), dict(
        choices=["text", "json"], default="text",
        help="report format (default: text)")),
    "out": (("--out",), dict(
        default=None, metavar="FILE",
        help="additionally write the JSON report to this file")),
    "list_rules": (("--list-rules",), dict(
        action="store_true",
        help="print the rule catalog (codes, rationale) and exit")),
}

_COMMAND_FLAGS = {
    "lint": ("paths", "format", "baseline", "write_baseline", "list_rules"),
    "arch": ("paths", "format", "out", "baseline", "write_baseline",
             "api_baseline", "write_api_baseline", "usage_paths",
             "list_rules"),
    "audit": ("scenario", "slot", "big", "format", "out",
              "bigm_ratio_limit", "row_decades_limit", "list_rules"),
    "certify": ("scenario", "slot", "slots", "method", "lp_method",
                "format", "out", "list_rules"),
    "check": ("paths", "skip", "scenario", "slot", "certify_slots",
              "api_baseline", "format", "out"),
}

#: Options a tool runner reads that ``repro check`` does not expose.
_CHECK_DEFAULTS = {
    "big": None, "bigm_ratio_limit": None, "row_decades_limit": None,
    "method": "auto", "lp_method": "highs", "usage_paths": None,
}


def _configure(name: str) -> Callable[[argparse.ArgumentParser], None]:
    def configure(parser: argparse.ArgumentParser) -> None:
        for flag in _COMMAND_FLAGS[name]:
            names, kwargs = _FLAGS[flag]
            parser.add_argument(*names, **kwargs)
        if name == "check":
            parser.set_defaults(**_CHECK_DEFAULTS)

    return configure


# -------------------------------------------------------------- runners


def _experiment(scenario: str) -> Any:
    if scenario == "section5":
        from repro.experiments.section5 import section5_experiment
        return section5_experiment("low")
    if scenario == "section6":
        from repro.experiments.section6 import section6_experiment
        return section6_experiment()
    from repro.experiments.section7 import section7_experiment
    return section7_experiment()


def _require_slot(exp: Any, scenario: str, last: int) -> None:
    """Reject a slot past the trace; the trace would wrap it silently."""
    length = exp.trace.num_slots
    if last >= length:
        raise ValueError(
            f"slot {last} is out of range: the {scenario} trace has "
            f"{length} slot(s) (0..{length - 1})"
        )


def _run_lint(args: argparse.Namespace) -> Report:
    return lint_paths(args.paths or ["src"])


def _run_arch(args: argparse.Namespace) -> Report:
    return audit_tree(
        args.paths or ["src"],
        usage_paths=args.usage_paths,
        api_baseline_path=args.api_baseline,
    )


def _run_audit(args: argparse.Namespace) -> Report:
    from repro.core.formulation import SlotInputs

    exp = _experiment(args.scenario)
    _require_slot(exp, args.scenario, args.slot)
    thresholds = AuditThresholds()
    if args.bigm_ratio_limit is not None:
        thresholds.bigm_ratio_limit = args.bigm_ratio_limit
    if args.row_decades_limit is not None:
        thresholds.row_decades_limit = args.row_decades_limit
    inputs = SlotInputs(
        topology=exp.topology,
        arrivals=exp.trace.arrivals_at(args.slot),
        prices=exp.market.prices_at(args.slot),
    )
    return audit_slot(inputs, big=args.big, thresholds=thresholds)


def _run_certify(args: argparse.Namespace) -> Report:
    """Solve slots 0..last with certify on; report the wanted slots.

    Findings are re-anchored with a ``slot<N>:`` component prefix so a
    multi-slot report stays readable.
    """
    from repro.core.config import OptimizerConfig
    from repro.core.optimizer import ProfitAwareOptimizer
    from repro.obs import InMemoryCollector

    slots = list(range(args.slots)) if args.slots is not None else [args.slot]
    exp = _experiment(args.scenario)
    _require_slot(exp, args.scenario, slots[-1])
    collector = InMemoryCollector()
    optimizer = ProfitAwareOptimizer(exp.topology, config=OptimizerConfig(
        level_method=args.method,
        lp_method=args.lp_method,
        certify="warn",
        collector=collector,
    ))
    for slot in range(slots[-1] + 1):
        optimizer.plan_slot(
            exp.trace.arrivals_at(slot), exp.market.prices_at(slot)
        )
    findings = [
        Finding(
            code=record["code"],
            severity=record["severity"],
            component=f"slot{trace.slot}:{record['component']}",
            message=record["message"],
            data=record.get("data", {}),
        )
        for trace in collector.slot_traces if trace.slot in slots
        for record in trace.certificates
    ]
    return Report("certify", findings=findings, details={
        "scenario": args.scenario,
        "slots_certified": slots,
        "solves_certified": collector.counters.get("optimizer.certifies", 0),
        "solves_skipped": collector.counters.get(
            "optimizer.certify_skipped", 0
        ),
    })


_RUNNERS: Dict[str, Callable[[argparse.Namespace], Report]] = {
    "lint": _run_lint,
    "arch": _run_arch,
    "audit": _run_audit,
    "certify": _run_certify,
}


def _check_args(args: argparse.Namespace, slots_flag: str = "--slots") -> None:
    """Checks that need no scenario; raises ``ValueError``."""
    if getattr(args, "slot", 0) < 0:
        raise ValueError(f"--slot must be >= 0 (got {args.slot})")
    slots = getattr(args, "slots", None)
    if slots is not None and slots < 1:
        raise ValueError(f"{slots_flag} must be >= 1 (got {slots})")
    if getattr(args, "write_baseline", False) and args.baseline is None:
        raise ValueError("--write-baseline requires --baseline FILE")


# ------------------------------------------------------------ rendering


def _counts(summary: Dict[str, int]) -> str:
    return (
        f"{summary['findings']} finding(s): {summary['errors']} error(s), "
        f"{summary['warnings']} warning(s), {summary['info']} info"
    )


def _headline(name: str, report: Report, args: argparse.Namespace) -> str:
    """The closing summary line of a tool's text report."""
    counts = _counts(severity_summary(report.findings))
    if name == "audit":
        return f"{args.scenario} slot {args.slot}: {counts}"
    if name == "certify":
        slots = report.details["slots_certified"]
        label = slots[0] if len(slots) == 1 else f"0..{slots[-1]}"
        return (
            f"{args.scenario} slot(s) {label}: "
            f"{report.details['solves_certified']:g} solve(s) certified, "
            f"{counts}"
        )
    scope = (
        f"{report.details['files_checked']} file(s)" if name == "lint"
        else f"{report.details['modules']} module(s)"
    )
    line = f"{len(report.findings)} finding(s) in {scope}"
    if report.suppressed:
        line += f", {report.suppressed} suppressed"
    if report.baselined:
        line += f", {report.baselined} baselined"
    return line


def _tool_payload(name: str, report: Report) -> Dict:
    """The JSON document ``repro <tool> --format json`` prints."""
    if name == "lint":
        return {"findings": report.payload()["findings"], "summary": {
            "findings": len(report.findings),
            "suppressed": report.suppressed,
            "baselined": report.baselined,
            "files_checked": report.details["files_checked"],
        }}
    if name == "arch":
        return report.payload({
            **report.details,
            "suppressed": report.suppressed,
            "baselined": report.baselined,
        })
    return report.payload()


def _leg_payload(name: str, report: Report, args: argparse.Namespace) -> Dict:
    """One tool's entry in the ``repro check`` document."""
    if name in ("lint", "arch"):
        return report.payload({**report.details, "suppressed": report.suppressed})
    if name == "audit":
        return report.payload({"scenario": args.scenario, "slot": args.slot})
    return report.payload()


def _write_out(path: str, text: str, what: str = "report") -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {what}: {exc}") from exc


def _print_catalog(prefix: str) -> None:
    for rule in rules(prefix):
        print(f"{rule.code}  {rule.name}")
        for code in sorted(rule.codes):
            print(f"    {code}: {rule.codes[code]}")
        print(f"    {rule.rationale}")


# ------------------------------------------------------------ the gates


def _write_api_baseline(args: argparse.Namespace) -> int:
    surface = build_api_surface(build_tree_index(args.paths or ["src"]))
    _write_out(args.api_baseline, render_api_surface(surface), "API baseline")
    modules = surface.get("modules", {})
    assert isinstance(modules, dict)
    names = sum(len(entries) for entries in modules.values())
    print(
        f"wrote API surface ({len(modules)} module(s), "
        f"{names} export(s)) to {args.api_baseline}"
    )
    return EXIT_CLEAN


def _run_tool(name: str, args: argparse.Namespace) -> int:
    """``repro <tool>``: run one tool, apply its baseline, report."""
    if args.list_rules:
        _print_catalog(tool(name).prefix)
        return EXIT_CLEAN
    _check_args(args)
    if getattr(args, "write_api_baseline", False):
        return _write_api_baseline(args)
    report = _RUNNERS[name](args)
    if getattr(args, "write_baseline", False):
        count = write_baseline(report.findings, args.baseline)
        print(f"wrote {count} finding(s) to baseline {args.baseline}")
        return EXIT_CLEAN
    if getattr(args, "baseline", None) is not None:
        try:
            baseline = read_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read baseline: {exc}") from exc
        report.findings, report.baselined = apply_baseline(
            report.findings, baseline
        )
    rendered = json.dumps(_tool_payload(name, report), indent=2, sort_keys=True)
    if getattr(args, "out", None) is not None:
        _write_out(args.out, rendered + "\n")
    if args.format == "json":
        print(rendered)
        return report.exit_code
    text = report.render_text()
    if text:
        # A blank line separates finding lines from the summary.
        print(text + ("\n" if report.findings else ""))
    print(_headline(name, report, args))
    return report.exit_code


def run_checks(
    paths: List[str],
    *,
    skip: Tuple[str, ...] = (),
    scenario: str = "section6",
    slot: int = 0,
    certify_slots: int = 1,
    api_baseline: str = "API_SURFACE.json",
) -> Tuple[int, Dict]:
    """Run every non-skipped tool; returns (exit_code, report dict).

    The report shape is stable for scripting::

        {"checks": {name: {"exit_code", "findings", "summary",
                           "details"} | {"skipped": true} | {"exit_code",
                           "error"}},
         "summary": {"exit_code", "ran", "skipped"}}
    """
    args = argparse.Namespace(
        paths=paths, scenario=scenario, slot=slot, slots=certify_slots,
        api_baseline=api_baseline, **_CHECK_DEFAULTS,
    )
    checks: Dict[str, Dict] = {}
    codes: List[int] = []
    for name in CHECK_NAMES:
        if name in skip:
            checks[name] = {"skipped": True}
            continue
        try:
            report = _RUNNERS[name](args)
        except (FileNotFoundError, ValueError) as exc:
            checks[name] = {"exit_code": EXIT_USAGE, "error": str(exc)}
        else:
            checks[name] = {
                "exit_code": report.exit_code,
                **_leg_payload(name, report, args),
            }
        codes.append(checks[name]["exit_code"])
    exit_code = worst_exit_code(codes)
    return exit_code, {
        "checks": checks,
        "summary": {
            "exit_code": exit_code,
            "ran": [name for name in CHECK_NAMES if name not in skip],
            "skipped": sorted(skip),
        },
    }


def _run_check(args: argparse.Namespace) -> int:
    """``repro check``: every tool not skipped, worst-of exit code."""
    _check_args(args, slots_flag="--certify-slots")
    skip = tuple(dict.fromkeys(args.skip or ()))
    exit_code, report = run_checks(
        args.paths or ["src"],
        skip=skip,
        scenario=args.scenario,
        slot=args.slot,
        certify_slots=args.slots,
        api_baseline=args.api_baseline,
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        _write_out(args.out, rendered + "\n")
    if args.format == "json":
        print(rendered)
        return exit_code
    for name in CHECK_NAMES:
        entry = report["checks"][name]
        if entry.get("skipped"):
            print(f"{name:8s} skipped")
        elif "error" in entry:
            print(f"{name:8s} usage error: {entry['error']}")
        else:
            verdict = "ok" if entry["exit_code"] == EXIT_CLEAN else "FAIL"
            print(f"{name:8s} {verdict}  {_counts(entry['summary'])}")
    print(f"check: exit {exit_code}")
    return exit_code


_HELP = {
    "lint": "domain-aware static analysis (reprolint, RP0xx); exit 1 on "
            "findings",
    "arch": "audit import layering, the public-API surface lock, dead "
            "code, and hot-path purity (AR0xx); exit 1 on findings",
    "audit": "static formulation audit of a slot problem (MD0xx); exit 1 "
             "on MD-level errors",
    "certify": "solve scenario slots and independently verify the "
               "optimality certificates (CT0xx); exit 1 on CT-level errors",
    "check": "run lint + arch + audit + certify in one gate; worst-of "
             "exit code",
}


def _gate(name: str) -> Callable[[argparse.Namespace], int]:
    """The registered run function: usage errors print and exit 2."""

    def run(args: argparse.Namespace) -> int:
        try:
            if name == "check":
                return _run_check(args)
            return _run_tool(name, args)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    return run


for _name in (*CHECK_NAMES, "check"):
    register_subcommand(
        _name, help_text=_HELP[_name], configure=_configure(_name)
    )(_gate(_name))
