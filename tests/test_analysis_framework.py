"""The shared analysis framework: one rule registry for four tools.

Every tool's rules live in one registry keyed by code prefix
(``RP``/``MD``/``CT``/``AR``).  The contract tests run once per family:
registration rejects malformed rules, lookups cover lead and member
codes, and a rule can only emit the codes it registered.  The catalog
pin keeps ``--list-rules`` from losing or renaming any rule.
"""

import argparse
import re

import pytest

import repro.analysis  # noqa: F401  (registers every tool's rules)
from repro.analysis.report import (
    Finding,
    Rule,
    get_rule,
    register,
    rules,
    tool,
)
from repro.cli import build_parser, main

PREFIXES = ("RP", "MD", "CT", "AR")

#: lead code -> (name, every code of the family), as ``--list-rules``
#: printed it before the four registries were merged.
CATALOG = {
    "RP001": ("float-equality", ("RP001",)),
    "RP002": ("unseeded-rng", ("RP002",)),
    "RP003": ("frozen-mutation", ("RP003",)),
    "RP004": ("solver-contract", ("RP004",)),
    "RP005": ("pool-picklability", ("RP005",)),
    "RP006": ("swallowed-exception", ("RP006",)),
    "RP007": ("mutable-default", ("RP007",)),
    "RP008": ("array-dtype-contract", ("RP008",)),
    "RP009": ("hardcoded-tolerance", ("RP009",)),
    "RP010": ("unguarded-division", ("RP010",)),
    "AR010": ("layer-contract", ("AR010",)),
    "AR011": ("import-cycle", ("AR011",)),
    "AR020": ("api-surface", ("AR020", "AR021")),
    "AR030": ("dead-export", ("AR030",)),
    "AR031": ("orphan-code", ("AR031",)),
    "AR041": ("hot-path-purity", ("AR041", "AR042")),
    "MD010": ("bigm-tightness", ("MD010", "MD011")),
    "MD012": ("mccormick-envelope", ("MD012", "MD013")),
    "MD020": ("dimensional-consistency", ("MD020", "MD021")),
    "MD030": ("matrix-diagnostics", (
        "MD030", "MD031", "MD032", "MD033", "MD034", "MD035", "MD036",
    )),
    "MD040": ("static-feasibility", (
        "MD040", "MD041", "MD042", "MD043", "MD044", "MD045",
    )),
    "CT010": ("primal-feasibility", ("CT010", "CT011")),
    "CT020": ("dual-feasibility", ("CT020", "CT021")),
    "CT030": ("optimality-gap", ("CT030", "CT031")),
    "CT040": ("milp-incumbent", ("CT040", "CT041")),
    "CT051": ("plan-profit", ("CT051",)),
}


def _rule_class(**attrs):
    return type("Probe", (Rule,), {"rationale": "probe", **attrs})


@pytest.mark.parametrize("prefix", PREFIXES)
class TestRegistryContract:
    def test_family_is_registered(self, prefix):
        leads = [rule.code for rule in rules(prefix)]
        assert leads == sorted(leads)
        assert leads == sorted(c for c in CATALOG if c.startswith(prefix))

    def test_bad_code_rejected(self, prefix):
        with pytest.raises(ValueError, match=f"{prefix}xxx"):
            register(_rule_class(code=f"{prefix}1", name="bad"))

    def test_duplicate_code_rejected(self, prefix):
        member = max(c for r in rules(prefix) for c in r.codes)
        with pytest.raises(ValueError, match="duplicate"):
            register(_rule_class(code=member, name="clone"))

    def test_code_of_another_family_rejected(self, prefix):
        other = next(p for p in PREFIXES if p != prefix)
        with pytest.raises(ValueError, match="bad code"):
            register(_rule_class(
                code=f"{prefix}998", name="stray",
                codes={f"{prefix}998": "lead", f"{other}998": "stray"},
            ))

    def test_missing_name_rejected(self, prefix):
        with pytest.raises(ValueError, match="needs a name"):
            register(_rule_class(code=f"{prefix}998", name=""))

    def test_lead_code_must_be_in_codes(self, prefix):
        with pytest.raises(ValueError, match="lead code"):
            register(_rule_class(
                code=f"{prefix}998", name="orphan-lead",
                codes={f"{prefix}997": "member"},
            ))

    def test_rejected_rules_leave_the_registry_alone(self, prefix):
        for code in (f"{prefix}997", f"{prefix}998"):
            with pytest.raises(KeyError):
                get_rule(code)

    def test_emitting_an_unregistered_code_raises(self, prefix):
        rule = rules(prefix)[0]
        with pytest.raises(ValueError, match="unregistered"):
            rule.finding(f"{prefix}999", "error", "x", "m")

    def test_finding_validation(self, prefix):
        rule = rules(prefix)[0]
        other = next(p for p in PREFIXES if p != prefix)
        with pytest.raises(ValueError, match="unregistered"):
            rule.finding(f"{other}001", "error", "x", "m")
        with pytest.raises(ValueError, match="RPxxx"):
            Finding(code=f"{prefix}1", severity="error",
                    component="x", message="m")
        with pytest.raises(ValueError, match="severity"):
            Finding(code=rule.code, severity="fatal",
                    component="x", message="m", path="a.py", line=1)

    def test_lookup_by_every_code(self, prefix):
        for rule in rules(prefix):
            assert rule.name and rule.rationale, rule.code
            for code in rule.codes:
                assert get_rule(code) is rule
        with pytest.raises(KeyError, match=f"{prefix}999"):
            get_rule(f"{prefix}999")


@pytest.mark.parametrize("prefix", PREFIXES)
def test_list_rules_catalog_is_unchanged(prefix, capsys):
    assert main([tool(prefix).name, "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = {}
    for line in out.splitlines():
        lead = re.match(r"^([A-Z]{2}\d{3})  (\S+)$", line)
        if lead:
            current = lead.group(1)
            listed[current] = (lead.group(2), [current])
            continue
        member = re.match(r"^    ([A-Z]{2}\d{3}): ", line)
        if member and member.group(1) != current:
            listed[current][1].append(member.group(1))
    expected = {
        code: entry for code, entry in CATALOG.items()
        if code.startswith(prefix)
    }
    assert {c: (n, tuple(sorted(m))) for c, (n, m) in listed.items()} == expected


def test_gates_and_fingerprints_are_fixed_per_tool():
    assert {p: tool(p).gate for p in PREFIXES} == {
        "RP": "any", "AR": "any", "MD": "error", "CT": "error",
    }
    assert tool("RP").fingerprint == ("path", "code", "line")
    for prefix in ("MD", "CT", "AR"):
        assert tool(prefix).fingerprint == ("component", "code")
    lint = Finding(code="RP001", message="m", path="a.py", line=3, col=2)
    assert lint.severity == "error"
    assert lint.fingerprint == ("a.py", "RP001", 3)
    warning = Finding(code="MD010", severity="warning", component="c")
    assert not warning.fails_gate
    assert Finding(code="AR031", severity="warning", component="c").fails_gate


#: Every analysis subcommand's flags; ``--list-checks`` (audit,
#: certify) is spelled ``--list-rules`` like the other tools.
FLAGS = {
    "lint": ["--baseline", "--format", "--list-rules", "--write-baseline",
             "paths"],
    "arch": ["--api-baseline", "--baseline", "--format", "--list-rules",
             "--out", "--usage-path", "--write-api-baseline",
             "--write-baseline", "paths"],
    "audit": ["--big", "--bigm-ratio-limit", "--format", "--list-rules",
              "--out", "--row-decades-limit", "--scenario", "--slot"],
    "certify": ["--format", "--list-rules", "--lp-method", "--method",
                "--out", "--scenario", "--slot", "--slots"],
    "check": ["--api-baseline", "--certify-slots", "--format", "--out",
              "--scenario", "--skip", "--slot", "paths"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_flags_are_unchanged(command):
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = sorted(
        option
        for action in sub.choices[command]._actions
        for option in (action.option_strings or [action.dest])
        if option not in ("-h", "--help")
    )
    assert options == FLAGS[command]
