"""The framework all four analysis tools share: rules, findings, reports.

Four tools read four artifacts — ``reprolint`` (``RP0xx``) reads the
*source*, the formulation auditor (``MD0xx``) reads the built
*problem*, the certifier (``CT0xx``) reads the *solution*, and the
architecture auditor (``AR0xx``) reads the *tree* — but they are one
framework:

* :class:`Tool` — what each tool declares: its subcommand, code
  prefix, gate (any finding vs. errors only), baseline fingerprint and
  finding anchor.  The declarations are fixed in :data:`TOOLS`;
* :class:`Rule` + :func:`register` / :func:`rules` / :func:`get_rule`
  — one registry keyed by code prefix;
* :class:`Finding` — one finding, anchored to a source position
  (``path:line:col``, lint) or to a component (the other three, with
  an optional file anchor for inline suppressions);
* :class:`Report` — the outcome of one run of one tool;
* findings baselines (:func:`write_baseline`, :func:`read_baseline`,
  :func:`apply_baseline`) that freeze deliberate debt: a multiset of
  fingerprints, each entry absorbing at most one live finding;
* ``EXIT_CLEAN`` / ``EXIT_FINDINGS`` / ``EXIT_USAGE`` and
  :func:`worst_exit_code`, the ``0/1/2`` gate convention.

Stdlib only: the tools' own numerics live with their rules.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "SEVERITIES",
    "TOOLS",
    "Baseline",
    "Finding",
    "Report",
    "Rule",
    "Tool",
    "apply_baseline",
    "get_rule",
    "read_baseline",
    "register",
    "rules",
    "severity_summary",
    "tool",
    "worst_exit_code",
    "write_baseline",
]

#: Severity ladder.  Lint findings are always errors; the other tools
#: grade theirs.
SEVERITIES = ("error", "warning", "info")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Exit-code convention every analysis subcommand follows.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def worst_exit_code(codes: Iterable[int]) -> int:
    """Worst-of combinator: usage errors (2) dominate findings (1)."""
    return max(codes, default=EXIT_CLEAN)


@dataclass(frozen=True)
class Tool:
    """What one analysis tool declares; fixed per tool, never configured.

    Attributes
    ----------
    name:
        The ``repro`` subcommand.
    prefix:
        The tool's two-letter code space.
    gate:
        ``"any"`` — every finding fails the run (each lint and arch
        rule flags something actionable); ``"error"`` — only
        error-severity findings do.
    anchor:
        ``"source"`` — findings sit at ``path:line:col`` and baselines
        match ``(path, code, line)``; ``"component"`` — findings name
        an artifact component and baselines match ``(component,
        code)``, line-free so they survive unrelated edits.
    clean_text:
        What the text report says when there is no finding.
    """

    name: str
    prefix: str
    gate: str
    anchor: str = "component"
    clean_text: str = ""

    @property
    def fingerprint(self) -> Tuple[str, ...]:
        """The finding fields a baseline entry matches on."""
        if self.anchor == "source":
            return ("path", "code", "line")
        return ("component", "code")


#: The four tools, in ``repro check`` order: cheap AST passes first,
#: solver-backed last.
TOOLS: Tuple[Tool, ...] = (
    Tool("lint", "RP", gate="any", anchor="source"),
    Tool("arch", "AR", gate="any"),
    Tool("audit", "MD", gate="error", clean_text="formulation audit: clean"),
    Tool("certify", "CT", gate="error", clean_text="certificates: clean"),
)

_BY_PREFIX = {t.prefix: t for t in TOOLS}
_BY_NAME = {t.name: t for t in TOOLS}
_CODE_RE = re.compile(rf"^({'|'.join(_BY_PREFIX)})\d{{3}}$")


def tool(key: str) -> Tool:
    """The tool named ``key`` (``"lint"``) or owning code/prefix ``key``."""
    found = _BY_NAME.get(key) or _BY_PREFIX.get(key[:2])
    if found is None:
        raise KeyError(f"unknown analysis tool {key!r}")
    return found


@dataclass(frozen=True)
class Finding:
    """One analysis finding.

    Attributes
    ----------
    code:
        Stable identifier in one tool's code space, e.g. ``RP001``.
    severity:
        One of :data:`SEVERITIES`.
    component:
        The artifact element a component-anchored finding names, e.g.
        ``"bigm[request1]"`` or ``"layer[core -> sim]"``.
    message:
        Human-readable description with the offending specifics.
    data:
        Machine-readable payload for scripting over JSON reports;
        values are strings or floats.
    path, line, col:
        File anchor.  Lint findings always carry one; architecture
        findings on a file carry ``path``/``line`` so inline
        ``# reprolint: disable=AR0xx`` directives apply to them.
    """

    code: str
    severity: str = "error"
    component: str = ""
    message: str = ""
    data: Dict[str, object] = field(default_factory=dict)
    path: str = ""
    line: int = 0
    col: int = 0

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ValueError(
                "finding codes are RPxxx, MDxxx, CTxxx or ARxxx, "
                f"got {self.code!r}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        if self.tool.anchor == "source" and (self.line < 1 or self.col < 0):
            raise ValueError(
                f"bad location {self.line}:{self.col} for {self.code}"
            )
        object.__setattr__(self, "data", {
            str(k): (v if isinstance(v, str) else float(v))  # type: ignore[arg-type]
            for k, v in dict(self.data).items()
        })

    @property
    def tool(self) -> Tool:
        return _BY_PREFIX[self.code[:2]]

    @property
    def fails_gate(self) -> bool:
        """True when this finding fails its tool's gate."""
        return self.tool.gate == "any" or self.severity == "error"

    @property
    def sort_key(self) -> Tuple:
        """Source findings read top to bottom; the rest errors first."""
        if self.tool.anchor == "source":
            return (self.path, self.line, self.col, self.code, self.message)
        return (_SEVERITY_RANK[self.severity], self.code,
                self.component, self.message)

    @property
    def fingerprint(self) -> Tuple:
        """Baseline-matching key (see :attr:`Tool.fingerprint`)."""
        return tuple(getattr(self, name) for name in self.tool.fingerprint)

    def text(self) -> str:
        """One report line."""
        if self.tool.anchor == "source":
            return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        return f"{self.component}: {self.severity} {self.code} {self.message}"

    def to_dict(self) -> Dict:
        """Plain-dict form for JSON reports, baselines and slot traces."""
        if self.tool.anchor == "source":
            return {
                "path": self.path,
                "line": self.line,
                "col": self.col,
                "code": self.code,
                "severity": self.severity,
                "message": self.message,
            }
        record: Dict = {
            "code": self.code,
            "severity": self.severity,
            "component": self.component,
            "message": self.message,
            "data": dict(self.data),
        }
        if self.path:
            record["path"] = self.path
            record["line"] = self.line
        return record


def _ordered(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: f.sort_key)


def severity_summary(findings: Sequence[Finding]) -> Dict[str, int]:
    """``{"findings", "errors", "warnings", "info"}`` counts."""
    counts = Counter(f.severity for f in findings)
    return {
        "findings": len(findings),
        "errors": counts["error"],
        "warnings": counts["warning"],
        "info": counts["info"],
    }


@dataclass
class Report:
    """Outcome of one run of one tool.

    Attributes
    ----------
    tool:
        Name of the tool that ran (see :data:`TOOLS`).
    findings:
        Findings left after suppression and baseline filtering.
    details:
        Tool-specific payload: files or modules checked, tightened
        constants and matrix summaries, certificate coverage, ...
    suppressed:
        Findings excused by inline directives.
    baselined:
        Findings absorbed by a findings baseline.
    """

    tool: str
    findings: List[Finding] = field(default_factory=list)
    details: Dict = field(default_factory=dict)
    suppressed: int = 0
    baselined: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self) -> bool:
        """True when no finding fails the tool's gate."""
        return not any(f.fails_gate for f in self.findings)

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.clean else EXIT_FINDINGS

    def render_text(self) -> str:
        """Finding lines in report order, or the tool's clean line."""
        if not self.findings:
            return tool(self.tool).clean_text
        return "\n".join(f.text() for f in _ordered(self.findings))

    def payload(self, details: Optional[Dict] = None) -> Dict:
        """``{"findings", "summary", "details"}`` for JSON reports."""
        findings = _ordered(self.findings)
        return {
            "findings": [f.to_dict() for f in findings],
            "summary": severity_summary(findings),
            "details": self.details if details is None else details,
        }

    def render_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)


# ------------------------------------------------------------------ rules


class Rule:
    """Base class of every analysis rule; subclasses set the metadata.

    Attributes
    ----------
    code:
        Lead code the rule (or rule family) registers under.
    codes:
        Every code the rule may emit, mapped to a one-line summary;
        a single-code rule may leave it empty (it becomes ``{code:
        name}``).
    name:
        Short kebab-case slug for the ``--list-rules`` catalog.
    rationale:
        One paragraph tying the check to the paper's model or to the
        invariant it protects.
    """

    code: str = ""
    codes: Dict[str, str] = {}
    name: str = ""
    rationale: str = ""

    def check(self, ctx: Any) -> Iterator[Finding]:
        """Yield findings for one tool context."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def skip_reason(self, ctx: Any) -> Optional[str]:
        """Why the rule cannot run on ``ctx``, or ``None`` when it can."""
        return None

    def finding(
        self,
        code: str,
        severity: str,
        component: str,
        message: str,
        **data: object,
    ) -> Finding:
        """Build one finding, asserting the code belongs to this rule."""
        if code not in self.codes:
            raise ValueError(
                f"rule {self.name} emitted unregistered code {code}"
            )
        return Finding(
            code=code, severity=severity, component=component,
            message=message, data=data,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(
            f"rule {rule_cls.__name__} needs a code matching RPxxx, "
            f"MDxxx, CTxxx or ARxxx, got {rule_cls.code!r}"
        )
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.code} needs a name")
    codes = rule_cls.codes or {rule_cls.code: rule_cls.name}
    if rule_cls.code not in codes:
        raise ValueError(
            f"rule {rule_cls.name}: lead code {rule_cls.code} missing "
            "from its codes catalog"
        )
    taken = {c: r.code for r in _REGISTRY.values() for c in r.codes}
    for code in codes:
        if not code.startswith(rule_cls.code[:2]) or not _CODE_RE.match(code):
            raise ValueError(f"rule {rule_cls.name}: bad code {code!r}")
        if code in taken:
            raise ValueError(
                f"duplicate rule code {code} (registered by {taken[code]})"
            )
    rule_cls.codes = dict(codes)
    _REGISTRY[rule_cls.code] = rule_cls()
    return rule_cls


def rules(prefix: str) -> List[Rule]:
    """Every registered rule of one tool (``"RP"``, ``"MD"``, ...),
    sorted by lead code."""
    return [
        _REGISTRY[code] for code in sorted(_REGISTRY)
        if code.startswith(prefix)
    ]


def get_rule(code: str) -> Rule:
    """The rule owning ``code`` (its lead code or a member code)."""
    for rule in _REGISTRY.values():
        if code in rule.codes:
            return rule
    known = sorted(c for r in _REGISTRY.values() for c in r.codes
                   if c.startswith(code[:2]))
    raise KeyError(f"unknown rule code {code!r}; known: {known}")


# -------------------------------------------------------------- baselines
#
# A baseline file is a JSON snapshot of known findings.  ``--baseline
# FILE`` filters findings matching a baseline entry, so deliberately
# deferred debt does not fail the gate while any *new* finding still
# does.  Matching is by fingerprint as a multiset: each entry absorbs at
# most one live finding.  The full finding is stored for human review;
# only the fingerprint matches, so messages may be reworded freely.

_BASELINE_VERSION = 1


@dataclass
class Baseline:
    """A multiset of accepted finding fingerprints."""

    entries: Counter = field(default_factory=Counter)

    def __len__(self) -> int:
        return int(sum(self.entries.values()))


def _baseline_order(finding: Finding) -> Tuple:
    # Fingerprint first, so regenerating a baseline from the same
    # findings is byte-identical whatever order the caller used.
    return (*finding.fingerprint, *finding.sort_key)


def _record_fingerprint(record: Dict) -> Tuple:
    fields = tool(str(record["code"])).fingerprint
    return tuple(
        int(record[name]) if name == "line" else str(record[name])
        for name in fields
    )


def write_baseline(findings: Iterable[Finding], path: str) -> int:
    """Write ``findings`` as a baseline file; returns the entry count."""
    records = [f.to_dict() for f in sorted(findings, key=_baseline_order)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": _BASELINE_VERSION, "findings": records},
                  handle, indent=2)
        handle.write("\n")
    return len(records)


def read_baseline(path: str) -> Baseline:
    """Load a baseline file; raises ``ValueError`` when malformed."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError(f"{path}: not a findings baseline file")
    version = payload.get("version")
    if version != _BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline version {version!r} "
            f"(expected {_BASELINE_VERSION})"
        )
    entries: Counter = Counter()
    for record in payload["findings"]:
        try:
            entries[_record_fingerprint(record)] += 1
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: malformed baseline entry {record!r}"
            ) from exc
    return Baseline(entries=entries)


def apply_baseline(
    findings: Iterable[Finding], baseline: Baseline
) -> Tuple[List[Finding], int]:
    """Split findings into (new, baselined-count) against ``baseline``."""
    budget = Counter(baseline.entries)
    fresh: List[Finding] = []
    absorbed = 0
    for finding in _ordered(findings):
        if budget[finding.fingerprint] > 0:
            budget[finding.fingerprint] -= 1
            absorbed += 1
        else:
            fresh.append(finding)
    return fresh, absorbed
