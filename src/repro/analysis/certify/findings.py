"""Finding datatypes and rendering for the optimality certifier.

A :class:`CertFinding` is the certificate sibling of the lint pass's
:class:`~repro.analysis.diagnostics.Diagnostic` and the formulation
auditor's :class:`~repro.analysis.model.findings.ModelFinding`: one
finding from an *independent recomputation* over a solved slot problem
rather than over source code or an unsolved formulation.  Certificate
findings anchor to solution components (a violated bound, a constraint
row, a dual sign, the plan profit), so they carry a ``component`` string
and a ``severity``; the machinery (frozen dataclass, stable ``CT0xx``
code space disjoint from ``RP0xx``/``MD0xx``/``AR0xx``, sorted
text/JSON reports) is the shared :mod:`repro.analysis.report`
implementation, so all the analysis tools read and script the same way.
"""

from __future__ import annotations

from typing import ClassVar

from repro.analysis.report import (
    SEVERITIES,
    Finding,
    render_findings_json,
    render_findings_text,
)

__all__ = [
    "SEVERITIES",
    "CertFinding",
    "render_certify_text",
    "render_certify_json",
]


class CertFinding(Finding):
    """One optimality-certificate finding.

    Attributes
    ----------
    code:
        Stable ``CT0xx`` identifier (the certificate code space,
        disjoint from lint's ``RP0xx`` and the auditor's ``MD0xx``).
    severity:
        ``"error"`` (the claimed-optimal solution fails an independent
        recomputation), ``"warning"`` (numerically suspicious but
        within the relaxed gate), or ``"info"`` (reporting only).
    component:
        The solution element the finding anchors to, e.g.
        ``"primal.bound[x17]"`` or ``"dual.row[3]"``.
    message:
        Human-readable description with the recomputed numbers.
    data:
        Machine-readable payload (violation magnitude, tolerance used,
        recomputed value, ...) for scripting over JSON reports.
    """

    CODE_PREFIX: ClassVar[str] = "CT"
    CODE_LABEL: ClassVar[str] = "certificate"


#: ``component: SEVERITY CODE message`` lines, errors first.
render_certify_text = render_findings_text

#: Machine-readable report for ``repro certify --format json``.
render_certify_json = render_findings_json
