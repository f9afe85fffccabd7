"""Optimality-certificate verifier (``repro certify``) for solve paths.

Third member of the analysis triad, with its own ``CT0xx`` code space:

* ``repro.analysis`` (``repro lint``, ``RP0xx``) statically checks the
  *source code*;
* ``repro.analysis.model`` (``repro audit``, ``MD0xx``) statically
  checks the *built slot problem* before solving;
* this package (``repro certify``, ``CT0xx``) independently verifies
  the *solved answer*: primal feasibility, dual feasibility and
  reduced-cost signs, complementary slackness and the duality gap,
  MILP incumbent integrality and bound sandwiches, and the decoded
  plan's profit against the objective — all recomputed from the
  problem data, trusting no solver-reported residual.

Three entry points, mirroring the auditor:

* :func:`certify_solution` — the programmatic API;
* ``OptimizerConfig(certify="warn"|"error")`` — per-solve gating in
  ``plan_slot`` (findings land on ``SlotTrace.certificates``);
* ``repro certify`` — the CLI gate (exit 1 on CT-level errors).

Like :mod:`repro.analysis.model`, this package needs :mod:`numpy` and
the core builders, so it is *not* imported from
:mod:`repro.analysis` — import it explicitly (the CLI does so lazily),
keeping ``repro lint`` numpy-free.
"""

from repro.analysis.certify.certify import CertifyReport, certify_solution
from repro.analysis.certify.checks import (
    DualCertificateRule,
    GapCertificateRule,
    IntegralityCertificateRule,
    PlanProfitCertificateRule,
    PrimalCertificateRule,
)
from repro.analysis.certify.findings import (
    SEVERITIES,
    CertFinding,
    render_certify_json,
    render_certify_text,
)
from repro.analysis.certify.registry import (
    CertifyContext,
    CertifyRule,
    CertifyThresholds,
    all_certify_rules,
    get_certify_rule,
    register_certify,
)

__all__ = [
    "CertFinding",
    "CertifyContext",
    "CertifyReport",
    "CertifyRule",
    "CertifyThresholds",
    "DualCertificateRule",
    "GapCertificateRule",
    "IntegralityCertificateRule",
    "PlanProfitCertificateRule",
    "PrimalCertificateRule",
    "SEVERITIES",
    "all_certify_rules",
    "certify_solution",
    "get_certify_rule",
    "register_certify",
    "render_certify_json",
    "render_certify_text",
]
