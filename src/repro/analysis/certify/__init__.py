"""Optimality-certificate verifier (``repro certify``) for solve paths.

One of the four analysis tools, with its own ``CT0xx`` code space:

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

The check families register in the shared rule registry
(:mod:`repro.analysis.report`) on import of this package.
"""

from repro.analysis.certify.certify import (
    CertifyContext,
    CertifyThresholds,
    certify_solution,
)
from repro.analysis.certify.checks import (
    DualCertificateRule,
    GapCertificateRule,
    IntegralityCertificateRule,
    PlanProfitCertificateRule,
    PrimalCertificateRule,
)

__all__ = [
    "CertifyContext",
    "CertifyThresholds",
    "DualCertificateRule",
    "GapCertificateRule",
    "IntegralityCertificateRule",
    "PlanProfitCertificateRule",
    "PrimalCertificateRule",
    "certify_solution",
]
