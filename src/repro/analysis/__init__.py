"""Correctness tooling for this codebase: four tools on one framework.

The paper's profit numbers rest on numerically delicate machinery —
big-M step-TUF constraints (Eqs. 11-16), M/M/1 stability boundaries
(Eq. 1), and per-slot re-solves — where a float-equality check, a
loose big-M or an unverified solve corrupts results *silently* instead
of crashing.  Four tools keep those bug classes out, each with its own
code space:

* ``repro lint`` (``RP0xx``, :mod:`repro.analysis.rules`) reads the
  *source*: domain-aware AST rules, with inline ``# reprolint:
  disable=RP0xx`` suppressions (:mod:`repro.analysis.suppression`) and
  file walking in :mod:`repro.analysis.runner`;
* ``repro audit`` (``MD0xx``, :mod:`repro.analysis.model`) reads the
  *built slot problem*: big-M tightness, units, matrix diagnostics,
  feasibility pre-checks;
* ``repro certify`` (``CT0xx``, :mod:`repro.analysis.certify`) reads
  the *solution*: independently recomputed optimality certificates;
* ``repro arch`` (``AR0xx``, :mod:`repro.analysis.arch`) reads the
  *tree*: layer contracts, import cycles, the ``API_SURFACE.json``
  lock, dead code, hot-path purity.

They share one framework, :mod:`repro.analysis.report` (rule registry
keyed by code prefix, finding and report types, findings baselines,
exit codes), and one CLI module, :mod:`repro.analysis.cli`, where
``repro check`` runs all four with a worst-of exit code.  Importing
this package registers every rule of every tool; list one tool's rules
with :func:`repro.analysis.report.rules`.
"""

from repro.analysis import arch as _arch  # noqa: F401  (registration)
from repro.analysis import certify as _certify  # noqa: F401
from repro.analysis import model as _model  # noqa: F401
from repro.analysis import rules as _rules  # noqa: F401
from repro.analysis.report import (
    Baseline,
    Finding,
    Report,
    Rule,
    apply_baseline,
    get_rule,
    read_baseline,
    register,
    write_baseline,
)
from repro.analysis.runner import lint_paths, lint_source

__all__ = [
    "Baseline",
    "Finding",
    "Report",
    "Rule",
    "apply_baseline",
    "get_rule",
    "lint_paths",
    "lint_source",
    "read_baseline",
    "register",
    "write_baseline",
]
