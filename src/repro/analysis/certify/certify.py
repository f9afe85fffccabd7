"""The certifier's entry point: run every check over one solved problem.

:func:`certify_solution` is the programmatic API behind the ``repro
certify`` CLI, the ``OptimizerConfig(certify=...)`` hook in
``plan_slot``, and the pytest fixture gating the property harnesses:
build a :class:`~repro.analysis.certify.registry.CertifyContext` around
the solved problem, run every registered check family, and fold the
findings plus the coverage summary into one :class:`CertifyReport`.
The certifier recomputes everything from the problem data — it never
re-solves and never mutates its inputs — so it is cheap enough to gate
every solve of a day-long experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.analysis.certify.findings import (
    CertFinding,
    render_certify_json,
    render_certify_text,
)
from repro.analysis.certify.registry import (
    CertifyContext,
    CertifyThresholds,
    all_certify_rules,
)
from repro.core.formulation import SlotInputs
from repro.core.plan import DispatchPlan
from repro.solvers.base import (
    LinearProgram,
    MixedIntegerProgram,
    Solution,
)

__all__ = ["CertifyReport", "certify_solution"]


@dataclass(frozen=True)
class CertifyReport:
    """Everything one certification run produced.

    Attributes
    ----------
    findings:
        All findings, sorted errors-first (see
        :attr:`~repro.analysis.certify.findings.CertFinding.sort_key`).
    details:
        Coverage payload: ``checked`` (families that ran), ``skipped``
        (families that could not run, with the reason — e.g. the
        backend attached no duals), and the recomputed headline numbers
        (``primal_objective``, worst residuals).
    """

    findings: List[CertFinding] = field(default_factory=list)
    details: Dict = field(default_factory=dict)

    @property
    def errors(self) -> List[CertFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[CertFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self) -> bool:
        """True when no *error*-severity finding was raised."""
        return not self.errors

    def render_text(self) -> str:
        if not self.findings:
            return "certificates: clean"
        return render_certify_text(self.findings)

    def render_json(self) -> str:
        return render_certify_json(self.findings, details=self.details)


def certify_solution(
    problem: Union[LinearProgram, MixedIntegerProgram],
    solution: Solution,
    inputs: Optional[SlotInputs] = None,
    plan: Optional[DispatchPlan] = None,
    thresholds: Optional[CertifyThresholds] = None,
) -> CertifyReport:
    """Independently verify one solve; report, never raise.

    Parameters
    ----------
    problem:
        The LP actually solved, or the MILP when the solve enforced
        integrality (enables the CT040/CT041 incumbent checks).
    solution:
        The solver's answer.  Must carry ``x``; dual-side checks run
        only when the backend attached marginals (HiGHS LP) and are
        recorded as skipped otherwise.
    inputs:
        The slot problem behind the LP; enables the CT051 profit
        identity (with ``plan``) and the big-M-aware CT041 gap scale.
    plan:
        The decoded :class:`~repro.core.plan.DispatchPlan` for
        ``solution.x`` — pass the plan decoded *before* any
        consolidation/spare-capacity postprocessing, which deliberately
        reshapes profit-neutral structure.
    thresholds:
        Tolerance knobs; defaults to :class:`CertifyThresholds`.
    """
    if isinstance(problem, MixedIntegerProgram):
        lp, integer_mask = problem.lp, problem.integer_mask
    else:
        lp, integer_mask = problem, None
    if solution.x is None:
        finding = CertFinding(
            code="CT010", severity="error", component="primal.x",
            message=(
                "nothing to certify: solution carries no point "
                f"(status {solution.status.value})"
            ),
        )
        return CertifyReport(
            findings=[finding],
            details={"checked": [], "skipped": {"all": "no solution vector"}},
        )
    ctx = CertifyContext(
        lp=lp,
        solution=solution,
        integer_mask=integer_mask,
        inputs=inputs,
        plan=plan,
        thresholds=(
            thresholds if thresholds is not None else CertifyThresholds()
        ),
    )
    findings: List[CertFinding] = []
    checked: List[str] = []
    skipped: Dict[str, str] = {}
    for rule in all_certify_rules():
        ran, reason = _family_coverage(rule.name, ctx)
        if ran:
            checked.append(rule.name)
            findings.extend(rule.check(ctx))
        else:
            skipped[rule.name] = reason
    findings.sort(key=lambda f: f.sort_key)

    details: Dict = {"checked": checked, "skipped": skipped}
    details["primal_objective"] = float(lp.c @ ctx.x)
    if solution.objective is not None:
        details["reported_objective"] = float(solution.objective)
    residuals = lp.residuals(ctx.x)
    details["residuals"] = {k: float(v) for k, v in residuals.items()}
    return CertifyReport(findings=findings, details=details)


def _family_coverage(name: str, ctx: CertifyContext) -> "tuple[bool, str]":
    """Whether one check family can run on ``ctx`` (and why not)."""
    if name in ("dual-feasibility", "optimality-gap"):
        if not ctx.has_duals:
            return False, "backend attached no dual marginals"
    elif name == "milp-incumbent":
        if ctx.integer_mask is None or not bool(np.any(ctx.integer_mask)):
            return False, "not a MILP solve"
    elif name == "plan-profit":
        if ctx.plan is None or ctx.inputs is None:
            return False, "no decoded plan supplied"
    return True, ""
