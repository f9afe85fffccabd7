"""Certificate-rule registry and the context handed to every check.

Mirrors :mod:`repro.analysis.model.registry` (the formulation auditor):
a :class:`CertifyRule` registers itself under a stable ``CT0xx``
*family* code via :func:`register_certify`, carries a name and a
rationale for the catalog, and yields
:class:`~repro.analysis.certify.findings.CertFinding` records from
:meth:`CertifyRule.check`.  Rules are stateless; everything
solve-specific lives on the shared :class:`CertifyContext`, which also
caches the derived quantities (row slacks, reduced costs, the dual
objective) several families share.

A rule family may emit several related codes (e.g. the primal family
owns CT010 *and* CT011); the registry key is the family's lead code and
:attr:`CertifyRule.codes` enumerates the full set for ``--list-checks``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Type

import numpy as np

from repro.analysis.certify.findings import CertFinding
from repro.core.formulation import SlotInputs
from repro.core.plan import DispatchPlan
from repro.solvers.base import LinearProgram, Solution
from repro.solvers.tolerances import FEASIBILITY_TOL, INTEGRALITY_TOL

__all__ = [
    "CertifyContext",
    "CertifyRule",
    "CertifyThresholds",
    "register_certify",
    "all_certify_rules",
    "get_certify_rule",
]

_CODE_RE = re.compile(r"^CT\d{3}$")


@dataclass
class CertifyThresholds:
    """Configurable tolerances shared by the certificate checks.

    Defaults derive from :mod:`repro.solvers.tolerances` so the
    certifier and the solvers agree on what "satisfied" means; each
    check scales its tolerance by the relevant problem magnitude
    (right-hand side, objective norm) so certificates stay meaningful
    across the paper's \\$-scale objectives and big-M rows.

    Attributes
    ----------
    feas_tol:
        Relative primal-feasibility tolerance (bounds and rows,
        CT010/CT011).
    dual_tol:
        Relative dual-feasibility and reduced-cost-sign tolerance
        (CT020/CT021), scaled by ``max(1, |c|_inf)``.
    comp_tol:
        Complementary-slackness tolerance (CT030): a row is flagged when
        both its slack and its multiplier are above this, relatively.
    gap_rel:
        Relative primal-dual gap gate (CT031).
    int_tol:
        Distance from the nearest integer tolerated for
        integer-constrained variables (CT040).
    milp_gap_rel:
        Relative branch-and-bound bound-sandwich width above which
        CT041 warns (an incumbent far from its proven bound).
    profit_rel:
        Relative mismatch tolerated between the decoded plan's
        recomputed net profit and the solver objective (CT051).
    """

    feas_tol: float = FEASIBILITY_TOL
    dual_tol: float = 1e-6
    comp_tol: float = 1e-6
    gap_rel: float = 1e-6
    int_tol: float = INTEGRALITY_TOL
    milp_gap_rel: float = 1e-4
    profit_rel: float = 1e-6


@dataclass
class CertifyContext:
    """Everything the certificate checks may need about one solve.

    The context is built once per certification and caches the shared
    recomputations.  ``solution`` must be an ``OPTIMAL`` solution of
    ``lp`` (callers gate on :attr:`Solution.ok` before certifying);
    dual-side checks degrade gracefully when the backend attached no
    marginals (the own simplex, IPM, B&B, and presolve-restored
    solutions carry primal data only).
    """

    lp: LinearProgram
    solution: Solution
    #: Integrality mask when the solve was a MILP (enables CT040/041).
    integer_mask: Optional[np.ndarray] = None
    #: Slot problem behind the LP (enables the CT051 profit identity).
    inputs: Optional[SlotInputs] = None
    #: Decoded plan for the solution (enables CT051).
    plan: Optional[DispatchPlan] = None
    thresholds: CertifyThresholds = field(default_factory=CertifyThresholds)

    _x: Optional[np.ndarray] = field(default=None, repr=False)
    _slack_ub: Optional[np.ndarray] = field(default=None, repr=False)
    _reduced_costs: Optional[np.ndarray] = field(default=None, repr=False)
    _built_reduced: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.integer_mask is not None:
            self.integer_mask = np.asarray(
                self.integer_mask, dtype=bool
            ).ravel()

    # ------------------------------------------------------ cached derived

    @property
    def x(self) -> np.ndarray:
        """The solution vector as a float array (never None)."""
        if self._x is None:
            if self.solution.x is None:
                raise ValueError("cannot certify a solution without x")
            self._x = np.asarray(self.solution.x, dtype=float).ravel()
        return self._x

    @property
    def objective_scale(self) -> float:
        """``max(1, |c|_inf)`` — the dual-side tolerance scale."""
        return max(1.0, float(np.abs(self.lp.c).max(initial=0.0)))

    @property
    def has_duals(self) -> bool:
        """True when the dual-side families (CT020..CT031) can run.

        Requires inequality marginals matching the row count, plus
        equality marginals whenever the problem has equality rows (the
        reduced costs need both).  Marginals of the wrong length degrade
        to primal-only certification rather than crashing.
        """
        if self.lp.a_ub is not None:
            y = self.solution.ineq_marginals
            if y is None or np.asarray(y).size != self.lp.a_ub.shape[0]:
                return False
        elif self.solution.ineq_marginals is None:
            return False
        if self.lp.a_eq is not None:
            y_eq = self.solution.eq_marginals
            if y_eq is None or np.asarray(y_eq).size != self.lp.a_eq.shape[0]:
                return False
        return True

    def slack_ub(self) -> Optional[np.ndarray]:
        """``b_ub - A_ub x`` (None when the LP has no inequality rows)."""
        if self.lp.a_ub is None:
            return None
        if self._slack_ub is None:
            self._slack_ub = np.asarray(
                self.lp.b_ub - self.lp.a_ub @ self.x
            ).ravel()
        return self._slack_ub

    def reduced_costs(self) -> Optional[np.ndarray]:
        """``c - A_ub' y - A_eq' y_eq`` (None without dual data).

        In the marginal convention (``y`` is the change of the
        *minimization* objective per unit of rhs), binding ``<=`` rows
        carry ``y <= 0`` and the reduced cost of a variable at its
        lower bound is nonnegative.
        """
        if not self._built_reduced:
            self._built_reduced = True
            if self.has_duals:
                d = self.lp.c.astype(float).copy()
                if self.lp.a_ub is not None:
                    y = np.asarray(
                        self.solution.ineq_marginals, dtype=float
                    ).ravel()
                    d -= np.asarray(self.lp.a_ub.T @ y).ravel()
                if self.lp.a_eq is not None:
                    y_eq = np.asarray(
                        self.solution.eq_marginals, dtype=float
                    ).ravel()
                    d -= np.asarray(self.lp.a_eq.T @ y_eq).ravel()
                self._reduced_costs = d
        return self._reduced_costs


class CertifyRule:
    """Base class for certificate checks; subclasses override + check.

    Attributes
    ----------
    code:
        Lead ``CT0xx`` code the family registers under.
    codes:
        All codes the family can emit, mapped to a one-line summary
        (surfaced by ``repro certify --list-checks`` and the docs
        catalog).
    name:
        Short kebab-case slug of the check family.
    rationale:
        One paragraph tying the certificate to LP/MILP optimality
        theory or to the repo's solve-path invariants.
    """

    code: str = ""
    codes: Dict[str, str] = {}
    name: str = ""
    rationale: str = ""

    def check(self, ctx: CertifyContext) -> Iterator[CertFinding]:
        """Yield findings for one solved problem."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing

    def finding(
        self,
        code: str,
        severity: str,
        component: str,
        message: str,
        **data: float,
    ) -> CertFinding:
        """Build one finding, asserting the code belongs to this family."""
        if code not in self.codes:
            raise ValueError(
                f"rule {self.name} emitted unregistered code {code}"
            )
        return CertFinding(
            code=code, severity=severity, component=component,
            message=message, data=data,
        )


_REGISTRY: Dict[str, CertifyRule] = {}


def register_certify(rule_cls: Type[CertifyRule]) -> Type[CertifyRule]:
    """Class decorator adding one certificate check to the registry."""
    if not _CODE_RE.match(rule_cls.code or ""):
        raise ValueError(
            f"certify rule {rule_cls.__name__} needs a lead code matching "
            f"CTxxx, got {rule_cls.code!r}"
        )
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate certify rule code {rule_cls.code}")
    if not rule_cls.name:
        raise ValueError(f"certify rule {rule_cls.code} needs a name")
    for code in rule_cls.codes:
        if not _CODE_RE.match(code):
            raise ValueError(
                f"certify rule {rule_cls.name}: bad code {code!r}"
            )
    if rule_cls.code not in rule_cls.codes:
        raise ValueError(
            f"certify rule {rule_cls.name}: lead code {rule_cls.code} "
            "missing from its codes catalog"
        )
    _REGISTRY[rule_cls.code] = rule_cls()
    return rule_cls


def all_certify_rules() -> List[CertifyRule]:
    """Every registered certificate check, sorted by lead code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_certify_rule(code: str) -> CertifyRule:
    """Look up the check family owning ``code`` (lead or member)."""
    for rule in _REGISTRY.values():
        if code == rule.code or code in rule.codes:
            return rule
    raise KeyError(
        f"unknown certificate code {code!r}; known: "
        f"{sorted(c for r in _REGISTRY.values() for c in r.codes)}"
    )
