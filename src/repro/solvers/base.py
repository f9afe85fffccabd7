"""Problem and solution datatypes shared by all solvers.

Conventions: problems are stated as *minimization*; callers that
maximize (net profit) negate their objective.  Variables carry
elementwise lower/upper bounds; inequality rows are ``A_ub @ x <= b_ub``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.solvers.tolerances import FEASIBILITY_TOL

__all__ = [
    "SolveStatus",
    "SolverError",
    "LinearProgram",
    "MixedIntegerProgram",
    "Solution",
    "SolverState",
    "problem_signature",
]


class SolveStatus(enum.Enum):
    """Terminal status of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a usable answer."""


def _as_2d(arr: object, name: str, ncols: int) -> Optional[np.ndarray]:
    if arr is None:
        return None
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.shape[1] != ncols:
        raise ValueError(f"{name} must have {ncols} columns, got {out.shape[1]}")
    return out


@dataclass
class LinearProgram:
    """``min c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``l <= x <= u``.

    ``lower`` defaults to 0 and ``upper`` to +inf (the natural ranges for
    rates and CPU shares in the paper's formulation).
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if n == 0:
            raise ValueError("objective must have at least one variable")
        self.a_ub = _as_2d(self.a_ub, "a_ub", n)
        self.a_eq = _as_2d(self.a_eq, "a_eq", n)
        if (self.a_ub is None) != (self.b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if self.b_ub is not None:
            self.b_ub = np.asarray(self.b_ub, dtype=float).ravel()
            if self.b_ub.size != self.a_ub.shape[0]:
                raise ValueError("b_ub length must match a_ub rows")
        if self.b_eq is not None:
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.b_eq.size != self.a_eq.shape[0]:
                raise ValueError("b_eq length must match a_eq rows")
        self.lower = (
            np.zeros(n) if self.lower is None
            else np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None
            else np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        )
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound for some variable")

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return int(self.c.size)

    @property
    def num_constraints(self) -> int:
        """Total inequality + equality row count."""
        rows = 0
        if self.a_ub is not None:
            rows += self.a_ub.shape[0]
        if self.a_eq is not None:
            rows += self.a_eq.shape[0]
        return rows

    def residuals(self, x: np.ndarray) -> dict:
        """Constraint violation magnitudes at ``x`` (for verification)."""
        x = np.asarray(x, dtype=float)
        out = {
            "bound_lower": float(np.max(np.clip(self.lower - x, 0, None), initial=0.0)),
            "bound_upper": float(np.max(np.clip(x - self.upper, 0, None), initial=0.0)),
        }
        if self.a_ub is not None:
            out["ineq"] = float(
                np.max(np.clip(self.a_ub @ x - self.b_ub, 0, None), initial=0.0)
            )
        else:
            out["ineq"] = 0.0
        if self.a_eq is not None:
            out["eq"] = float(np.max(np.abs(self.a_eq @ x - self.b_eq), initial=0.0))
        else:
            out["eq"] = 0.0
        return out

    def is_feasible(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        """True if ``x`` satisfies all constraints within ``tol``."""
        res = self.residuals(x)
        return all(v <= tol for v in res.values())


@dataclass
class MixedIntegerProgram:
    """A :class:`LinearProgram` plus an integrality mask.

    ``integer_mask[j]`` is True when variable ``j`` must take an integer
    value at the optimum (the level-selector variables of the paper's
    Eqs. 14/25).
    """

    lp: LinearProgram
    integer_mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.integer_mask, dtype=bool).ravel()
        if mask.size != self.lp.num_variables:
            raise ValueError(
                f"integer_mask length {mask.size} != variables {self.lp.num_variables}"
            )
        self.integer_mask = mask

    @property
    def num_integers(self) -> int:
        """Number of integer-constrained variables."""
        return int(self.integer_mask.sum())


def problem_signature(lp: "LinearProgram") -> Tuple[int, int, int]:
    """Shape triple identifying a problem's structure for warm-start reuse."""
    ub_rows = 0 if lp.a_ub is None else int(lp.a_ub.shape[0])
    eq_rows = 0 if lp.a_eq is None else int(lp.a_eq.shape[0])
    return (lp.num_variables, ub_rows, eq_rows)


@dataclass
class SolverState:
    """Opaque cross-solve reuse token for warm-starting.

    Solvers attach a state to :attr:`Solution.state`; passing it back to
    the next solve of a *structurally identical* problem (same variable
    layout and row counts — only coefficient data changed, as between
    successive slots of the paper's controller) lets the solver skip
    most of its cold-start work:

    * simplex — ``basis`` holds the optimal standard-form basis, reused
      as the starting vertex;
    * interior point — ``point``/``dual``/``slack`` hold the final
      primal-dual iterate, re-centred into a starting point;
    * branch and bound — ``point`` holds the previous incumbent, whose
      integer assignment seeds the new incumbent for immediate pruning.

    States are **advisory**: a solver that finds the state stale
    (signature mismatch, singular basis, infeasible at the new data)
    silently falls back to a cold start, so correctness never depends on
    the state.  The payload is plain ndarrays and primitives, hence
    picklable — it can cross the process-pool boundary used by
    :mod:`repro.sim.parallel`.
    """

    method: str
    signature: Tuple[int, int, int] = (0, 0, 0)
    basis: Optional[np.ndarray] = None
    point: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None
    slack: Optional[np.ndarray] = None

    def matches(self, lp: "LinearProgram") -> bool:
        """True when ``lp`` has the structure this state was taken from."""
        return tuple(self.signature) == problem_signature(lp)


@dataclass
class Solution:
    """Solver output: status, solution vector, and objective value.

    ``ineq_marginals``/``eq_marginals`` carry the dual values of the
    inequality/equality rows when the backend provides them (HiGHS LP):
    the change in the *minimization* objective per unit increase of the
    corresponding right-hand side.  ``state`` carries the solver's
    warm-start token (see :class:`SolverState`) when the backend
    supports cross-solve reuse.  ``warm_start_used`` reports whether an
    *incoming* state actually steered this solve (simplex basis
    accepted, IPM warm point converged, B&B incumbent seeded) — False
    both when no state was offered and when a stale one was rejected.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0
    nodes: int = 0
    message: str = ""
    gap: float = field(default=0.0)
    ineq_marginals: Optional[np.ndarray] = None
    eq_marginals: Optional[np.ndarray] = None
    state: Optional[SolverState] = None
    warm_start_used: bool = False

    @property
    def ok(self) -> bool:
        """True when the solve reached a (near-)optimal point."""
        return self.status is SolveStatus.OPTIMAL and self.x is not None

    def require_ok(self) -> "Solution":
        """Return self, raising :class:`SolverError` unless optimal."""
        if not self.ok:
            raise SolverError(
                f"solve failed: {self.status.value} {self.message}".strip()
            )
        return self
