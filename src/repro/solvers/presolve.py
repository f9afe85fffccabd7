"""LP presolve reductions.

Classic size reductions applied before a solve, with a postsolve step
mapping the reduced solution back to the original variable space:

1. **fixed variables** — ``l_j == u_j`` pins ``x_j``; its contribution
   folds into the right-hand sides and the objective offset;
2. **empty rows** — all-zero inequality rows are satisfiability checks;
3. **redundant rows** — an inequality row whose worst-case (interval
   arithmetic over the bounds) left-hand side cannot exceed its rhs is
   dropped.

These matter most for the per-server formulations, where failed/zeroed
servers and minimum-share pins create many fixed variables.  The own
simplex gains the most; HiGHS has its own presolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.solvers.base import (
    LinearProgram,
    Solution,
    SolverState,
    SolveStatus,
)
from repro.solvers.tolerances import STRICT_TOL, ZERO_TOL

__all__ = ["PresolveResult", "presolve", "solve_with_presolve"]


@dataclass
class PresolveResult:
    """Outcome of a presolve pass."""

    #: The reduced problem; None when presolve already decided the LP.
    reduced: Optional[LinearProgram]
    #: Maps a reduced solution vector back to the original space.
    restore: Callable[[np.ndarray], np.ndarray]
    #: Objective contribution of eliminated variables.
    objective_offset: float
    #: Immediate verdict ("infeasible" or None).
    verdict: Optional[SolveStatus] = None
    fixed_variables: int = 0
    dropped_rows: int = 0


def presolve(
    lp: LinearProgram,
    tol: float = STRICT_TOL,
    collector: Optional[Collector] = None,
) -> PresolveResult:
    """Apply the reductions to ``lp``.

    ``collector`` (see :mod:`repro.obs`) receives the reduction counts
    (fixed variables, dropped rows) and the reduction timing.
    """
    collector = collector if collector is not None else NULL_COLLECTOR
    with collector.timer("presolve.reduce"):
        result = _reduce(lp, tol)
    collector.increment("presolve.fixed_variables", result.fixed_variables)
    collector.increment("presolve.dropped_rows", result.dropped_rows)
    if result.verdict is not None:
        collector.increment("presolve.decided")
    return result


def _reduce(lp: LinearProgram, tol: float) -> PresolveResult:
    """The reduction pass behind :func:`presolve`."""
    n = lp.num_variables
    fixed_mask = np.isclose(lp.lower, lp.upper, rtol=0.0, atol=tol)
    fixed_values = np.where(fixed_mask, lp.lower, 0.0)
    free_idx = np.nonzero(~fixed_mask)[0]
    offset = float(lp.c @ fixed_values)

    def restore(x_reduced: np.ndarray) -> np.ndarray:
        x = fixed_values.copy()
        x[free_idx] = x_reduced
        return x

    # Fold fixed columns into the right-hand sides.
    a_ub = b_ub = a_eq = b_eq = None
    dropped = 0
    if lp.a_ub is not None:
        b_ub_adj = lp.b_ub - lp.a_ub @ fixed_values
        a_ub_red = lp.a_ub[:, free_idx]
        keep = []
        lo = lp.lower[free_idx]
        hi = lp.upper[free_idx]
        for r in range(a_ub_red.shape[0]):
            row = a_ub_red[r]
            if not np.any(np.abs(row) > tol):
                if b_ub_adj[r] < -ZERO_TOL:
                    return PresolveResult(
                        reduced=None, restore=restore,
                        objective_offset=offset,
                        verdict=SolveStatus.INFEASIBLE,
                        fixed_variables=int(fixed_mask.sum()),
                    )
                dropped += 1
                continue
            # Interval arithmetic: max achievable lhs <= rhs => redundant.
            with np.errstate(invalid="ignore"):
                worst = np.sum(np.where(row > 0, row * hi, row * lo))
            if np.isfinite(worst) and worst <= b_ub_adj[r] + STRICT_TOL:
                dropped += 1
                continue
            keep.append(r)
        if keep:
            a_ub = a_ub_red[keep]
            b_ub = b_ub_adj[keep]
    if lp.a_eq is not None:
        b_eq_adj = lp.b_eq - lp.a_eq @ fixed_values
        a_eq_red = lp.a_eq[:, free_idx]
        keep = []
        for r in range(a_eq_red.shape[0]):
            if not np.any(np.abs(a_eq_red[r]) > tol):
                if abs(b_eq_adj[r]) > ZERO_TOL:
                    return PresolveResult(
                        reduced=None, restore=restore,
                        objective_offset=offset,
                        verdict=SolveStatus.INFEASIBLE,
                        fixed_variables=int(fixed_mask.sum()),
                    )
                dropped += 1
                continue
            keep.append(r)
        if keep:
            a_eq = a_eq_red[keep]
            b_eq = b_eq_adj[keep]

    if free_idx.size == 0:
        # Everything pinned: feasibility was checked row by row above,
        # except kept rows (there are none: any non-empty row over zero
        # free columns is empty) — so the fixed point stands.
        return PresolveResult(
            reduced=None, restore=restore, objective_offset=offset,
            verdict=None, fixed_variables=n, dropped_rows=dropped,
        )

    reduced = LinearProgram(
        c=lp.c[free_idx],
        a_ub=a_ub, b_ub=b_ub,
        a_eq=a_eq, b_eq=b_eq,
        lower=lp.lower[free_idx],
        upper=lp.upper[free_idx],
    )
    return PresolveResult(
        reduced=reduced, restore=restore, objective_offset=offset,
        fixed_variables=int(fixed_mask.sum()), dropped_rows=dropped,
    )


def solve_with_presolve(
    lp: LinearProgram,
    method: str = "highs",
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
) -> Solution:
    """Presolve, solve the reduction, and postsolve back.

    Falls through to a direct solve when nothing reduces.  ``state`` is
    a :class:`~repro.solvers.base.SolverState` taken from an earlier
    ``solve_with_presolve`` call: it lives in the *reduced* problem's
    space, so it composes with warm-starting whenever successive
    problems presolve to the same shape (the usual case for successive
    slots, where the fixed-variable pattern is structural).  A state
    that no longer fits the reduction is ignored by the inner solver.
    ``collector`` (see :mod:`repro.obs`) is threaded through both the
    reduction pass and the inner solve.
    """
    from repro.solvers.linprog import solve_lp

    result = presolve(lp, collector=collector)
    if result.verdict is not None:
        return Solution(status=result.verdict,
                        message="decided by presolve")
    if result.reduced is None:
        x = result.restore(np.empty(0))
        if not lp.is_feasible(x):
            return Solution(status=SolveStatus.INFEASIBLE,
                            message="fixed point violates constraints")
        return Solution(status=SolveStatus.OPTIMAL, x=x,
                        objective=float(lp.c @ x))
    inner = solve_lp(result.reduced, method=method, state=state,
                     collector=collector)
    if not inner.ok:
        return inner
    x = result.restore(inner.x)
    return Solution(
        status=SolveStatus.OPTIMAL,
        x=x,
        objective=float(lp.c @ x),
        iterations=inner.iterations,
        state=inner.state,
        warm_start_used=inner.warm_start_used,
    )
