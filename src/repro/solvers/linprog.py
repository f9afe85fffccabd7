"""Unified LP front-end.

``solve_lp`` routes a :class:`~repro.solvers.base.LinearProgram` to
HiGHS (fast, default), the library's own simplex, or the library's own
primal-dual interior-point method — three independent implementations
cross-checked in tests.  HiGHS runs on a persistent model
(:mod:`repro.solvers._highs`) when scipy's private bindings are present
and through ``scipy.optimize.linprog`` otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import optimize

from repro.obs.collectors import NULL_COLLECTOR, Collector
from repro.solvers import _highs
from repro.solvers.base import LinearProgram, Solution, SolverState, SolveStatus
from repro.solvers.interior_point import InteriorPointSolver
from repro.solvers.simplex import SimplexSolver

__all__ = ["solve_lp"]

_SCIPY_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.NUMERICAL_ERROR,
}


def solve_lp(
    lp: LinearProgram,
    method: str = "highs",
    state: Optional[SolverState] = None,
    collector: Optional[Collector] = None,
    max_iterations: Optional[int] = None,
) -> Solution:
    """Solve a linear program.

    Parameters
    ----------
    lp:
        The minimization problem.
    method:
        ``"highs"`` for the HiGHS dual simplex bundled with scipy,
        ``"simplex"`` for the library's own two-phase simplex, ``"ipm"``
        for the library's own primal-dual interior-point method.
    state:
        Optional :class:`~repro.solvers.base.SolverState` from an
        earlier solve of a structurally identical problem.  ``simplex``
        and ``ipm`` warm-start from it (falling back to a cold start
        when it is stale).  ``highs`` ignores it and returns no state:
        it keeps one persistent HiGHS model per formulation cache (the
        read-only ``lp.a_ub`` of ``FixedLevelLPCache``), edits only the
        costs and changed right-hand sides per solve and starts every
        run from a cleared solver on purpose.  The slot LPs are
        degenerate, so a basis kept between slots returns a different
        optimal vertex with the same objective; the streaming
        controller then repairs where it would have re-solved, and on
        the §VI days its profit fell by 0.5-2.2% per day.  Cleared, the
        model returns the same ``x`` and row duals as
        ``scipy.optimize.linprog``, bit for bit; ``linprog`` is also the
        fallback when scipy's private HiGHS bindings are missing.
    collector:
        Optional telemetry sink (see :mod:`repro.obs`); receives
        backend-specific counters and timings (for ``highs``:
        ``highs.solve``, ``highs.iterations``, ``highs.model_builds``
        and ``highs.model_reuses``).
    max_iterations:
        Iteration budget (simplex pivots / IPM steps / HiGHS
        iterations); exhausting it yields ``ITERATION_LIMIT``.  ``None``
        keeps each backend's default.
    """
    collector = collector if collector is not None else NULL_COLLECTOR
    if method == "simplex":
        solver = (SimplexSolver() if max_iterations is None
                  else SimplexSolver(max_iterations=max_iterations))
        return solver.solve(lp, state=state, collector=collector)
    if method == "ipm":
        solver = (InteriorPointSolver() if max_iterations is None
                  else InteriorPointSolver(max_iterations=max_iterations))
        return solver.solve(lp, state=state, collector=collector)
    if method != "highs":
        raise ValueError(f"unknown LP method {method!r}")

    if state is not None:
        # The HiGHS backend never consumes a state; count the offer so
        # warm-start accounting stays truthful for this backend too.
        collector.increment("highs.warm_misses")
    if _highs.AVAILABLE:
        with collector.timer("highs.solve"):
            solution = _highs.highs_solve(lp, collector, max_iterations)
        collector.increment("highs.iterations", solution.iterations)
        return solution
    return _solve_linprog(lp, collector, max_iterations)


def _solve_linprog(
    lp: LinearProgram, collector: Collector, max_iterations: Optional[int]
) -> Solution:
    """The ``"highs"`` backend through ``scipy.optimize.linprog``."""
    bounds = np.column_stack([lp.lower, lp.upper])
    options = {} if max_iterations is None else {"maxiter": int(max_iterations)}
    with collector.timer("highs.solve"):
        result = optimize.linprog(
            c=lp.c,
            A_ub=lp.a_ub,
            b_ub=lp.b_ub,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=bounds,
            method="highs",
            options=options or None,
        )
    status = _SCIPY_STATUS.get(result.status, SolveStatus.NUMERICAL_ERROR)
    x = None
    objective = None
    ineq_marginals = None
    eq_marginals = None
    if result.x is not None and status is SolveStatus.OPTIMAL:
        x = np.clip(np.asarray(result.x, dtype=float), lp.lower, lp.upper)
        objective = float(lp.c @ x)
        if getattr(result, "ineqlin", None) is not None:
            ineq_marginals = np.asarray(result.ineqlin.marginals, dtype=float)
        if getattr(result, "eqlin", None) is not None:
            eq_marginals = np.asarray(result.eqlin.marginals, dtype=float)
    collector.increment("highs.iterations", int(getattr(result, "nit", 0) or 0))
    return Solution(
        status=status,
        x=x,
        objective=objective,
        iterations=int(getattr(result, "nit", 0) or 0),
        message=str(result.message or ""),
        ineq_marginals=ineq_marginals,
        eq_marginals=eq_marginals,
    )
