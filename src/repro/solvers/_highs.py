"""Persistent HiGHS models behind :func:`repro.solvers.linprog.solve_lp`.

``scipy.optimize.linprog(method="highs")`` validates its inputs,
converts the constraint matrix to CSC and builds a new HiGHS model on
every call.  The slot LPs that one formulation cache hands out share a
single constraint matrix and differ only in the costs ``c`` and the
right-hand side ``b_ub``, so this adapter builds one HiGHS model per
shared matrix with one ``passModel`` and, per solve, only edits every
column cost (``changeColsCost``) and the rows whose bound changed
(``changeRowBounds``).

The model is persistent only for a matrix that is read-only and owns
its data (the shared skeleton of ``FixedLevelLPCache``).  It is keyed by
that array's identity through a weak reference, so it is dropped with
the array: it never goes stale, never outlives its formulation and
never pins memory.  It lives in this module, never on a pickled object.
Every other LP gets a throwaway model for its one solve.

Every run starts from a cleared solver, never from the previous slot's
basis.  The slot LPs are degenerate: a warm basis returns a different
optimal vertex with the same objective, and the streaming controller,
which repairs a plan while the vertex stays put, then loses profit
(0.5-2.2% per §VI day).  With the solver cleared and scipy's
``method="highs"`` options (presolve on, dual simplex, default
tolerances), ``x`` and the row duals are bit-identical to ``linprog``.

The adapter uses the HiGHS build bundled with scipy through its private
bindings, ``scipy.optimize._highspy._core``.  They are probed once at
import; when they are missing :data:`AVAILABLE` is False and
``solve_lp`` falls back to ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Any, Dict, Optional, Tuple

import numpy as np
from scipy.sparse import csc_array

from repro.obs.collectors import Collector
from repro.solvers.base import LinearProgram, Solution, SolveStatus

__all__ = ["AVAILABLE", "HighsModel", "highs_solve"]

#: ``_Highs`` methods the adapter calls.
_REQUIRED = (
    "passModel", "changeColsCost", "changeRowBounds", "clearSolver",
    "run", "getSolution", "getInfo", "getModelStatus",
)


def _probe() -> Any:
    """The private HiGHS bindings, or None when any needed name is missing."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    try:
        for name in _REQUIRED:
            getattr(_core._Highs, name)
        for name in ("HighsLp", "MatrixFormat", "HighsModelStatus",
                     "HighsStatus"):
            getattr(_core, name)
        getattr(_core.simplex_constants.SimplexStrategy,
                "kSimplexStrategyDual")
    except AttributeError:
        return None
    return _core


_CORE: Any = _probe()
#: True when the persistent-model path is usable.
AVAILABLE = _CORE is not None

#: scipy's ``_check_result`` feasibility tolerance for ``tol=1e-9``.
_CHECK_TOL = float(np.sqrt(1e-9) * 10)
#: HiGHS's default (unlimited) iteration limit.
_NO_LIMIT = 2147483647
_ITERATION_LIMITS = ("simplex_iteration_limit", "ipm_iteration_limit")


def _status_map() -> Dict[Any, SolveStatus]:
    if _CORE is None:
        return {}
    ms = _CORE.HighsModelStatus
    return {
        ms.kOptimal: SolveStatus.OPTIMAL,
        ms.kInfeasible: SolveStatus.INFEASIBLE,
        ms.kUnbounded: SolveStatus.UNBOUNDED,
        ms.kUnboundedOrInfeasible: SolveStatus.UNBOUNDED,
        ms.kIterationLimit: SolveStatus.ITERATION_LIMIT,
    }


_STATUS = _status_map()


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must not contain inf or nan")


class HighsModel:
    """One HiGHS model of one constraint matrix, re-solved in place."""

    def __init__(self, lp: LinearProgram) -> None:
        n = lp.num_variables
        b_ub = np.empty(0) if lp.b_ub is None else lp.b_ub
        b_eq = np.empty(0) if lp.b_eq is None else lp.b_eq
        blocks = [a for a in (lp.a_ub, lp.a_eq) if a is not None]
        a = np.vstack(blocks) if blocks else np.zeros((0, n))
        _require_finite("constraint matrix", a)
        matrix = csc_array(a)
        self._n_ub = b_ub.size
        self._cols = np.arange(n, dtype=np.int32)
        self._lock = threading.Lock()
        self._limited = False
        # Row bounds as HiGHS holds them: -inf <= A_ub x <= b_ub, then
        # b_eq <= A_eq x <= b_eq.
        row_lower = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
        self._row_upper = np.concatenate([b_ub, b_eq])
        self._lower = np.array(lp.lower, dtype=float)
        self._upper = np.array(lp.upper, dtype=float)

        core = _CORE
        model = core.HighsLp()
        model.num_col_ = n
        model.num_row_ = self._row_upper.size
        model.a_matrix_.num_col_ = n
        model.a_matrix_.num_row_ = self._row_upper.size
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_ = matrix.indptr
        model.a_matrix_.index_ = matrix.indices
        model.a_matrix_.value_ = matrix.data
        model.col_cost_ = lp.c
        model.col_lower_ = self._lower
        model.col_upper_ = self._upper
        model.row_lower_ = row_lower
        model.row_upper_ = self._row_upper
        highs = core._Highs()
        # The options scipy's linprog(method="highs") sets; every other
        # option keeps its HiGHS default.
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("highs_debug_level", 0)
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue(
            "simplex_strategy",
            int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        )
        if highs.passModel(model) == core.HighsStatus.kError:
            raise ValueError("HiGHS rejected the model")
        self._highs = highs

    def _refill(self, lp: LinearProgram) -> None:
        """Edit costs, changed ``b_ub`` rows and changed column bounds.

        Only persistent models are refilled; their rows are exactly the
        ``b_ub`` rows (see :func:`highs_solve`).
        """
        highs = self._highs
        highs.changeColsCost(self._cols.size, self._cols, lp.c)
        b_ub = lp.b_ub
        assert b_ub is not None
        for row in np.flatnonzero(b_ub != self._row_upper):
            highs.changeRowBounds(int(row), -np.inf, float(b_ub[row]))
        self._row_upper[:] = b_ub
        if not (np.array_equal(lp.lower, self._lower)
                and np.array_equal(lp.upper, self._upper)):
            highs.changeColsBounds(self._cols.size, self._cols,
                                   lp.lower, lp.upper)
            self._lower = np.array(lp.lower, dtype=float)
            self._upper = np.array(lp.upper, dtype=float)

    def _set_iteration_limit(self, limit: Optional[int]) -> None:
        if limit is None and not self._limited:
            return
        value = _NO_LIMIT if limit is None else int(limit)
        for name in _ITERATION_LIMITS:
            self._highs.setOptionValue(name, value)
        self._limited = limit is not None

    def solve(self, lp: LinearProgram, fresh: bool,
              max_iterations: Optional[int] = None) -> Solution:
        """Solve ``lp``, whose matrix is this model's, from a cleared solver.

        ``fresh`` says the model was just built from ``lp``, so there is
        nothing to edit.  ``max_iterations`` bounds this solve only.
        """
        with self._lock:
            if not fresh:
                self._refill(lp)
            self._set_iteration_limit(max_iterations)
            return self._run(lp)

    def _run(self, lp: LinearProgram) -> Solution:
        core = _CORE
        highs = self._highs
        highs.clearSolver()
        if highs.run() == core.HighsStatus.kError:
            model_status = highs.getModelStatus()
            return Solution(status=_STATUS.get(model_status,
                                               SolveStatus.NUMERICAL_ERROR),
                            message=highs.modelStatusToString(model_status))
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count
                         or info.ipm_iteration_count)
        message = highs.modelStatusToString(model_status)
        status = _STATUS.get(model_status, SolveStatus.NUMERICAL_ERROR)
        if status is not SolveStatus.OPTIMAL:
            return Solution(status=status, iterations=iterations,
                            message=message)
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row_dual = np.array(solution.row_dual)
        residual = self._row_upper - np.array(solution.row_value)
        if not self._feasible(x, float(info.objective_function_value),
                              residual):
            return Solution(
                status=SolveStatus.NUMERICAL_ERROR, iterations=iterations,
                message="solution violates the constraints beyond "
                        f"{_CHECK_TOL:.2E} without a HiGHS failure",
            )
        x = np.clip(x, lp.lower, lp.upper)
        n_ub = self._n_ub
        return Solution(
            status=SolveStatus.OPTIMAL,
            x=x,
            objective=float(lp.c @ x),
            iterations=iterations,
            message=message,
            ineq_marginals=row_dual[:n_ub],
            eq_marginals=row_dual[n_ub:],
        )

    def _feasible(self, x: np.ndarray, objective: float,
                  residual: np.ndarray) -> bool:
        """scipy ``linprog``'s post-solve check of an "optimal" answer."""
        n_ub = self._n_ub
        slack, con = residual[:n_ub], residual[n_ub:]
        if (np.isnan(x).any() or np.isnan(objective)
                or np.isnan(residual).any()):
            return False
        in_bounds = ((x >= self._lower - _CHECK_TOL)
                     & (x <= self._upper + _CHECK_TOL)).all()
        return bool(in_bounds and not (slack < -_CHECK_TOL).any()
                    and not (np.abs(con) > _CHECK_TOL).any())


#: Persistent models by ``id`` of their shared, read-only ``a_ub``.
_MODELS: Dict[int, Tuple["weakref.ref[np.ndarray]", HighsModel]] = {}


def _forget(key: int, ref: "weakref.ref[np.ndarray]") -> None:
    entry = _MODELS.get(key)
    if entry is not None and entry[0] is ref:
        del _MODELS[key]


def _is_shared_skeleton(a_ub: Optional[np.ndarray]) -> bool:
    """True for a read-only matrix that owns its data (cannot change)."""
    return (a_ub is not None and not a_ub.flags.writeable
            and a_ub.flags.owndata)


def highs_solve(lp: LinearProgram, collector: Collector,
                max_iterations: Optional[int] = None) -> Solution:
    """Solve ``lp`` on a persistent or throwaway :class:`HighsModel`.

    Counts ``highs.model_builds`` / ``highs.model_reuses`` on
    ``collector``.  Like ``linprog``, raises ``ValueError`` on a
    non-finite cost, right-hand side or matrix entry.  Requires
    :data:`AVAILABLE`.
    """
    _require_finite("c", lp.c)
    for name, rhs in (("b_ub", lp.b_ub), ("b_eq", lp.b_eq)):
        if rhs is not None:
            _require_finite(name, rhs)
    a_ub = lp.a_ub
    if lp.a_eq is None and _is_shared_skeleton(a_ub):
        assert a_ub is not None
        key = id(a_ub)
        entry = _MODELS.get(key)
        if entry is not None and entry[0]() is a_ub:
            collector.increment("highs.model_reuses")
            return entry[1].solve(lp, fresh=False,
                                  max_iterations=max_iterations)
        model = HighsModel(lp)
        ref = weakref.ref(a_ub, functools.partial(_forget, key))
        _MODELS[key] = (ref, model)
    else:
        model = HighsModel(lp)
    collector.increment("highs.model_builds")
    return model.solve(lp, fresh=True, max_iterations=max_iterations)
