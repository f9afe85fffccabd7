"""Incremental plan repair: re-dispatch the delta along standing routes.

A full ``plan_slot`` solve picks routes *and* CPU shares.  When the
arrival estimate moves only a little, the standing plan's routing
weights and shares are usually still near-optimal — re-scaling each
``(class, front-end)`` row of the dispatch tensor to the new target
rate, capped at every server's deadline-safe rate, is orders of
magnitude cheaper than a solve.  :func:`repair_plan` does exactly that
and reports the achieved *coverage*; the streaming controller escalates
to a full solve when coverage falls below its repair margin.

:func:`plan_margin` is the companion health signal: the minimum relative
headroom of the standing plan's loaded servers against their
deadline-safe rates under a hypothetical arrival grid — the quantity
:class:`~repro.stream.policy.MarginTriggered` watches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.plan import DispatchPlan
from repro.solvers.tolerances import STRICT_TOL

__all__ = ["RepairOutcome", "plan_margin", "repair_plan"]

#: Loads below this are treated as "no route" / "unloaded" (the same
#: threshold the plan's memoized route weights use).
_LOAD_TOL = STRICT_TOL


def _routes(
    plan: DispatchPlan, deadlines: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The standing plan's ``(K, S, N)`` route weights and ``(K, N)``
    deadline-safe max rates ``max(0, share * C * mu - 1/D)``.

    Both are per-plan constants, memoized on the plan, so
    :func:`plan_margin` and :func:`repair_plan` on the same standing
    plan derive them once (explicit ``deadlines`` redo the rates).
    """
    if deadlines is None:
        safe = plan._deadline_safe_rates
    else:
        safe = plan._safe_rates(np.asarray(deadlines, dtype=float))
    return plan._route_weights, safe


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one :func:`repair_plan` call."""

    plan: DispatchPlan = field(repr=False)
    #: Fraction of the target rate the repaired plan dispatches
    #: (1.0 = full coverage; < 1 when routes or capacity are missing).
    coverage: float
    delivered: float
    target: float


def repair_plan(
    plan: DispatchPlan,
    target: np.ndarray,
    deadlines: Optional[np.ndarray] = None,
) -> RepairOutcome:
    """Re-scale a standing plan to a new ``(K, S)`` arrival target.

    Each ``(k, s)`` row keeps its routing weights (the standing plan's
    per-server split) and is scaled to the new target rate; the summed
    per-server loads are then capped at the deadline-safe rate implied
    by the standing CPU shares.  Rows the standing plan never routed
    (zero dispatch) stay zero — repair cannot invent routes, only move
    volume along existing ones; missing volume shows up as coverage
    < 1 and triggers escalation to a full solve.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != plan.rates.shape[:2]:
        raise ValueError(
            f"target must have shape {plan.rates.shape[:2]}"
        )
    weights, safe = _routes(plan, deadlines)
    rates = target[:, :, None] * weights  # (K, S, N)

    # Cap each (class, server) load at its deadline-safe rate by
    # uniformly shrinking that server's share of every front-end row.
    loads = rates.sum(axis=1)  # (K, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            loads > safe, safe / np.maximum(loads, _LOAD_TOL), 1.0
        )
    rates *= np.clip(scale, 0.0, 1.0)[:, None, :]

    repaired = DispatchPlan(
        topology=plan.topology, rates=rates, shares=plan.shares
    )
    delivered = float(rates.sum())
    wanted = float(target.sum())
    coverage = 1.0 if wanted <= _LOAD_TOL else delivered / wanted
    return RepairOutcome(
        plan=repaired, coverage=coverage, delivered=delivered, target=wanted
    )


def plan_margin(
    plan: DispatchPlan,
    target: np.ndarray,
    deadlines: Optional[np.ndarray] = None,
) -> float:
    """SLA margin of a standing plan under a hypothetical arrival grid.

    Projects ``target`` onto the plan's routes (same weights as
    :func:`repair_plan`, uncapped) and returns the minimum relative
    headroom ``(safe - load) / safe`` over loaded servers, clipped to
    ``[-1, 1]``.  1.0 = idle/no load; 0 = a server exactly at its
    deadline-safe rate; negative = the standing plan would violate the
    deadline at those rates.  Demand on routes the plan does not serve
    counts as zero-headroom pressure only through coverage (see
    :func:`repair_plan`), not through this signal.
    """
    target = np.asarray(target, dtype=float)
    weights, safe = _routes(plan, deadlines)
    loads = (target[:, :, None] * weights).sum(axis=1)  # (K, N)
    loaded = loads > _LOAD_TOL
    if not bool(loaded.any()):
        return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        headroom = (safe - loads) / np.maximum(safe, _LOAD_TOL)
    return float(np.clip(headroom[loaded], -1.0, 1.0).min())
