"""Runtime admission control from the MD043 deadline-safe-capacity check.

The formulation auditor's MD043 rule computes, per request class, the
largest aggregate arrival rate the fleet can serve with every M/M/1
server meeting the class deadline:

``safe_k = sum_l M_l * max(0, C_l * mu_kl - 1 / D'_k)``

(:mod:`repro.analysis.model.feasibility`).  Here the same quantity is a
*runtime* signal: when a tick's offered load exceeds it, the marginal
load is shed proportionally across front-ends before planning, so the
optimizer never receives a structurally infeasible slot problem.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cloud.topology import CloudTopology
from repro.solvers.tolerances import DEADLINE_SAFETY

__all__ = ["deadline_safe_capacity", "shed_to_capacity"]


def deadline_safe_capacity(
    topology: CloudTopology, deadlines: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-class fleet-wide deadline-safe capacity (the MD043 bound).

    Parameters
    ----------
    topology:
        The static system.
    deadlines:
        Optional effective per-class deadlines ``(K,)``; defaults to
        each class's final TUF deadline with the formulation's
        ``DEADLINE_SAFETY`` shrink, matching the optimizer's own
        constraint set.

    Returns
    -------
    ``(K,)`` array: the largest total arrival rate of class ``k`` the
    whole fleet can absorb with every server's M/M/1 delay within the
    deadline (dedicating all capacity to that class).
    """
    if deadlines is None:
        deadlines = np.array(
            [rc.deadline for rc in topology.request_classes]
        ) * (1.0 - DEADLINE_SAFETY)
    else:
        deadlines = np.asarray(deadlines, dtype=float)
    mu = topology.service_rates  # (K, L)
    cap = topology.server_capacities  # (L,)
    servers = topology.servers_per_datacenter  # (L,)
    per_server = np.clip(
        cap[None, :] * mu - 1.0 / deadlines[:, None], 0.0, None
    )  # (K, L)
    return np.asarray((servers[None, :] * per_server).sum(axis=1))


def shed_to_capacity(
    arrivals: np.ndarray, capacity: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Clip per-class offered load to the fleet's safe capacity.

    Load beyond ``capacity[k]`` is shed *proportionally* across
    front-ends (each front-end keeps the same admitted fraction), which
    preserves the spatial mix the planner would otherwise see.

    Returns ``(admitted, shed)`` where ``admitted`` is the ``(K, S)``
    rate grid handed to the planner and ``shed`` is the ``(K,)`` rate
    that was turned away.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    totals = arrivals.sum(axis=1)  # (K,)
    over = totals > capacity
    if not bool(over.any()):
        return arrivals, np.zeros_like(totals)
    scale = np.ones_like(totals)
    # Lanes in ``over`` have totals > capacity >= 0 (the MD043 bound is
    # clipped at zero), so the clamp below is inert for valid inputs.
    scale[over] = capacity[over] / np.maximum(totals[over], 1e-300)
    admitted = arrivals * scale[:, None]
    shed = np.clip(totals - capacity, 0.0, None) * over
    return admitted, shed
