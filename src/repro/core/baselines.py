"""Baseline dispatchers.

* :class:`BalancedDispatcher` — the paper's "Balanced" comparison
  (§V-A): static even resource allocation (each server's CPU split
  evenly across the ``K`` request types) and price-greedy dispatching —
  every front-end fills the data center with the lowest current
  electricity price first, then the next cheapest, until capacity runs
  out; leftovers are dropped.
* :class:`EvenSplitDispatcher` — a naive spread-everything baseline used
  in ablations: every front-end splits each class evenly over all
  servers, subject to the same admission cap.

Both produce :class:`~repro.core.plan.DispatchPlan` objects scored by
the same :func:`~repro.core.objective.evaluate_plan` as the optimizer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cloud.topology import CloudTopology
from repro.core.plan import DispatchPlan
from repro.queueing.mm1 import mm1_max_rate
from repro.solvers.tolerances import DEADLINE_SAFETY
from repro.utils.validation import check_nonnegative

__all__ = ["BalancedDispatcher", "EvenSplitDispatcher"]


def _admission_deadlines(topology: CloudTopology, level: Optional[int]) -> np.ndarray:
    """Per-class deadline used as the admission cutoff.

    ``level=None`` uses each class's final deadline ``D_k`` (fill as much
    as possible — any met sub-level still earns utility); an explicit
    ``level`` targets that sub-deadline instead.  Deadlines carry the
    same tiny safety shrink as the optimizer's formulation so realized
    delays never float past the TUF cliff.
    """
    out = np.empty(topology.num_classes)
    for k, rc in enumerate(topology.request_classes):
        if level is None:
            out[k] = rc.deadline
        else:
            deadlines = rc.tuf.deadlines
            q = min(level, deadlines.size - 1)
            out[k] = float(deadlines[q])
    return out * (1.0 - DEADLINE_SAFETY)


class BalancedDispatcher:
    """The paper's static price-greedy baseline ("Balanced").

    Parameters
    ----------
    topology:
        The static system.
    admission_level:
        TUF level whose sub-deadline caps per-server admission
        (``None`` = the final deadline, the most permissive choice).
    """

    name = "balanced"

    def __init__(
        self, topology: CloudTopology, admission_level: Optional[int] = None
    ) -> None:
        self.topology = topology
        self._deadlines = _admission_deadlines(topology, admission_level)
        K = topology.num_classes
        # Static even allocation: phi = 1/K on every server.
        self._share = 1.0 / K
        # Admissible per-server rate per (k, l): max(0, (1/K) C mu - 1/D).
        mu = topology.service_rates  # (K, L)
        cap = topology.server_capacities  # (L,)
        self._per_server_cap = mm1_max_rate(
            self._share * cap[None, :] * mu, self._deadlines[:, None]
        )  # (K, L)

    def plan_slot(
        self,
        arrivals: np.ndarray,
        prices: np.ndarray,
        slot_duration: float = 1.0,
    ) -> DispatchPlan:
        """Build the Balanced plan for one slot.

        Front-ends are processed in index order; each fills data centers
        in ascending electricity-price order within the per-class
        admission capacity.  Loads assigned to a data center are spread
        evenly over its servers (the "balanced" allocation).
        """
        topo = self.topology
        arrivals = check_nonnegative(arrivals, "arrivals")
        prices = check_nonnegative(prices, "prices")
        K, S, L = topo.num_classes, topo.num_frontends, topo.num_datacenters
        if arrivals.shape != (K, S):
            raise ValueError(f"arrivals must have shape {(K, S)}")
        if prices.shape != (L,):
            raise ValueError(f"prices must have shape {(L,)}")

        M = topo.servers_per_datacenter
        remaining = self._per_server_cap * M[None, :]  # (K, L) DC capacity left
        assigned = np.zeros((K, S, L))
        order = np.argsort(prices, kind="stable")
        for s in range(S):
            for k in range(K):
                need = float(arrivals[k, s])
                for l in order:
                    if need <= 0:
                        break
                    take = min(need, float(remaining[k, l]))
                    if take > 0:
                        assigned[k, s, l] += take
                        remaining[k, l] -= take
                        need -= take
                # Any residual need is dropped.

        return self._expand(assigned)

    def _expand(self, assigned: np.ndarray) -> DispatchPlan:
        """Spread per-DC assignments evenly over each DC's servers."""
        topo = self.topology
        K, S = topo.num_classes, topo.num_frontends
        N = topo.num_servers
        rates = np.zeros((K, S, N))
        shares = np.full((K, N), self._share)
        offsets = topo.server_offsets()
        for l, dc in enumerate(topo.datacenters):
            sl = slice(offsets[l], offsets[l + 1])
            # A right-sized DC can hold zero servers; its slice is then
            # empty, so the max() floor never changes a written value.
            rates[:, :, sl] = (
                assigned[:, :, l][:, :, None] / max(dc.num_servers, 1)
            )
        return DispatchPlan(topology=topo, rates=rates, shares=shares)


class EvenSplitDispatcher:
    """Naive baseline: split every class evenly across all servers.

    Ignores prices entirely; subject to the same per-server admission
    cap as Balanced (excess is dropped proportionally).
    """

    name = "even_split"

    def __init__(
        self, topology: CloudTopology, admission_level: Optional[int] = None
    ) -> None:
        self.topology = topology
        self._deadlines = _admission_deadlines(topology, admission_level)
        K = topology.num_classes
        self._share = 1.0 / K
        mu = topology.service_rates
        cap = topology.server_capacities
        self._per_server_cap = mm1_max_rate(
            self._share * cap[None, :] * mu, self._deadlines[:, None]
        )  # (K, L)

    def plan_slot(
        self,
        arrivals: np.ndarray,
        prices: np.ndarray,
        slot_duration: float = 1.0,
    ) -> DispatchPlan:
        """Build the even-split plan (prices are ignored by design)."""
        topo = self.topology
        arrivals = check_nonnegative(arrivals, "arrivals")
        K, S = topo.num_classes, topo.num_frontends
        if arrivals.shape != (K, S):
            raise ValueError(f"arrivals must have shape {(K, S)}")
        N = topo.num_servers
        dc_of = topo._dc_of_server

        rates = np.zeros((K, S, N))
        shares = np.full((K, N), self._share)
        per_server_cap = self._per_server_cap[:, dc_of]  # (K, N)
        for k in range(K):
            total = float(arrivals[k].sum())
            if total <= 0:
                continue
            even = total / N
            server_loads = np.minimum(even, per_server_cap[k])  # (N,)
            admitted = float(server_loads.sum())
            if admitted <= 0:
                continue
            # Attribute admitted load back to front-ends proportionally.
            weights = arrivals[k] / total  # (S,)
            rates[k] = weights[:, None] * server_loads[None, :]
        return DispatchPlan(topology=topo, rates=rates, shares=shares)
