"""Request transfer (network) cost model.

Paper Eq. 3: the dollar cost of moving type-``k`` requests from
front-end ``s`` to data center ``l`` during a slot is

    TCost_k = TranCost_k * d_{s,l} * lambda_{k,s,l} * T

where ``TranCost_k`` ($/(mile·request)) captures per-type request size
differences and ``d_{s,l}`` is the source-destination distance in miles.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.utils.validation import check_nonnegative

__all__ = ["TransferModel"]

#: Anything :func:`check_nonnegative` coerces to a float ndarray.
ArrayLike = Union[np.ndarray, Sequence[float], Sequence[Sequence[float]]]


class TransferModel:
    """Distance-proportional per-request transfer costs.

    Parameters
    ----------
    unit_costs:
        Shape ``(K,)``; ``unit_costs[k]`` is ``TranCost_k`` in
        $/(mile·request).
    distances:
        Shape ``(S, L)``; ``distances[s, l]`` is ``d_{s,l}`` in miles.
    """

    def __init__(self, unit_costs: ArrayLike, distances: ArrayLike) -> None:
        # Copies: the per-request cost below is derived once from them.
        unit_costs = check_nonnegative(unit_costs, "unit_costs")
        distances = check_nonnegative(distances, "distances")
        self._unit_costs = unit_costs.copy(order="K")
        self._distances = distances.copy(order="K")
        if self._unit_costs.ndim != 1:
            raise ValueError("unit_costs must be 1-D of shape (K,)")
        if self._distances.ndim != 2:
            raise ValueError("distances must be 2-D of shape (S, L)")
        self._per_request = (
            self._unit_costs[:, None, None] * self._distances[None, :, :]
        )

    @property
    def num_classes(self) -> int:
        """Number of request classes ``K``."""
        return int(self._unit_costs.size)

    @property
    def num_frontends(self) -> int:
        """Number of front-end servers ``S``."""
        return int(self._distances.shape[0])

    @property
    def num_datacenters(self) -> int:
        """Number of data centers ``L``."""
        return int(self._distances.shape[1])

    @property
    def unit_costs(self) -> np.ndarray:
        """Copy of the per-class unit costs."""
        return self._unit_costs.copy()

    @property
    def distances(self) -> np.ndarray:
        """Copy of the ``(S, L)`` distance matrix."""
        return self._distances.copy()

    def per_request_cost(self) -> np.ndarray:
        """``(K, S, L)`` matrix: $ to transfer one type-``k`` request s→l."""
        return self._per_request.copy(order="K")

    def slot_cost(self, rates: np.ndarray, slot_duration: float) -> float:
        """Total transfer dollars for one slot.

        Parameters
        ----------
        rates:
            Shape ``(K, S, L)`` dispatched rates ``lambda_{k,s,l}``
            (requests per time unit, servers within a data center summed).
        slot_duration:
            Slot length ``T`` in the same time unit as the rates.
        """
        rates = np.asarray(rates, dtype=float)
        expected = (self.num_classes, self.num_frontends, self.num_datacenters)
        if rates.shape != expected:
            raise ValueError(f"rates must have shape {expected}, got {rates.shape}")
        return float(np.sum(self._per_request * rates) * slot_duration)
