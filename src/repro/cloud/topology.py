"""Cloud topology: front-ends, data centers, request classes, distances.

:class:`CloudTopology` is the static system description consumed by the
optimizer, the baselines, and the slotted simulator.  It validates that
all components agree on the number of request classes and provides the
index bookkeeping (``k``, ``s``, ``i``, ``l`` in the paper's notation).

A topology is immutable: it keeps read-only copies of its arrays, and
derives each fleet constant the per-slot and per-tick paths need (server
offsets, the server-to-data-center map, per-server service rates, the
transfer and energy models) once per instance, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Sequence, Tuple

import numpy as np

from repro.cloud.datacenter import DataCenter
from repro.cloud.energy import EnergyModel
from repro.cloud.frontend import FrontEnd
from repro.cloud.transfer import TransferModel
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF
from repro.utils.rng import as_generator
from repro.utils.validation import check_nonnegative

__all__ = ["CloudTopology", "random_topology"]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class CloudTopology:
    """The full static system: ``K`` classes, ``S`` front-ends, ``L`` DCs.

    Attributes
    ----------
    request_classes:
        The ``K`` request classes, in index order.
    frontends:
        The ``S`` front-end servers, in index order.
    datacenters:
        The ``L`` data centers, in index order.
    distances:
        ``(S, L)`` matrix of front-end-to-data-center distances in miles,
        stored as a read-only copy of the caller's array.
    """

    request_classes: Tuple[RequestClass, ...]
    frontends: Tuple[FrontEnd, ...]
    datacenters: Tuple[DataCenter, ...]
    distances: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "request_classes", tuple(self.request_classes))
        object.__setattr__(self, "frontends", tuple(self.frontends))
        object.__setattr__(self, "datacenters", tuple(self.datacenters))
        if not self.request_classes:
            raise ValueError("need at least one request class")
        if not self.frontends:
            raise ValueError("need at least one front-end")
        if not self.datacenters:
            raise ValueError("need at least one data center")
        dist = check_nonnegative(self.distances, "distances")
        expected = (len(self.frontends), len(self.datacenters))
        if dist.shape != expected:
            raise ValueError(f"distances must have shape {expected}, got {dist.shape}")
        object.__setattr__(self, "distances", _read_only(dist.copy(order="K")))
        k = len(self.request_classes)
        for dc in self.datacenters:
            if dc.num_request_classes != k:
                raise ValueError(
                    f"data center {dc.name!r} is configured for "
                    f"{dc.num_request_classes} request classes, expected {k}"
                )

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle the fields only: the copy re-validates and derives its
        # own read-only caches (a sim.parallel worker gets a topology
        # indistinguishable from the parent's).
        return (CloudTopology, (self.request_classes, self.frontends,
                                self.datacenters, self.distances))

    # --------------------------------------------------- per-topology cache

    @cached_property
    def _server_offsets(self) -> np.ndarray:
        return _read_only(
            np.concatenate([[0], np.cumsum(self.servers_per_datacenter)])
        )

    @cached_property
    def _dc_of_server(self) -> np.ndarray:
        """``(N,)`` data-center index of each flat server."""
        return _read_only(np.repeat(
            np.arange(self.num_datacenters), self.servers_per_datacenter
        ))

    @cached_property
    def _server_service_rates(self) -> np.ndarray:
        """``(K, N)`` full-capacity service rates ``C_l * mu_{k,l}``."""
        dc_idx = self._dc_of_server
        return _read_only(
            self.service_rates[:, dc_idx]
            * self.server_capacities[dc_idx][None, :]
        )

    @cached_property
    def _transfer_model(self) -> TransferModel:
        return TransferModel(self.transfer_unit_costs, self.distances)

    @cached_property
    def _transfer_cost(self) -> np.ndarray:
        """``(K, S, L)`` dollars to move one type-``k`` request s -> l."""
        return _read_only(self._transfer_model.per_request_cost())

    @cached_property
    def _energy_model(self) -> EnergyModel:
        return EnergyModel(self.datacenters)

    @cached_property
    def _pue_energy_model(self) -> EnergyModel:
        return EnergyModel(self.datacenters, apply_pue=True)

    # ---------------------------------------------------------------- sizes

    @property
    def num_classes(self) -> int:
        """``K``: number of request classes."""
        return len(self.request_classes)

    @property
    def num_frontends(self) -> int:
        """``S``: number of front-end servers."""
        return len(self.frontends)

    @property
    def num_datacenters(self) -> int:
        """``L``: number of data centers."""
        return len(self.datacenters)

    @property
    def servers_per_datacenter(self) -> np.ndarray:
        """``(L,)`` array of ``M_l`` values."""
        return np.array([dc.num_servers for dc in self.datacenters], dtype=int)

    @property
    def num_servers(self) -> int:
        """Total server count across data centers."""
        return int(self._server_offsets[-1])

    # ------------------------------------------------------------- matrices

    @property
    def service_rates(self) -> np.ndarray:
        """``(K, L)`` matrix of ``mu_{k,l}`` service rates."""
        return np.stack([dc.service_rates for dc in self.datacenters], axis=1)

    @property
    def energy_per_request(self) -> np.ndarray:
        """``(K, L)`` matrix of ``P_{k,l}`` per-request energies (kWh)."""
        return np.stack([dc.energy_per_request for dc in self.datacenters], axis=1)

    @property
    def server_capacities(self) -> np.ndarray:
        """``(L,)`` array of normalized per-server capacities ``C_l``."""
        return np.array([dc.server_capacity for dc in self.datacenters])

    @property
    def transfer_unit_costs(self) -> np.ndarray:
        """``(K,)`` array of ``TranCost_k`` values."""
        return np.array([rc.transfer_unit_cost for rc in self.request_classes])

    def transfer_model(self) -> TransferModel:
        """The :class:`TransferModel` for this topology (built once)."""
        return self._transfer_model

    # ----------------------------------------------------------- iteration

    def iter_servers(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(l, i)`` pairs over every server."""
        for l, dc in enumerate(self.datacenters):
            for i in range(dc.num_servers):
                yield l, i

    def server_offsets(self) -> np.ndarray:
        """``(L+1,)`` prefix offsets for flattening (l, i) → flat index.

        Cached per topology and read-only; copy before mutating.
        """
        return self._server_offsets

    def flat_server_index(self, l: int, i: int) -> int:
        """Flatten data-center-local server index to a global index."""
        offsets = self.server_offsets()
        if not (0 <= l < self.num_datacenters):
            raise IndexError(f"data center index {l} out of range")
        if not (0 <= i < self.datacenters[l].num_servers):
            raise IndexError(f"server index {i} out of range for DC {l}")
        return int(offsets[l] + i)

    # ----------------------------------------------------------- transforms

    def with_datacenters(self, datacenters: Sequence[DataCenter]) -> "CloudTopology":
        """Copy with replaced data centers (used in capacity sweeps)."""
        return CloudTopology(
            request_classes=self.request_classes,
            frontends=self.frontends,
            datacenters=tuple(datacenters),
            distances=self.distances,
        )

    def scaled_capacity(self, factor: float) -> "CloudTopology":
        """Copy with every data center's service rates scaled by ``factor``."""
        return self.with_datacenters([dc.scaled_rates(factor) for dc in self.datacenters])

    def with_servers_per_datacenter(self, num_servers: int) -> "CloudTopology":
        """Copy with every data center resized to ``num_servers`` servers."""
        return self.with_datacenters(
            [dc.with_servers(num_servers) for dc in self.datacenters]
        )


def random_topology(
    num_classes: int = 3,
    num_frontends: int = 4,
    num_datacenters: int = 3,
    servers_per_datacenter: int = 6,
    seed: int = 0,
) -> CloudTopology:
    """Generate a random but well-formed topology (testing/examples).

    Service rates, energies, utilities, deadlines, and distances are
    drawn from ranges matching the magnitudes of the paper's Tables
    III-VII.
    """
    rng = as_generator(seed)
    classes = []
    for k in range(num_classes):
        value = float(rng.uniform(5.0, 40.0))
        deadline = float(rng.uniform(0.005, 0.05))
        classes.append(
            RequestClass(
                name=f"request{k + 1}",
                tuf=ConstantTUF(value=value, deadline=deadline),
                transfer_unit_cost=float(rng.uniform(0.001, 0.01)),
            )
        )
    datacenters = []
    for l in range(num_datacenters):
        datacenters.append(
            DataCenter(
                name=f"datacenter{l + 1}",
                num_servers=servers_per_datacenter,
                service_rates=rng.uniform(100.0, 200.0, size=num_classes),
                energy_per_request=rng.uniform(1e-4, 1e-3, size=num_classes),
            )
        )
    frontends = [FrontEnd(f"frontend{s + 1}") for s in range(num_frontends)]
    distances = rng.uniform(100.0, 2500.0, size=(num_frontends, num_datacenters))
    return CloudTopology(
        request_classes=tuple(classes),
        frontends=tuple(frontends),
        datacenters=tuple(datacenters),
        distances=distances,
    )
