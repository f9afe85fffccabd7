"""Data centers and servers.

Per the paper (§III-A): data centers are heterogeneous while the servers
inside one data center are homogeneous; a powered-on server always runs
at its maximum speed; virtualization lets multiple request-type VMs share
one server's CPU.

Service rates (``mu_{k,l}``: type-``k`` requests per time unit at full
capacity) and per-request energy attributions (``P_{k,l}`` in kWh, the
"Google model" of Eq. 2) are location-dependent (Tables III, IV, VI),
so they live here rather than on :class:`repro.core.request.RequestClass`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Tuple

import numpy as np

from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["Server", "DataCenter"]


@dataclass(frozen=True)
class Server:
    """One physical server: index ``i`` within data center ``l``.

    ``capacity`` is the normalized processing capacity ``C_{i,l}``
    (the paper normalizes to 1); the effective service rate of the
    type-``k`` VM holding CPU share ``phi`` is ``phi * capacity * mu_k``.
    """

    datacenter: str
    index: int
    capacity: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("server index must be non-negative")
        check_positive(self.capacity, "capacity")


@dataclass(frozen=True)
class DataCenter:
    """A data center (index ``l``) of ``num_servers`` homogeneous servers.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"datacenter1"``.
    num_servers:
        ``M_l``, the number of (homogeneous) servers.  Zero is allowed
        (a fully failed data center, cf. :mod:`repro.sim.failures`):
        the formulations then force its load to zero.
    service_rates:
        Shape ``(K,)``; ``service_rates[k]`` is ``mu_{k,l}``, the rate at
        which one full server processes type-``k`` requests (requests per
        time unit at capacity 1).  Stored as a read-only copy.
    energy_per_request:
        Shape ``(K,)``; ``energy_per_request[k]`` is ``P_{k,l}`` in kWh
        per request (paper Eq. 2, calibrated from Google's ~0.0003 kWh
        per web search).  Stored as a read-only copy.
    server_capacity:
        ``C_l``, normalized capacity of each server (default 1.0).
    pue:
        Power-usage-effectiveness multiplier; the paper proposes PUE as
        the extension hook for cooling/peripheral energy (§II-A).  1.0
        reproduces the paper's experiments.
    idle_power_kw:
        Idle draw of one powered-on server in kW.  The paper's Google
        model charges energy per *request* only (idle servers are free,
        which is why it can treat right-sizing as profit-neutral); a
        non-zero idle power makes powering servers off save real money.
        0.0 reproduces the paper.  Idle energy per slot is
        ``idle_power_kw * slot_duration`` kWh — i.e. the slot duration
        is read in *hours* for idle accounting, matching the §VI/§VII
        configurations (hourly slots, ``slot_duration=1``); convert when
        using second-based rates.
    """

    name: str
    num_servers: int
    service_rates: np.ndarray = field(repr=False)
    energy_per_request: np.ndarray = field(repr=False)
    server_capacity: float = 1.0
    pue: float = 1.0
    idle_power_kw: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.num_servers < 0:
            raise ValueError("num_servers must be >= 0")
        rates = check_positive(self.service_rates, "service_rates")
        energy = check_nonnegative(self.energy_per_request, "energy_per_request")
        if rates.ndim != 1 or energy.ndim != 1:
            raise ValueError("service_rates and energy_per_request must be 1-D")
        if rates.size != energy.size:
            raise ValueError(
                "service_rates and energy_per_request must agree on the "
                f"number of request classes ({rates.size} != {energy.size})"
            )
        check_positive(self.server_capacity, "server_capacity")
        if self.pue < 1.0:
            raise ValueError(f"pue must be >= 1.0, got {self.pue}")
        check_nonnegative(self.idle_power_kw, "idle_power_kw")
        # Own read-only copies: a topology derives cached fleet constants
        # from these, so the caller's arrays must not alias them.
        for name, values in (("service_rates", rates),
                             ("energy_per_request", energy)):
            values = values.copy(order="K")
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuild through the constructor so an unpickled copy keeps the
        # read-only arrays.
        return (DataCenter, (
            self.name, self.num_servers, self.service_rates,
            self.energy_per_request, self.server_capacity, self.pue,
            self.idle_power_kw,
        ))

    @property
    def num_request_classes(self) -> int:
        """Number of request classes ``K`` this data center serves."""
        return int(self.service_rates.size)

    def servers(self) -> Iterator[Server]:
        """Iterate over the homogeneous :class:`Server` objects."""
        for i in range(self.num_servers):
            yield Server(self.name, i, self.server_capacity)

    def max_rate(self, k: int) -> float:
        """Peak type-``k`` throughput of one fully dedicated server."""
        return float(self.server_capacity * self.service_rates[k])

    def total_max_rate(self, k: int) -> float:
        """Peak type-``k`` throughput of the whole data center."""
        return self.num_servers * self.max_rate(k)

    def with_servers(self, num_servers: int) -> "DataCenter":
        """Copy with a different server count (used in capacity sweeps)."""
        return DataCenter(
            name=self.name,
            num_servers=num_servers,
            service_rates=self.service_rates,
            energy_per_request=self.energy_per_request,
            server_capacity=self.server_capacity,
            pue=self.pue,
            idle_power_kw=self.idle_power_kw,
        )

    def scaled_rates(self, factor: float) -> "DataCenter":
        """Copy with all service rates multiplied by ``factor``.

        Used for the paper's §VII "workload effect" study, which rescales
        data-center capacity to create relatively low / relatively high
        workload regimes (Fig. 10).
        """
        check_positive(factor, "factor")
        return DataCenter(
            name=self.name,
            num_servers=self.num_servers,
            service_rates=self.service_rates * float(factor),
            energy_per_request=self.energy_per_request,
            server_capacity=self.server_capacity,
            pue=self.pue,
            idle_power_kw=self.idle_power_kw,
        )
