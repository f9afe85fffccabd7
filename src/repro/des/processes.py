"""Stochastic arrival/service processes for the DES.

:class:`PoissonArrivals` is the engine's main event source, so its
sampling is batched: instead of two ``Generator.exponential`` calls per
arrival (each paying numpy's per-call scalar dispatch), it draws blocks
of standard exponentials and consumes them sequentially, scaling gaps
by ``1/rate`` and work requirements by their unit mean.  Because
``Generator.exponential(scale)`` consumes exactly one value of the same
underlying ``standard_exponential`` stream, the batched process
produces *bit-identical* realizations to the per-call implementation
for any given seed — simulations stay reproducible across the
refactor (pinned by ``tests/test_property_des.py``).

:func:`draw_poisson_arrivals` is the same realization drawn up front,
for callers that own a whole queue and need no engine: arrival times
are one ``np.cumsum`` over the scaled gaps.  ``np.add.accumulate`` adds
strictly left to right, so each time is the engine's ``now + gap`` bit
for bit, and the RNG is refilled in the same ``SAMPLE_BATCH`` blocks,
so the generator is left exactly where :class:`PoissonArrivals` leaves
it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.des.engine import Engine
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["PoissonArrivals", "draw_poisson_arrivals", "exponential_sampler"]

#: Standard exponential variates drawn per RNG refill.  One arrival
#: consumes two (interarrival gap + work requirement), so a block
#: covers 512 arrivals.
SAMPLE_BATCH = 1024


def exponential_sampler(
    rng: np.random.Generator, mean: float = 1.0
) -> Callable[[], float]:
    """Return a thunk sampling Exp(mean) work requirements."""
    check_positive(mean, "mean")

    def sample() -> float:
        return float(rng.exponential(mean))

    return sample


def draw_poisson_arrivals(
    rate: float, stop_time: float, seed: SeedLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Every arrival :class:`PoissonArrivals` would generate, at once.

    Returns ``(times, works)``: the arrival times before ``stop_time``
    and each arrival's work requirement (mean 1), both bit-identical to
    what an engine-driven :class:`PoissonArrivals` with the same
    ``rate``, ``seed`` and ``stop_time`` (started at time 0) hands its
    sink.  The stream interleaves one gap and one work variate per
    arrival, so blocks stay aligned because ``SAMPLE_BATCH`` is even.
    """
    check_positive(rate, "rate")
    rng = as_generator(seed)
    gap_scale = 1.0 / float(rate)
    stop = float(stop_time)
    blocks: List[np.ndarray] = []
    clocks: List[np.ndarray] = []
    now = 0.0
    while True:
        block = rng.standard_exponential(SAMPLE_BATCH)
        gaps = block[0::2] * gap_scale
        gaps[0] = now + gaps[0]
        clock = np.cumsum(gaps)
        blocks.append(block)
        clocks.append(clock)
        now = float(clock[-1])
        if now >= stop:
            break
    samples, times = np.concatenate(blocks), np.concatenate(clocks)
    count = int(np.searchsorted(times, stop, side="left"))
    return times[:count], samples[1:2 * count:2]


class PoissonArrivals:
    """Poisson arrival process feeding a sink callable.

    Each arrival invokes ``sink(work)`` where ``work`` is an exponential
    work requirement with mean 1 — the assumption behind the paper's
    M/M/1 delay model (Eq. 1).

    Parameters
    ----------
    engine:
        The event engine.
    rate:
        Arrival rate ``lambda`` (jobs per time unit).
    sink:
        Callable receiving each job's work requirement.
    seed:
        Seed or generator for interarrival and work sampling.
    stop_time:
        No arrivals are generated at or beyond this simulated time
        (None = run as long as the engine does).
    batch:
        Standard-exponential variates drawn per RNG refill (tuning
        knob; any positive value yields the same realization).
    """

    def __init__(
        self,
        engine: Engine,
        rate: float,
        sink: Callable[[float], object],
        seed: SeedLike = None,
        stop_time: Optional[float] = None,
        batch: int = SAMPLE_BATCH,
    ):
        check_positive(rate, "rate")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self._engine = engine
        self._rate = float(rate)
        self._gap_scale = 1.0 / float(rate)
        self._sink = sink
        self._rng = as_generator(seed)
        self._stop_time = stop_time
        self._generated = 0
        self._batch = int(batch)
        self._samples: np.ndarray = np.empty(0, dtype=np.float64)
        self._cursor = 0
        self._schedule_next()

    @property
    def generated(self) -> int:
        """Number of arrivals generated so far."""
        return self._generated

    def _draw(self) -> float:
        """Next standard-exponential variate from the batched stream."""
        cursor = self._cursor
        if cursor >= self._samples.shape[0]:
            self._samples = self._rng.standard_exponential(self._batch)
            cursor = 0
        self._cursor = cursor + 1
        return float(self._samples[cursor])

    def _schedule_next(self) -> None:
        gap = self._draw() * self._gap_scale
        if self._stop_time is not None and self._engine.now + gap >= self._stop_time:
            return
        self._engine.defer(gap, self._fire)

    def _fire(self) -> None:
        self._generated += 1
        self._sink(self._draw())
        self._schedule_next()
