"""Time utility functions (TUFs).

The paper models per-request SLA profit as a *non-increasing* time
utility function of the expected delay (paper §III-B1, Fig. 3):

* a **constant** TUF pays ``U_1`` for any delay up to the deadline
  (Eq. 9) — "one-level step-downward";
* a **multi-level step-downward** TUF pays ``U_q`` when the delay lands
  in ``(D_{q-1}, D_q]`` and zero past the final deadline (Eqs. 10, 16);
* any **monotonic non-increasing** TUF can be approximated by a
  step-downward TUF with many levels (the paper notes it is the limit of
  infinitely many steps).

All utilities here are *per request* in dollars; the optimizer multiplies
by the dispatched rate and the slot length.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import (
    check_nonnegative,
    check_positive,
    check_strictly_increasing,
)

__all__ = [
    "UtilityLevel",
    "TimeUtilityFunction",
    "StepDownwardTUF",
    "ConstantTUF",
    "MonotonicTUF",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class UtilityLevel:
    """One step of a step-downward TUF.

    ``value`` is earned per request whose expected delay does not exceed
    ``deadline`` (but exceeds the previous level's deadline).
    """

    value: float
    deadline: float

    def __post_init__(self) -> None:
        check_nonnegative(self.value, "value")
        check_positive(self.deadline, "deadline")


class TimeUtilityFunction(ABC):
    """Abstract non-increasing map from expected delay to $ per request."""

    @abstractmethod
    def utility(self, delay: ArrayLike) -> ArrayLike:
        """Per-request utility earned at expected delay ``delay``."""

    @property
    @abstractmethod
    def deadline(self) -> float:
        """Final deadline ``D_k``; utility is zero for delays beyond it."""

    @property
    @abstractmethod
    def max_value(self) -> float:
        """The largest attainable per-request utility."""

    def __call__(self, delay: ArrayLike) -> ArrayLike:
        return self.utility(delay)


class StepDownwardTUF(TimeUtilityFunction):
    """Multi-level step-downward TUF (paper Eqs. 9, 10, 16).

    Parameters
    ----------
    values:
        Per-level utilities ``U_{k,1} > U_{k,2} > ... > U_{k,n} >= 0``.
    deadlines:
        Strictly increasing sub-deadlines ``D_{k,1} < ... < D_{k,n}``;
        the last entry is the final deadline ``D_k``.

    Examples
    --------
    >>> tuf = StepDownwardTUF(values=[10.0, 4.0], deadlines=[0.5, 1.0])
    >>> tuf.utility(0.3), tuf.utility(0.7), tuf.utility(1.5)
    (10.0, 4.0, 0.0)
    """

    def __init__(self, values: Sequence[float], deadlines: Sequence[float]) -> None:
        values_arr = check_nonnegative(list(values), "values")
        deadlines_arr = check_strictly_increasing(deadlines, "deadlines")
        if values_arr.ndim != 1 or values_arr.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if values_arr.size != deadlines_arr.size:
            raise ValueError(
                f"values ({values_arr.size}) and deadlines "
                f"({deadlines_arr.size}) must have the same length"
            )
        if values_arr.size >= 2 and np.any(np.diff(values_arr) >= 0):
            raise ValueError(
                "values must be strictly decreasing (U_1 > U_2 > ...), "
                f"got {values_arr!r}"
            )
        self._values = values_arr
        self._deadlines = deadlines_arr
        # Level utilities indexed by searchsorted, with 0 past the last.
        self._padded = np.concatenate([values_arr, [0.0]])

    @property
    def values(self) -> np.ndarray:
        """Per-level utilities, float64 copy."""
        return self._values.copy()

    @property
    def deadlines(self) -> np.ndarray:
        """Per-level sub-deadlines, float64 copy."""
        return self._deadlines.copy()

    @property
    def num_levels(self) -> int:
        """Number of steps ``n``."""
        return int(self._values.size)

    @property
    def deadline(self) -> float:
        return float(self._deadlines[-1])

    @property
    def max_value(self) -> float:
        return float(self._values[0])

    @property
    def levels(self) -> Tuple[UtilityLevel, ...]:
        """The steps as :class:`UtilityLevel` tuples."""
        return tuple(
            UtilityLevel(float(v), float(d))
            for v, d in zip(self._values, self._deadlines)
        )

    def utility(self, delay: ArrayLike) -> ArrayLike:
        delay_arr = np.asarray(delay, dtype=float)
        # level index q such that D_{q-1} < delay <= D_q; past the final
        # deadline the request earns nothing.
        idx = np.searchsorted(self._deadlines, delay_arr, side="left")
        out = np.where(delay_arr <= 0.0, self._values[0], self._padded[idx])
        out = np.where(delay_arr > self._deadlines[-1], 0.0, out)
        if delay_arr.ndim == 0:
            return float(out)
        return out

    def level_for_delay(self, delay: float) -> int:
        """0-based level index achieved at ``delay``; -1 past the deadline."""
        if delay > self.deadline:
            return -1
        if delay <= 0.0:
            return 0
        return int(np.searchsorted(self._deadlines, delay, side="left"))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({v:g}$, <= {d:g})" for v, d in zip(self._values, self._deadlines)
        )
        return f"StepDownwardTUF[{pairs}]"


class ConstantTUF(StepDownwardTUF):
    """One-level step-downward TUF (paper Eq. 9): ``U_1`` until ``D``.

    Examples
    --------
    >>> tuf = ConstantTUF(value=10.0, deadline=0.02)
    >>> tuf.utility(0.01), tuf.utility(0.05)
    (10.0, 0.0)
    """

    def __init__(self, value: float, deadline: float) -> None:
        super().__init__(values=[value], deadlines=[deadline])

    def __repr__(self) -> str:
        return f"ConstantTUF(value={self.max_value:g}, deadline={self.deadline:g})"


class MonotonicTUF(TimeUtilityFunction):
    """Arbitrary monotonic non-increasing TUF given as a callable.

    The paper notes that a monotonic TUF is the infinite-step limit of a
    step-downward TUF; :meth:`discretize` produces that approximation so
    the same solvers apply.
    """

    def __init__(self, fn: Callable[[float], float], deadline: float) -> None:
        check_positive(deadline, "deadline")
        self._fn = fn
        self._deadline = float(deadline)
        value_at_zero = float(fn(0.0))
        check_nonnegative(value_at_zero, "fn(0)")
        self._max_value = value_at_zero

    @property
    def deadline(self) -> float:
        return self._deadline

    @property
    def max_value(self) -> float:
        return self._max_value

    def utility(self, delay: ArrayLike) -> ArrayLike:
        delay_arr = np.asarray(delay, dtype=float)
        vec = np.vectorize(self._fn, otypes=[float])
        out = np.where(delay_arr > self._deadline, 0.0, vec(np.clip(delay_arr, 0.0, None)))
        if np.isscalar(delay) or np.ndim(delay) == 0:
            return float(out)
        return out

    def discretize(self, num_levels: int) -> StepDownwardTUF:
        """Approximate by an ``num_levels``-step step-downward TUF.

        Level ``q`` covers delays in ``((q-1)*D/n, q*D/n]`` and pays the
        utility at the *left* edge of the interval (an upper bound that
        converges to the original function as ``num_levels`` grows).
        Consecutive equal values are perturbed to keep strict decrease.
        """
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        edges = np.linspace(0.0, self._deadline, num_levels + 1)
        values = np.array([float(self._fn(edge)) for edge in edges[:-1]])
        # Enforce monotonicity requirements of StepDownwardTUF.
        values = np.minimum.accumulate(values)
        eps = max(self._max_value, 1.0) * 1e-9
        for q in range(1, values.size):
            if values[q] >= values[q - 1]:
                values[q] = values[q - 1] - eps * (q + 1)
        values = np.clip(values, 0.0, None)
        # Strictness may still fail at the zero floor; nudge upward.
        for q in range(values.size - 2, -1, -1):
            if values[q] <= values[q + 1]:
                values[q] = values[q + 1] + eps
        return StepDownwardTUF(values=values, deadlines=edges[1:])
