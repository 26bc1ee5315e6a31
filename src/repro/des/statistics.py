"""Output-analysis statistics for terminating and steady-state simulation.

Three collector types cover everything the library measures:

- :class:`TimeWeightedStatistic` — integrals of piecewise-constant signals
  over time (queue length, tokens in a Petri net place, power-state
  indicator).  The steady-state *percentages* the paper reports in Figure 4
  are exactly time-weighted means of indicator signals.
- :class:`TallyStatistic` — classic observation tallies (job latency) using
  Welford's numerically stable online algorithm.
- :class:`BatchMeans` — nonoverlapping batch means over a single long run,
  the standard steady-state confidence-interval method when replications are
  expensive.

Plus two free functions: :func:`confidence_interval` (Student-t) and
:func:`mser_truncation_point` (MSER-5 warm-up detection).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TimeWeightedStatistic",
    "TallyStatistic",
    "BatchMeans",
    "confidence_interval",
    "mser_truncation_point",
]


class TimeWeightedStatistic:
    """Time integral of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes value; the collector
    accumulates ``value * dt`` between updates.  :meth:`finalize` (or passing
    ``until`` to the accessor methods) closes the last segment at the stated
    horizon.

    Parameters
    ----------
    initial_value:
        Signal value at ``start_time``.
    start_time:
        Clock value at which observation begins (useful after warm-up
        truncation).
    """

    __slots__ = ("_area", "_area2", "_last_time", "_value", "_start", "_min", "_max")

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0) -> None:
        self._area = 0.0
        self._area2 = 0.0
        self._last_time = float(start_time)
        self._value = float(initial_value)
        self._start = float(start_time)
        self._min = float(initial_value)
        self._max = float(initial_value)

    @property
    def current_value(self) -> float:
        """The signal value as of the last update."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to *value* at *time*."""
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time} < {self._last_time}"
            )
        dt = time - self._last_time
        if dt > 0.0:
            self._area += self._value * dt
            self._area2 += self._value * self._value * dt
        self._last_time = time
        self._value = float(value)
        if value < self._min:
            self._min = float(value)
        if value > self._max:
            self._max = float(value)

    def advance(self, time: float) -> None:
        """Advance the clock without changing the value."""
        self.update(time, self._value)

    def elapsed(self, until: Optional[float] = None) -> float:
        """Observed horizon length."""
        end = self._last_time if until is None else float(until)
        return max(end - self._start, 0.0)

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean of the signal over the observed horizon."""
        end = self._last_time if until is None else float(until)
        if end < self._last_time:
            raise ValueError("cannot finalise before the last recorded update")
        total = end - self._start
        if total <= 0.0:
            return self._value
        area = self._area + self._value * (end - self._last_time)
        return area / total

    def time_variance(self, until: Optional[float] = None) -> float:
        """Time-weighted variance of the signal."""
        end = self._last_time if until is None else float(until)
        total = end - self._start
        if total <= 0.0:
            return 0.0
        tail = end - self._last_time
        area = self._area + self._value * tail
        area2 = self._area2 + self._value * self._value * tail
        mean = area / total
        return max(area2 / total - mean * mean, 0.0)

    def minimum(self) -> float:
        return self._min

    def maximum(self) -> float:
        return self._max

    def finalize(self, time: float) -> float:
        """Close the last segment at *time* and return the time average."""
        self.advance(time)
        return self.time_average()


class TallyStatistic:
    """Welford online mean/variance over discrete observations."""

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, x: float) -> None:
        """Add one observation."""
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def record_many(self, xs: Sequence[float]) -> None:
        """Add a batch of observations."""
        for x in xs:
            self.record(float(x))

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else float("nan")

    @property
    def variance(self) -> float:
        """Sample (n-1) variance."""
        if self._n < 2:
            return float("nan")
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    @property
    def minimum(self) -> float:
        return self._min if self._n else float("nan")

    @property
    def maximum(self) -> float:
        return self._max if self._n else float("nan")

    def standard_error(self) -> float:
        if self._n < 2:
            return float("nan")
        return self.std / math.sqrt(self._n)

    def merge(self, other: "TallyStatistic") -> "TallyStatistic":
        """Parallel-merge two tallies (Chan et al. pairwise update)."""
        merged = TallyStatistic()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._n * other._n / n
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged


class BatchMeans:
    """Nonoverlapping batch-means estimator over a single long run.

    Observations stream in via :meth:`record`; they are grouped into batches
    of ``batch_size`` and the batch averages form the (approximately
    independent) sample used for the confidence interval.
    """

    __slots__ = ("batch_size", "_acc", "_in_batch", "_batches")

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self._acc = 0.0
        self._in_batch = 0
        self._batches: List[float] = []

    def record(self, x: float) -> None:
        self._acc += x
        self._in_batch += 1
        if self._in_batch == self.batch_size:
            self._batches.append(self._acc / self.batch_size)
            self._acc = 0.0
            self._in_batch = 0

    @property
    def batch_count(self) -> int:
        return len(self._batches)

    @property
    def batch_means(self) -> np.ndarray:
        return np.asarray(self._batches)

    def mean(self) -> float:
        if not self._batches:
            return float("nan")
        return float(np.mean(self._batches))

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Student-t interval over the batch means."""
        return confidence_interval(self._batches, level)


def confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> Tuple[float, float]:
    """Two-sided Student-t confidence interval ``(lo, hi)`` for the mean.

    With fewer than two samples the interval is degenerate (``(x, x)`` or
    NaNs) rather than an exception, so callers can report partial runs.
    """
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    if n == 0:
        return (float("nan"), float("nan"))
    mean = float(arr.mean())
    if n == 1:
        return (mean, mean)
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must be in (0, 1)")
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    if sem == 0.0:
        return (mean, mean)
    # imported here, its only use: scipy.stats alone costs most of the
    # package's import time
    from scipy import stats

    t = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return (mean - t * sem, mean + t * sem)


def mser_truncation_point(samples: Sequence[float], batch: int = 5) -> int:
    """MSER-k warm-up truncation point (default MSER-5).

    Returns the index into *samples* at which observation should start so the
    marginal standard error of the remaining mean is minimised.  Following
    standard practice, candidate truncation points are limited to the first
    half of the series; if the minimiser lands in the second half the data is
    deemed too short and ``0`` is returned.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2 * batch:
        return 0
    # collapse to batch means to smooth out noise
    m = arr.size // batch
    batched = arr[: m * batch].reshape(m, batch).mean(axis=1)
    # suffix sums via reversed cumulative sums (vectorised MSER statistic)
    rev = batched[::-1]
    csum = np.cumsum(rev)
    csum2 = np.cumsum(rev * rev)
    n_keep = np.arange(1, m + 1, dtype=np.float64)
    suffix_mean = csum / n_keep
    suffix_var = np.maximum(csum2 / n_keep - suffix_mean**2, 0.0)
    mser = (suffix_var / n_keep)[::-1]  # mser[d] = stat when dropping d batches
    half = max(m // 2, 1)
    d_star = int(np.argmin(mser[:half]))
    if mser[d_star] == 0.0 and d_star == 0:
        return 0
    return d_star * batch
