"""Independent-replication experiment runner.

Steady-state estimates from a single stochastic run carry unknown bias and
variance; the classical remedy is R independent replications with distinct
random streams, reporting the across-replication mean and a Student-t
confidence interval per metric.

:func:`run_replications` does exactly that for any model function of the
signature ``fn(streams: StreamManager, **kwargs) -> dict[str, float]``.
Replications are embarrassingly parallel, so the runner can fan them out
over a ``multiprocessing`` pool (``n_jobs > 1``); results are identical to
the serial path because each replication's randomness depends only on
``(seed, replication_index)`` — see :class:`~repro.des.random_streams.StreamManager`.

The confidence intervals are computed when
:attr:`ReplicationSummary.intervals` is first read, not by
:func:`run_replications`: the Student-t quantile needs ``scipy.stats``,
and callers that use only the means (the paper's figures and tables) never
import it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.des.random_streams import StreamManager
from repro.des.statistics import confidence_interval

__all__ = ["ReplicationResult", "ReplicationSummary", "run_replications"]

ModelFn = Callable[..., Mapping[str, float]]


@dataclass(frozen=True)
class ReplicationResult:
    """One replication's metric dictionary plus its index."""

    index: int
    metrics: Dict[str, float]


@dataclass
class ReplicationSummary:
    """Across-replication aggregate for a set of scalar metrics.

    Attributes
    ----------
    replications:
        Per-replication raw results, in index order.
    means / stds:
        Across-replication mean and sample standard deviation per metric.
    level:
        Confidence level used for :attr:`intervals`.
    """

    replications: List[ReplicationResult]
    means: Dict[str, float] = field(default_factory=dict)
    stds: Dict[str, float] = field(default_factory=dict)
    level: float = 0.95

    @property
    def n(self) -> int:
        return len(self.replications)

    @cached_property
    def intervals(self) -> Dict[str, Tuple[float, float]]:
        """Student-t confidence interval per metric at ``level``.

        Computed on first read (it imports ``scipy.stats``) and cached.
        """
        return {
            name: confidence_interval(self.metric_samples(name), self.level)
            for name in self.means
        }

    def metric_samples(self, name: str) -> np.ndarray:
        """All replications' values for one metric."""
        return np.asarray([r.metrics[name] for r in self.replications])

    def half_width(self, name: str) -> float:
        """Half-width of the confidence interval for *name*."""
        lo, hi = self.intervals[name]
        return 0.5 * (hi - lo)

    def relative_half_width(self, name: str) -> float:
        """Half-width relative to the mean (precision diagnostic)."""
        mean = self.means[name]
        if mean == 0.0:
            return float("inf")
        return self.half_width(name) / abs(mean)


def _one_replication(
    args: Tuple[ModelFn, int, Optional[int], Dict[str, Any]],
) -> ReplicationResult:
    fn, index, seed, kwargs = args
    streams = StreamManager(seed).for_replication(index)
    metrics = dict(fn(streams, **kwargs))
    return ReplicationResult(index=index, metrics=metrics)


def run_replications(
    fn: ModelFn,
    n_replications: int,
    seed: Optional[int] = None,
    n_jobs: int = 1,
    level: float = 0.95,
    **kwargs: Any,
) -> ReplicationSummary:
    """Run *fn* across independent replications and summarise.

    Parameters
    ----------
    fn:
        Model function ``fn(streams, **kwargs) -> {metric: value}``.  Must be
        picklable when ``n_jobs > 1`` (i.e. a module-level function).
    n_replications:
        Number of independent replications (>= 1).
    seed:
        Master seed; replication *i* uses streams derived from
        ``(seed, i)``.
    n_jobs:
        ``1`` runs serially; ``> 1`` uses a process pool of that size;
        ``-1`` uses ``os.cpu_count()`` processes.
    level:
        Confidence level for the reported intervals.
    kwargs:
        Forwarded to every replication.

    Returns
    -------
    ReplicationSummary
        Identical regardless of ``n_jobs`` (replications are seeded by
        index, not by worker).
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    tasks = [(fn, i, seed, kwargs) for i in range(n_replications)]

    if n_jobs == 1 or n_replications == 1:
        results = [_one_replication(t) for t in tasks]
    else:
        if n_jobs == -1:
            n_jobs = multiprocessing.cpu_count()
        n_jobs = max(1, min(n_jobs, n_replications))
        with multiprocessing.get_context("spawn").Pool(n_jobs) as pool:
            results = pool.map(_one_replication, tasks)
        results.sort(key=lambda r: r.index)

    metric_names = sorted(results[0].metrics)
    for r in results:
        if sorted(r.metrics) != metric_names:
            raise ValueError(
                "replications returned inconsistent metric sets: "
                f"{sorted(r.metrics)} vs {metric_names}"
            )

    summary = ReplicationSummary(replications=results, level=level)
    for name in metric_names:
        samples = np.asarray([r.metrics[name] for r in results])
        summary.means[name] = float(samples.mean())
        summary.stds[name] = (
            float(samples.std(ddof=1)) if samples.size > 1 else 0.0
        )
    return summary
