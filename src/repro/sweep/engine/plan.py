"""Execution plans: a sweep as explicit point partitions plus budgets.

:func:`build_plan` turns "solve these grid points on this backend" into
an :class:`ExecutionPlan`: contiguous :class:`Partition`\\ s of the
remaining points (sized against the backend's preferred batch size when
it is batch-capable, so one partition is a whole number of stacked
solves), plus the retry/poison budget.  Every executor consumes the same
plan — the serial loop takes it as one partition, the pool and the
distributed coordinator pull partitions off a queue, and the service
builds one per request.

Partitioning preserves the grid's axis order: the pending points are
split into consecutive spans (:func:`contiguous_chunks`), and every row
carries its grid index, so merged tables are ordered exactly like the
serial runner's.  A point's solve depends on that point alone, so how
the grid is cut never shows in the rows; after a checkpoint resume a
partition may simply span indices that are already done.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sweep.backends.base import Metric, SweepBackend, metric_name

__all__ = [
    "ExecutionPlan",
    "Partition",
    "build_plan",
    "contiguous_chunks",
    "partition_indices",
]

#: Partitions handed out per worker: oversubscription for load balance
#: (shared by the process pool and the distributed coordinator).
PARTITIONS_PER_WORKER = 4

#: How often one point may be requeued after killing its worker before it
#: is poisoned (NaN row + error record) instead of retried.
DEFAULT_MAX_REQUEUES = 2


def contiguous_chunks(n: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most *n_chunks* contiguous spans.

    Returns ``(start, stop)`` pairs that cover ``range(n)`` in order,
    pairwise disjoint, with sizes differing by at most one.

    >>> contiguous_chunks(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> contiguous_chunks(2, 8)
    [(0, 1), (1, 2)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    n_chunks = max(1, min(n, n_chunks))
    base, extra = divmod(n, n_chunks)
    spans: List[Tuple[int, int]] = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def partition_indices(
    remaining: Sequence[int], n_partitions: int, *, align: int = 1
) -> List[List[int]]:
    """Split the remaining grid indices into consecutive partitions.

    With ``align > 1`` the internal boundaries are rounded to multiples
    of *align* — a batch-capable backend then solves whole stacked
    batches per partition instead of paying a ragged tail in every one.

    >>> partition_indices([0, 1, 2, 3, 4, 6, 7], 2)
    [[0, 1, 2, 3], [4, 6, 7]]
    >>> partition_indices(list(range(10)), 3, align=4)
    [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    """
    spans = contiguous_chunks(len(remaining), n_partitions)
    if align > 1 and len(spans) > 1:
        spans = _align_spans(spans, len(remaining), align)
    return [list(remaining[start:stop]) for start, stop in spans]


def _align_spans(
    spans: List[Tuple[int, int]], n: int, align: int
) -> List[Tuple[int, int]]:
    """Round internal span boundaries to the nearest multiple of *align*."""
    cuts = sorted({round(stop / align) * align for _, stop in spans[:-1]})
    bounds = [c for c in cuts if 0 < c < n] + [n]
    aligned: List[Tuple[int, int]] = []
    start = 0
    for stop in bounds:
        if stop > start:
            aligned.append((start, stop))
            start = stop
    return aligned


@dataclass
class Partition:
    """One axis-ordered group of pending grid points.

    A plan built without ``done`` indices partitions the whole grid into
    contiguous spans, which the process pool ships as ``(first index,
    points)``; after a checkpoint resume a partition may run across
    indices that are already done.

    ``pointwise`` marks a partition that must stream per point even on a
    batch-capable backend: the coordinator downgrades a batch-framed
    partition to pointwise when its worker dies, so the retry isolates
    the killer point instead of re-blaming the whole batch.
    """

    partition_id: int
    indices: List[int]
    points: List[Dict[str, float]]
    pointwise: bool = False


@dataclass
class ExecutionPlan:
    """A sweep made explicit: what to solve, in what groups, with what
    budgets.

    Built once by :func:`build_plan` and consumed by whichever executor
    runs the sweep; the plan itself never touches a solver.
    """

    fingerprint: str
    metric_names: List[str]
    n_points: int
    batch_size: int
    max_requeues: int
    partitions: List[Partition] = field(default_factory=list)

    @property
    def n_pending(self) -> int:
        return sum(len(p.indices) for p in self.partitions)


def plan_fingerprint(
    model: SweepBackend,
    metric_names: Sequence[str],
    points: Sequence[Mapping[str, float]],
) -> str:
    """A cheap, stable identity for "this template over this grid"."""
    h = hashlib.sha256()
    h.update(type(model).__name__.encode())
    h.update(getattr(model, "name", "").encode())
    h.update(repr(list(metric_names)).encode())
    h.update(str(len(points)).encode())
    if points:
        h.update(repr(sorted(points[0])).encode())
    return h.hexdigest()[:16]


def build_plan(
    model: SweepBackend,
    metrics: Sequence[Metric],
    points: Sequence[Mapping[str, float]],
    *,
    n_partitions: int = 1,
    done: Optional[Sequence[int]] = None,
    max_requeues: int = DEFAULT_MAX_REQUEUES,
) -> ExecutionPlan:
    """Plan a sweep: partition the pending points, record the budgets.

    ``n_partitions`` is a target, not a promise — batch alignment adjusts
    the actual count.  When the backend is
    batch-capable its ``resolve_batch_size`` sizes the alignment so each
    partition is a whole number of stacked solves (plus one tail).
    """
    done_set = set(done or ())
    remaining = [i for i in range(len(points)) if i not in done_set]
    batch_size = (
        max(1, model.resolve_batch_size(len(points)))
        if getattr(model, "batch_capable", False)
        else 1
    )
    metric_names = [metric_name(m, i) for i, m in enumerate(metrics)]
    partitions = [
        Partition(
            partition_id=pid,
            indices=indices,
            points=[dict(points[i]) for i in indices],
        )
        for pid, indices in enumerate(
            partition_indices(remaining, n_partitions, align=batch_size)
        )
    ]
    return ExecutionPlan(
        fingerprint=plan_fingerprint(model, metric_names, points),
        metric_names=metric_names,
        n_points=len(points),
        batch_size=batch_size,
        max_requeues=max_requeues,
        partitions=partitions,
    )
