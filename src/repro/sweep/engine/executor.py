"""In-process executors over an :class:`~repro.sweep.engine.plan.ExecutionPlan`.

The :class:`Executor` protocol is the engine's narrow waist: it takes a
plan plus the live template and returns the full ``(rows, errors)``
table.  Two adapters live here — :class:`SerialExecutor` (the plain
loop) and :class:`PoolExecutor` (contiguous partitions over a process
pool, with the broken-pool serial fallback).  The out-of-process
adapter — the distributed job queue, which also serves the service's
worker pool — is built from the same engine parts (:mod:`~repro.sweep.engine.points`,
:mod:`~repro.sweep.engine.collector`, :mod:`~repro.sweep.engine.wire`)
but owns its transport.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro import obs
from repro.sweep.backends.base import Metric, SweepBackend
from repro.sweep.engine.plan import ExecutionPlan
from repro.sweep.engine.points import iter_partition_rows, solve_missing_rows
from repro.sweep.results import PointFailure

__all__ = ["Executor", "PoolExecutor", "SerialExecutor"]

logger = logging.getLogger(__name__)


class Executor(Protocol):
    """Anything that can run an execution plan to a complete table."""

    def run(
        self,
        plan: ExecutionPlan,
        model: SweepBackend,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        """Solve every planned point; return rows in grid order."""
        ...


class SerialExecutor:
    """Run the plan in this process, one partition after another."""

    def run(
        self,
        plan: ExecutionPlan,
        model: SweepBackend,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        rows: Dict[int, List[float]] = {}
        errors: List[PointFailure] = []
        for partition in plan.partitions:
            for index, row, failure in iter_partition_rows(
                model,
                metrics,
                partition.points,
                indices=partition.indices,
                pointwise=partition.pointwise,
            ):
                rows[index] = row
                obs.incr("sweep.rows.completed")
                if failure is not None:
                    errors.append(failure)
                    obs.incr("sweep.rows.failed")
        return [rows[i] for i in sorted(rows)], errors


# -- process-pool plumbing: the template lands in each worker exactly once --
_WORKER_STATE: Optional[tuple] = None


def _init_worker(
    model: SweepBackend, metrics: Sequence[Metric], telemetry: bool = False
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (model, list(metrics))
    if telemetry:
        # the parent runs with tracing on: give this worker its own trace
        # so chunk results can ship span segments + counter deltas back
        obs.activate(obs.Trace("sweep-worker"))


def _solve_chunk(
    start: int, chunk_points: Sequence[Mapping[str, float]]
) -> Tuple[
    int, List[List[float]], List[PointFailure], Optional[Dict[str, object]]
]:
    """Solve one contiguous partition inside a pool worker.

    The fourth element is the partition's telemetry segment (spans
    recorded during it + counter deltas) when the worker traces, else
    ``None``; the parent merges it into the run-level trace.
    """
    assert _WORKER_STATE is not None, "worker used before initialisation"
    model, metrics = _WORKER_STATE
    trace = obs.current_trace()
    mark = trace.mark() if trace is not None else 0
    rows: List[List[float]] = []
    errors: List[PointFailure] = []
    for _, row, failure in iter_partition_rows(
        model, metrics, chunk_points, start
    ):
        rows.append(row)
        if failure is not None:
            errors.append(failure)
    segment: Optional[Dict[str, object]] = None
    if trace is not None:
        segment = {
            "spans": trace.slice_spans(mark),
            "counters": trace.drain_counters(),
        }
    return start, rows, errors, segment


class PoolExecutor:
    """Fan the plan's partitions out over a local process pool.

    The template ships to each worker once via the pool initializer;
    idle workers pull partitions, so oversubscribed plans load-balance.
    If the pool breaks mid-run (or cannot ship the template at all),
    completed partitions are kept and the remainder resumes serially.

    ``pool_cls`` and ``log`` are injectable so the runner keeps its
    historical monkeypatch/caplog seams (``repro.sweep.runner``).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        pool_cls=None,
        log: Optional[logging.Logger] = None,
    ) -> None:
        self.n_workers = n_workers
        self._pool_cls = pool_cls if pool_cls is not None else ProcessPoolExecutor
        self._log = log if log is not None else logger

    def run(
        self,
        plan: ExecutionPlan,
        model: SweepBackend,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        workers = min(self.n_workers, len(points))
        rows: List[Optional[List[float]]] = [None] * len(points)
        error_map: Dict[int, PointFailure] = {}
        trace = obs.current_trace()
        harvested: set = set()

        def harvest(future, result) -> None:
            if id(future) in harvested:
                return  # the broken-pool sweep below re-visits futures
            harvested.add(id(future))
            start, chunk_rows, chunk_errors, segment = result
            rows[start : start + len(chunk_rows)] = chunk_rows
            for failure in chunk_errors:
                error_map[failure.index] = failure
            if trace is not None and segment is not None:
                trace.merge_segment(**segment)
            obs.incr("sweep.rows.completed", len(chunk_rows))
            if chunk_errors:
                obs.incr("sweep.rows.failed", len(chunk_errors))

        futures = []
        try:
            with self._pool_cls(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(model, list(metrics), obs.enabled()),
            ) as pool:
                futures = [
                    pool.submit(
                        _solve_chunk,
                        partition.indices[0],
                        list(partition.points),
                    )
                    for partition in plan.partitions
                ]
                for future in futures:
                    harvest(future, future.result())
        except (BrokenProcessPool, PicklingError, OSError) as exc:
            # the pool broke or could not ship the template.  Keep every
            # partition that did complete and resume serially from the
            # unfinished points only — on a mostly-done grid the fallback
            # costs the remainder, not a full re-solve.  Genuine
            # configuration errors propagate with their own traceback.
            for future in futures:
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    harvest(future, future.result())
            missing = [i for i, row in enumerate(rows) if row is None]
            self._log.warning(
                "sweep process pool failed (%s); resuming %d of %d points "
                "serially",
                exc,
                len(missing),
                len(points),
            )
            for index, row, failure in solve_missing_rows(
                model, metrics, points, missing
            ):
                rows[index] = row
                if failure is not None:
                    error_map[failure.index] = failure
        assert all(row is not None for row in rows)
        return (
            [list(row) for row in rows],  # type: ignore[union-attr]
            [error_map[i] for i in sorted(error_map)],
        )
