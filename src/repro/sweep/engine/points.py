"""The canonical per-point / per-batch solve loop.

Every execution path — serial, pool worker, distributed worker, service
worker, and the service micro-batcher — turns grid points into metric
rows through the functions here, so the failure taxonomy, the span
conventions (``sweep.batch`` → ``sweep.point`` → ``sweep.solve`` /
``sweep.metrics``) are defined exactly once.

Failure taxonomy
----------------

- :data:`SOLVE_FAILURE_TYPES` / :data:`METRIC_FAILURE_TYPES` — *point
  local*: the point gets an all-NaN row plus a
  :class:`~repro.sweep.results.PointFailure`; the sweep continues.
- :data:`CONFIG_ERROR_TYPES` — *configuration bugs* (unknown axis,
  malformed metric spec, unknown place): they would fail on every point,
  so they propagate and abort the run.  The wire layer maps them to a
  ``fatal`` message carrying the offending index.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.markov.ctmc import NumericalSolveError
from repro.sweep.backends.base import Metric, SweepBackend, metric_name
from repro.sweep.results import PointFailure

__all__ = [
    "CONFIG_ERROR_TYPES",
    "METRIC_FAILURE_TYPES",
    "SOLVE_FAILURE_TYPES",
    "iter_partition_rows",
    "metrics_row",
    "rows_from_solutions",
    "solve_missing_rows",
    "solve_point_row",
]

#: Exception types treated as a *per-point solve failure* (NaN row + error
#: record).  ``ValueError`` covers singular/reducible chains surfacing
#: from the direct solvers (including ``numpy.linalg.LinAlgError``, a
#: ``ValueError`` subclass) and ``RuntimeError`` covers
#: ``ConvergenceError``; anything else (``KeyError`` for bad axes,
#: ``TypeError``…) is a configuration bug and propagates.
SOLVE_FAILURE_TYPES = (
    ValueError,
    ArithmeticError,
    RuntimeError,
)

#: Exception types treated as a per-point failure during *metric
#: evaluation* (GSPN backends solve their steady state lazily, at the
#: first steady metric).  Deliberately excludes plain ``ValueError``: a
#: malformed metric spec is a configuration error that would fail on
#: every point and must raise, whereas a lazily-triggered solve stall
#: (:class:`~repro.markov.ctmc.ConvergenceError` is a ``RuntimeError``),
#: a singular chain (:class:`~repro.markov.ctmc.NumericalSolveError`),
#: or a dense-factorisation failure (``numpy.linalg.LinAlgError``) is
#: point-local — the latter two are the only ``ValueError`` subclasses
#: caught here.
METRIC_FAILURE_TYPES = (
    ArithmeticError,
    RuntimeError,
    np.linalg.LinAlgError,
    NumericalSolveError,
)

#: Exception types that mark a *configuration bug* when raised out of a
#: point solve or metric evaluation: unknown axes (``KeyError``),
#: malformed metric specs (``ValueError`` from the spec parser, raised
#: before any solve), wrong payload shapes (``TypeError``).  Every
#: remote execution path catches these to abort the whole run with a
#: diagnosis instead of poisoning points one by one.
CONFIG_ERROR_TYPES = (
    KeyError,
    ValueError,
    TypeError,
)


def solve_point_row(
    model: SweepBackend,
    metrics: Sequence[Metric],
    point: Mapping[str, float],
    index: int,
) -> Tuple[List[float], Optional[PointFailure]]:
    """Solve one grid point into a metric row, isolating numerical failures.

    The shared per-point plumbing of every execution path (serial, process
    pool, distributed workers).  Returns ``(row, failure)``: on success the
    metric values and ``None``; on a recoverable numerical failure (see
    :data:`SOLVE_FAILURE_TYPES` / :data:`METRIC_FAILURE_TYPES`) an all-NaN
    row plus the :class:`~repro.sweep.results.PointFailure` record.
    Configuration errors propagate.
    """
    nan_row = lambda: [math.nan] * len(metrics)  # noqa: E731
    with obs.span("sweep.point", index=index) as sp:
        with obs.span("sweep.solve"):
            try:
                solution = model.solve(point)
            except SOLVE_FAILURE_TYPES as exc:
                sp.set("stage", "solve")
                sp.set("error", type(exc).__name__)
                return nan_row(), PointFailure(
                    index=index,
                    point={k: float(v) for k, v in point.items()},
                    stage="solve",
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
        return metrics_row(model, metrics, point, index, solution, sp)


def metrics_row(
    model: SweepBackend,
    metrics: Sequence[Metric],
    point: Mapping[str, float],
    index: int,
    solution,
    sp,
) -> Tuple[List[float], Optional[PointFailure]]:
    """Evaluate *metrics* on an already-solved point (shared by the
    pointwise and batched paths; *sp* is the open ``sweep.point`` span)."""
    nan_row = lambda: [math.nan] * len(metrics)  # noqa: E731
    row: List[float] = []
    with obs.span("sweep.metrics"):
        for i, m in enumerate(metrics):
            try:
                row.append(model.evaluate(solution, m))
            except METRIC_FAILURE_TYPES as exc:
                sp.set("stage", "metric")
                sp.set("error", type(exc).__name__)
                return nan_row(), PointFailure(
                    index=index,
                    point={k: float(v) for k, v in point.items()},
                    stage="metric",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    metric=metric_name(m, i),
                )
    return row, None


def rows_from_solutions(
    model: SweepBackend,
    metrics: Sequence[Metric],
    points: Sequence[Mapping[str, float]],
    solutions: Sequence[object],
    indices: Optional[Sequence[int]] = None,
    start: int = 0,
):
    """Turn a batch of already-solved points into ``(index, row, failure)``.

    The downstream half of every batched path (serial batched, batched
    wire framing, service micro-batching): per point one ``sweep.point``
    span, an ``Exception`` entry in *solutions* (the batch layer's
    per-point failure isolation) becomes an all-NaN row plus a
    ``stage="solve"`` :class:`~repro.sweep.results.PointFailure`, and
    metric evaluation failures are isolated exactly like the pointwise
    path.  *indices* gives the grid index per point; when omitted they
    are ``start + offset``.  Configuration errors propagate — callers
    that need the offending index know the next unyielded position.
    """
    nan_row = lambda: [math.nan] * len(metrics)  # noqa: E731
    for offset, (point, solution) in enumerate(zip(points, solutions)):
        index = indices[offset] if indices is not None else start + offset
        with obs.span("sweep.point", index=index) as sp:
            if isinstance(solution, Exception):
                sp.set("stage", "solve")
                sp.set("error", type(solution).__name__)
                yield index, nan_row(), PointFailure(
                    index=index,
                    point={k: float(v) for k, v in point.items()},
                    stage="solve",
                    error_type=type(solution).__name__,
                    message=str(solution),
                )
                continue
            row, failure = metrics_row(
                model, metrics, point, index, solution, sp
            )
        yield index, row, failure


def iter_partition_rows(
    model: SweepBackend,
    metrics: Sequence[Metric],
    points: Sequence[Mapping[str, float]],
    start: int = 0,
    *,
    indices: Optional[Sequence[int]] = None,
    pointwise: bool = False,
):
    """Yield ``(index, row, failure)`` for *points*, batching when the
    backend can.

    The shared inner loop of the serial runner, the pool workers, and
    (through :mod:`~repro.sweep.engine.wire`) the distributed and
    service workers.  A batch-capable backend (``batch_capable`` — see
    :meth:`~repro.sweep.backends.base.SweepBackend.solve_batch`) gets the
    points in stacked batches of its preferred size, each solved by one
    ``solve_batch`` call under a ``sweep.batch`` span; everything
    downstream is unchanged — one ``sweep.point`` span, one row, and
    per-point failure isolation per grid point, exactly as on the
    pointwise path.  Indices are offset by *start* (a partition's base)
    or given explicitly via *indices*; ``pointwise=True`` forces the
    per-point path even on a batch-capable backend (the coordinator's
    retry downgrade).
    """
    batch = (
        model.resolve_batch_size(len(points))
        if not pointwise and getattr(model, "batch_capable", False)
        else 1
    )
    if batch <= 1:
        for offset, point in enumerate(points):
            index = indices[offset] if indices is not None else start + offset
            row, failure = solve_point_row(model, metrics, point, index)
            yield index, row, failure
        return
    for base in range(0, len(points), batch):
        span = points[base : base + batch]
        sub_indices = (
            list(indices[base : base + batch])
            if indices is not None
            else list(range(start + base, start + base + len(span)))
        )
        with obs.span(
            "sweep.batch", start=sub_indices[0], points=len(span)
        ):
            solutions = model.solve_batch(list(span))
        yield from rows_from_solutions(
            model, metrics, span, solutions, indices=sub_indices
        )


def solve_missing_rows(
    model: SweepBackend,
    metrics: Sequence[Metric],
    points: Sequence[Mapping[str, float]],
    missing: Iterable[int],
):
    """Serially solve *missing* indices, yielding ``(index, row, failure)``.

    The shared resume loop of the broken-pool fallback and the
    distributed runner's serial paths.
    """
    for index in missing:
        row, failure = solve_point_row(model, metrics, points[index], index)
        obs.incr("sweep.rows.completed")
        if failure is not None:
            obs.incr("sweep.rows.failed")
        yield (index, row, failure)
