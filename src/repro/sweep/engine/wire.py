"""The worker-side streaming loop of the wire-connected worker.

:func:`stream_partition` is what
:func:`~repro.sweep.distributed.worker.run_worker` runs per task (one
partition of one job): solve the points and stream the results back
with exactly-once telemetry framing.  Two framings exist:

- **pointwise** (``pointwise=True``, or a backend that is not
  batch-capable): the historical loop — per point one ``telemetry``
  message (spans since the last cursor + drained counter deltas)
  *ahead of* one ``row`` message, so the receiver merges each stored
  row's spans exactly once and a mid-partition death loses at most the
  point in flight.
- **batched** (protocol v2): a batch-capable backend solves the
  partition in stacked batches (``solve_batch`` under a ``sweep.batch``
  span) and ships one ``rows`` frame per batch — all the batch's rows,
  its per-point span segments keyed by index, and one counters delta.
  Sub-millisecond points stop being framing-bound: one frame amortises
  over the whole batch instead of two messages per row.

Configuration errors (:data:`~repro.sweep.engine.points.CONFIG_ERROR_TYPES`)
raise :class:`WorkerConfigError` carrying the offending index; the
worker reports it as a ``fatal`` message and stays up for the next
task.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.sweep.backends.base import Metric, SweepBackend
from repro.sweep.engine.points import (
    CONFIG_ERROR_TYPES,
    rows_from_solutions,
    solve_point_row,
)

__all__ = ["WorkerConfigError", "stream_partition"]

logger = logging.getLogger(__name__)


class WorkerConfigError(Exception):
    """A configuration error hit while streaming — carries the index.

    Wraps one of :data:`~repro.sweep.engine.points.CONFIG_ERROR_TYPES`
    (bad metric spec, unknown place/axis): it would fail on every point
    and every worker, so the caller reports a ``fatal`` diagnosis
    instead of letting the whole fleet die one connection at a time.
    """

    def __init__(self, index: int, error: BaseException) -> None:
        super().__init__(str(error))
        self.index = index
        self.error = error


async def stream_partition(
    writer,
    model: SweepBackend,
    metrics: Sequence[Metric],
    indices: Sequence[int],
    points: Sequence[Mapping[str, float]],
    *,
    pointwise: bool = False,
    trace: Optional["obs.Trace"] = None,
    ship_telemetry: bool = False,
    cursor: int = 0,
    rows_sent: int = 0,
    should_die: Optional[Callable[[int, int], bool]] = None,
    fault_label: str = "worker",
) -> Tuple[int, int, bool]:
    """Solve one partition and stream its rows; returns
    ``(rows_sent, cursor, died)``.

    *rows_sent* / *cursor* thread the connection-lifetime totals through
    successive calls.

    *should_die* is the fault-injection hook (``(index, rows_sent) ->
    bool``): when it fires the connection is aborted (RST, no goodbye —
    indistinguishable from a crash on the receiving side) and ``died``
    is ``True``; the caller stops serving.

    Worker-local failures (``MemoryError``, ``OSError``…) deliberately
    propagate: this worker dies and the partition is requeued to
    roomier survivors.
    """
    from repro.sweep.distributed.protocol import send_message

    batch = (
        max(1, model.resolve_batch_size(len(points)))
        if getattr(model, "batch_capable", False)
        else 1
    )
    if pointwise or batch <= 1:
        # the pointwise-framing downgrade changes the wire granularity for
        # blame isolation, never the numerics: a batch-capable backend's
        # one-point solve is bit-identical to its row of a stacked batch
        for index, point in zip(indices, points):
            if should_die is not None and should_die(index, rows_sent):
                logger.warning(
                    "%s: injected fault before point %d", fault_label, index
                )
                writer.transport.abort()
                return rows_sent, cursor, True
            try:
                row, failure = solve_point_row(model, metrics, point, index)
            except CONFIG_ERROR_TYPES as exc:
                raise WorkerConfigError(index, exc) from exc
            if ship_telemetry and trace is not None:
                # the point's trace segment travels *ahead* of its row:
                # the receiver stashes it and merges it only if the row
                # is actually stored, so a stored row always has its
                # spans and a duplicate delivery (requeue race) never
                # double-counts them
                await send_message(
                    writer,
                    {
                        "kind": "telemetry",
                        "index": index,
                        "spans": trace.slice_spans(cursor),
                        "counters": trace.drain_counters(),
                    },
                )
                cursor = trace.mark()
            await send_message(
                writer,
                {
                    "kind": "row",
                    "index": index,
                    "values": row,
                    "error": failure,
                },
            )
            rows_sent += 1
        return rows_sent, cursor, False

    for base in range(0, len(points), batch):
        sub_indices = list(indices[base : base + batch])
        sub_points = list(points[base : base + batch])
        if should_die is not None and any(
            should_die(i, rows_sent) for i in sub_indices
        ):
            logger.warning(
                "%s: injected fault before point %d",
                fault_label,
                sub_indices[0],
            )
            writer.transport.abort()
            return rows_sent, cursor, True
        with obs.span(
            "sweep.batch", start=sub_indices[0], points=len(sub_points)
        ):
            try:
                solutions = model.solve_batch(sub_points)
            except CONFIG_ERROR_TYPES as exc:
                raise WorkerConfigError(sub_indices[0], exc) from exc
        frame_rows: List[Dict[str, object]] = []
        frame_spans: Dict[int, List[Dict[str, object]]] = {}
        produced = rows_from_solutions(
            model, metrics, sub_points, solutions, indices=sub_indices
        )
        try:
            for index, row, failure in produced:
                frame_rows.append(
                    {"index": index, "values": row, "error": failure}
                )
                if ship_telemetry and trace is not None:
                    # per-point span segments, keyed by index inside the
                    # frame — same exactly-once discipline as the
                    # telemetry-before-row convention, one frame instead
                    # of 2xN messages
                    frame_spans[index] = trace.slice_spans(cursor)
                    cursor = trace.mark()
        except CONFIG_ERROR_TYPES as exc:
            # the generator yields in order, so the next unyielded
            # position is the point whose metrics raised
            raise WorkerConfigError(
                sub_indices[len(frame_rows)], exc
            ) from exc
        frame: Dict[str, object] = {"kind": "rows", "rows": frame_rows}
        if ship_telemetry and trace is not None:
            frame["spans"] = frame_spans
            frame["counters"] = trace.drain_counters()
        await send_message(writer, frame)
        rows_sent += len(frame_rows)
    return rows_sent, cursor, False
