"""Exactly-once row + telemetry collection.

:class:`RowCollector` is the receiving half of every remote execution
path: the distributed job queue (sweeps and service requests alike)
feeds it the messages a worker streams back, and it enforces the merge
discipline the telemetry layer depends on:

- **rows are first-write-wins** — a requeue race can deliver one index
  twice; the duplicate is dropped (and its spans with it);
- **counter deltas merge unconditionally** — they measure solver work
  actually done, duplicated or not (workers ``drain_counters()``, so
  deltas are never double-counted at the source);
- **spans merge only with their stored row** — a span segment arriving
  ahead of its row (the ``telemetry``-before-``row`` convention) or
  inside a batched ``rows`` frame is stashed per index and merged
  exactly when that row is first stored, keeping the merged trace
  covering every grid point exactly once;
- **completed rows journal to the checkpoint** at the same moment they
  count as completed, so a resume never re-solves a merged row.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.sweep.results import PointFailure

__all__ = ["RowCollector"]


class RowCollector:
    """Merge worker-streamed rows, spans, and counters exactly once.

    Parameters
    ----------
    n_metrics:
        Row width (used only for sanity — rows are stored as sent).
    trace:
        The run-level trace to merge telemetry into (``None`` disables
        all telemetry handling; rows still merge).
    checkpoint:
        Optional open checkpoint; every first-stored row is journalled.
    counter_completed, counter_failed:
        Progress counter names bumped per first-stored row (``None``
        skips that counter — the service pool counts completions under
        its own name and leaves failures to the request layer).
    """

    def __init__(
        self,
        n_metrics: int,
        *,
        trace=None,
        checkpoint=None,
        counter_completed: Optional[str] = "sweep.rows.completed",
        counter_failed: Optional[str] = "sweep.rows.failed",
    ) -> None:
        self.n_metrics = n_metrics
        self.rows: Dict[int, List[float]] = {}
        self.errors: Dict[int, PointFailure] = {}
        self._trace = trace
        self._checkpoint = checkpoint
        self._counter_completed = counter_completed
        self._counter_failed = counter_failed
        self._stashed_spans: Dict[int, List[Dict[str, object]]] = {}

    def preload(
        self,
        rows: Mapping[int, Sequence[float]],
        errors: Mapping[int, PointFailure],
        *,
        count: bool = True,
    ) -> None:
        """Seed already-completed rows (checkpoint resume).

        With ``count=True`` the resumed rows bump the progress counters,
        so a resumed sweep's counters start from the resumed offset.
        """
        for index, values in rows.items():
            self.rows[index] = [float(v) for v in values]
        self.errors.update(errors)
        if count and self._trace is not None and rows:
            if self._counter_completed:
                self._trace.incr(self._counter_completed, len(rows))
            resumed_failed = sum(1 for i in errors if i in rows)
            if resumed_failed and self._counter_failed:
                self._trace.incr(self._counter_failed, resumed_failed)

    def store(
        self,
        index: int,
        values: Sequence[float],
        error: Optional[PointFailure] = None,
    ) -> bool:
        """Record one completed row; ``False`` on duplicate delivery
        (requeue race — first write wins, telemetry must not merge)."""
        if index in self.rows:
            self._stashed_spans.pop(index, None)
            return False
        self.rows[index] = [float(v) for v in values]
        if error is not None:
            self.errors[index] = error
        if self._trace is not None:
            if self._counter_completed:
                self._trace.incr(self._counter_completed)
            if error is not None and self._counter_failed:
                self._trace.incr(self._counter_failed)
        if self._checkpoint is not None:
            self._checkpoint.append_row(index, values, error)
        spans = self._stashed_spans.pop(index, None)
        if spans and self._trace is not None:
            self._trace.merge_segment(spans=spans)
        return True

    def stash_spans(
        self, index: int, spans: Sequence[Mapping[str, object]]
    ) -> None:
        """Hold a point's span segment until its row is stored."""
        if self._trace is not None and spans:
            self._stashed_spans[index] = list(spans)

    def merge_counters(self, counters: Optional[Mapping[str, float]]) -> None:
        """Merge drained counter deltas (unconditional — see module doc)."""
        if self._trace is not None and counters:
            self._trace.merge_segment(counters=counters)

    def apply_telemetry(self, message: Mapping[str, object]) -> None:
        """Apply one ``telemetry`` protocol message (counters + stash)."""
        self.merge_counters(message.get("counters"))  # type: ignore[arg-type]
        spans = message.get("spans")
        index = message.get("index")
        if spans and index is not None:
            self.stash_spans(index, spans)  # type: ignore[arg-type]

    def apply_rows_frame(self, message: Mapping[str, object]) -> List[Dict]:
        """Unpack a batched ``rows`` frame into its per-row payloads.

        Merges the frame's counters once and stashes its per-point span
        segments; returns the row payloads (``{"index", "values",
        "error"}`` dicts) for the caller to store — storing stays with
        the caller because the coordinator serialises it under its
        condition variable.
        """
        self.merge_counters(message.get("counters"))  # type: ignore[arg-type]
        spans = message.get("spans") or {}
        for index, segment in spans.items():  # type: ignore[union-attr]
            self.stash_spans(index, segment)
        return list(message.get("rows") or [])  # type: ignore[arg-type]

    @property
    def n_completed(self) -> int:
        return len(self.rows)
