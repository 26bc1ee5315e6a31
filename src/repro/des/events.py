"""Event objects and the pending-event set.

The event queue is a binary heap keyed on ``(time, priority, sequence)``.
The sequence number makes the ordering total and deterministic: two events
scheduled for the same instant at the same priority fire in scheduling order,
which is what reproducible simulations require.

Cancellation is *lazy*: :meth:`EventQueue.cancel` marks the event and the pop
loop discards cancelled entries, which keeps cancellation O(1) for models
that withdraw timers more often than they fire them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled occurrence inside a :class:`~repro.des.engine.Simulator`.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    action:
        Zero-argument callable invoked when the event fires.
    priority:
        Tie-breaker for events at the same instant; *lower* values fire
        first (matching the convention that immediate transitions at
        priority 0 pre-empt everything).
    tag:
        Optional opaque payload used by callers to identify the event in
        traces (the Petri simulator stores the transition name here).
    """

    __slots__ = ("time", "action", "priority", "tag", "sequence", "cancelled")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        tag: Any = None,
    ) -> None:
        self.time = float(time)
        self.action = action
        self.priority = int(priority)
        self.tag = tag
        self.sequence = -1  # assigned on push; -1 again once popped
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, prio={self.priority}, tag={self.tag!r}, {state})"


class EventQueue:
    """Deterministic pending-event set with lazy cancellation.

    The queue never compares ``Event`` objects directly; heap entries are
    ``(time, priority, sequence, event)`` tuples so ordering is purely on the
    scalar key.
    """

    __slots__ = ("_heap", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (for convenient chaining)."""
        if event.time != event.time:  # NaN guard
            raise ValueError("event time is NaN")
        event.sequence = next(self._counter)
        heapq.heappush(self._heap, (event.time, event.priority, event.sequence, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Lazily remove *event*; no-op if already cancelled or fired.

        A popped event has its sequence number reset to ``-1``, so only an
        event still in the heap counts against the live total.
        """
        if not event.cancelled and event.sequence >= 0:
            event.cancelled = True
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            _, _, _, event = heapq.heappop(heap)
            if not event.cancelled:
                self._live -= 1
                event.sequence = -1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, _, event in self._heap:
            event.sequence = -1
        self._heap.clear()
        self._live = 0

    def compact(self) -> None:
        """Physically remove cancelled entries.

        Useful in very long runs where cancellations outnumber firings and
        the heap would otherwise grow without bound.  The simulator calls
        this automatically when the dead fraction grows large.
        """
        if len(self._heap) <= 2 * self._live:
            return
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def dead_fraction(self) -> float:
        """Fraction of heap entries that are cancelled (diagnostic)."""
        if not self._heap:
            return 0.0
        return 1.0 - self._live / len(self._heap)

    def iter_pending(self) -> Iterator[Event]:
        """Iterate over live events in arbitrary (heap) order."""
        for _, _, _, event in self._heap:
            if not event.cancelled:
                yield event
