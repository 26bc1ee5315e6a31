"""The discrete-event simulation engine.

A :class:`Simulator` owns a clock and an :class:`~repro.des.events.EventQueue`
and advances by repeatedly popping the earliest event and running its action.
Actions may schedule further events (at or after the current time) and may
stop the run.  The engine enforces the fundamental DES invariant — time never
goes backwards — and exposes hooks for tracing.

Typical usage::

    sim = Simulator()

    def arrival():
        ...                       # mutate model state
        sim.schedule(rng.exponential(1.0), arrival)

    sim.schedule(0.0, arrival)
    sim.run_until(1000.0)

A simulator built with a *kernel* runs no :class:`~repro.des.events.Event`
at all: the kernel is a ``drain(end_time) -> int`` callable that executes a
caller-owned event heap up to ``end_time`` and returns how many events it
ran.  :meth:`Simulator.run_until` and :meth:`Simulator.run` call it in place
of the Event-heap loop, so the engine stays the run's clock and event
counter.  The paper's simulators (the Petri token game and the CPU event
simulator) work this way, on heaps of plain ``(time, sequence, tag)``
tuples.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.des.events import Event, EventQueue

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the engine detects an inconsistent schedule.

    Examples: scheduling into the past, NaN delays, or exceeding the
    configured event budget (a runaway-model guard).
    """


class Simulator:
    """Event-driven simulator with a monotonic clock.

    Parameters
    ----------
    start_time:
        Initial clock value (default ``0.0``).
    max_events:
        Hard cap on the number of events executed in one :meth:`run_until` /
        :meth:`run` call (counted from that call's start, so a warm-up
        ``run_until`` does not eat the next call's budget); protects against
        accidental infinite immediate loops in user models.  ``None``
        disables the cap.
    trace_hook:
        Optional callable ``(time, event) -> None`` invoked just before each
        event action runs.
    kernel:
        Optional ``drain(end_time) -> int`` callable that runs a caller-owned
        event heap: it executes every event with time ``<= end_time``, keeps
        time monotonic itself, and returns the number it executed.  A kernel
        engine has no Event path: :meth:`schedule`, :meth:`schedule_at`,
        :meth:`cancel`, :meth:`step` and :meth:`stop` raise, and so does
        advancing it with a *max_events* budget or a *trace_hook* set.
    """

    __slots__ = (
        "now",
        "queue",
        "max_events",
        "trace_hook",
        "kernel",
        "events_executed",
        "_stopped",
        "_compact_interval",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        max_events: Optional[int] = None,
        trace_hook: Optional[Callable[[float, Event], None]] = None,
        kernel: Optional[Callable[[float], int]] = None,
    ) -> None:
        self.now = float(start_time)
        self.queue = EventQueue()
        self.max_events = max_events
        self.trace_hook = trace_hook
        self.kernel = kernel
        self.events_executed = 0
        self._stopped = False
        self._compact_interval = 4096
        if kernel is not None:
            self._check_kernel_mode()

    def _check_kernel_mode(self) -> None:
        """Reject the Event-path options a kernel engine cannot honour."""
        for name in ("max_events", "trace_hook"):
            if getattr(self, name) is not None:
                raise SimulationError(
                    f"{name} needs the Event path; a kernel engine counts "
                    f"and orders its own events"
                )

    def _no_kernel(self, what: str) -> None:
        if self.kernel is not None:
            raise SimulationError(
                f"{what}() needs the Event path; this engine runs a kernel "
                f"over its own event heap"
            )

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        tag: Any = None,
    ) -> Event:
        """Schedule *action* to run ``delay`` time units from now.

        Returns the :class:`Event`; pass it to :meth:`cancel` to
        deschedule it.
        """
        if self.kernel is not None:
            self._no_kernel("schedule")
        if delay < 0.0 or delay != delay:
            raise SimulationError(f"invalid delay {delay!r} at t={self.now}")
        event = Event(self.now + delay, action, priority, tag)
        # EventQueue.push inlined (its NaN guard is the check above)
        queue = self.queue
        seq = event.sequence = next(queue._counter)
        heappush(queue._heap, (event.time, event.priority, seq, event))
        queue._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        tag: Any = None,
    ) -> Event:
        """Schedule *action* at absolute simulation time *time*."""
        self._no_kernel("schedule_at")
        if time < self.now or time != time:
            raise SimulationError(
                f"cannot schedule at t={time!r}; clock is already at {self.now}"
            )
        return self.queue.push(Event(time, action, priority, tag))

    def cancel(self, event: Event) -> None:
        """Deschedule a previously scheduled event (lazy O(1)); a no-op for
        an event that already fired or was already cancelled."""
        self._no_kernel("cancel")
        self.queue.cancel(event)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Request that the current run loop exit after the current event."""
        self._no_kernel("stop")
        self._stopped = True

    def step(self) -> bool:
        """Execute exactly one event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        self._no_kernel("step")
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event at t={event.time} popped while clock at {self.now}"
            )
        self.now = event.time
        if self.trace_hook is not None:
            self.trace_hook(self.now, event)
        event.action()
        self.events_executed += 1
        if self.events_executed % self._compact_interval == 0:
            self.queue.compact()
        return True

    def run(self) -> float:
        """Run until the event queue empties or :meth:`stop` is called.

        Returns the final clock value.  A kernel engine runs its kernel dry;
        the clock then stays where it was unless the kernel moved it.
        """
        self._advance(float("inf"))
        return self.now

    def run_until(self, end_time: float) -> float:
        """Run events with time ``<= end_time``; leave the clock at *end_time*.

        Events scheduled exactly at ``end_time`` are executed.  On return the
        clock equals ``end_time`` even if the queue drained earlier, so
        time-weighted statistics can be finalised at a well-defined horizon.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time}) but clock already at {self.now}"
            )
        self._advance(end_time)
        if self.now < end_time:
            self.now = end_time
        return self.now

    def _advance(self, end_time: float) -> None:
        """Run events up to *end_time*: the kernel if there is one, else the
        Event-heap loop."""
        kernel = self.kernel
        if kernel is None:
            self._drain(end_time)
        else:
            self._check_kernel_mode()
            self.events_executed += kernel(end_time)

    def _drain(self, end_time: float) -> None:
        """The one event loop behind :meth:`run` and :meth:`run_until`.

        :meth:`step` inlined: the heap and ``heappop`` are locals and
        cancelled heads are dropped in place.  Executes every live event with
        time ``<= end_time`` (``inf`` runs the queue dry) unless :meth:`stop`
        is called or the per-call event budget runs out.
        """
        self._stopped = False
        queue = self.queue
        heap = queue._heap
        trace = self.trace_hook
        interval = self._compact_interval
        budget = self.max_events
        limit = None if budget is None else self.events_executed + budget
        while not self._stopped:
            while heap and heap[0][3].cancelled:
                heappop(heap)
            if not heap or heap[0][0] > end_time:
                return
            if limit is not None and self.events_executed >= limit:
                raise SimulationError(
                    f"event budget of {budget} exhausted at t={self.now}"
                )
            time, _, _, event = heappop(heap)
            queue._live -= 1
            event.sequence = -1  # fired: a later cancel is a no-op
            if time < self.now:
                raise SimulationError(
                    f"event at t={time} popped while clock at {self.now}"
                )
            self.now = time
            if trace is not None:
                trace(time, event)
            event.action()
            self.events_executed += 1
            if self.events_executed % interval == 0:
                queue.compact()
                heap = queue._heap  # compaction rebinds the heap

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def pending_count(self) -> int:
        """Number of live scheduled events."""
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6g}, pending={len(self.queue)}, "
            f"executed={self.events_executed})"
        )
