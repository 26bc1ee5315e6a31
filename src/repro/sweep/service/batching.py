"""Cross-request micro-batching for the service's inline solve path.

Without a worker pool the service used to hold one ``asyncio.Lock`` per
template and run each request's solve alone under it — N concurrent
clients querying the *same* template paid N full solves in single file.
:class:`MicroBatcher` replaces that lock discipline with a **batching
window**: the first request for a fingerprint opens a flight, waits
``window_s`` for same-fingerprint company, then all pending requests are
solved together.  On a batch-capable backend the flight concatenates
every request's points into one point list and runs the engine's stacked
``solve_batch`` chunks over it — one kernel call amortised across all
coalesced requests — before slicing per-request
rows back out.  A window of zero still coalesces: whatever queued while
the previous flight was solving departs together on the next one.

Failure isolation is per request, never per flight:

- a point that fails *numerically* surfaces as that request's NaN row +
  error record, exactly as a solo solve would report it;
- a request whose points or metrics are *misconfigured* (the stacked
  solve raises one of
  :data:`~repro.sweep.engine.points.CONFIG_ERROR_TYPES`) triggers a
  fallback: the flight re-solves request-by-request so only the
  offending request fails with ``bad-request`` and its coalesced
  siblings still get their rows.

Telemetry: each flight runs in a thread under a private trace (see
:func:`run_traced`) whose segment the event loop merges exactly once,
plus one ``service.batch`` span recording the fingerprint, how many
requests coalesced, and the total point count.  Per-point ``sweep.point``
spans are emitted by the engine row helpers as usual, so a coalesced
request's trace is indistinguishable from a solo one.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.sweep.engine.points import (
    CONFIG_ERROR_TYPES,
    iter_partition_rows,
    rows_from_solutions,
)
from repro.sweep.results import PointFailure
from repro.sweep.service.session import RequestError, ServiceRequest
from repro.sweep.service.template_cache import TemplateEntry

__all__ = ["MicroBatcher", "run_traced"]

#: outcome of one request inside a flight:
#: ``("ok", rows, errors)`` or ``("error", exception)``
_Outcome = Tuple[Any, ...]


def run_traced(fn: Callable[[], Any], name: str) -> Tuple[Any, Optional[dict]]:
    """Run *fn* under a private trace; return ``(value, segment)``.

    The thread-side half of the service's telemetry discipline: work
    dispatched to ``asyncio.to_thread`` never writes the service trace
    directly (concurrent threads would interleave); it records into a
    private trace whose segment the event loop merges exactly once.
    """
    local = obs.Trace(name) if obs.enabled() else None
    token = obs.activate(local) if local is not None else None
    try:
        value = fn()
    finally:
        if token is not None:
            obs.deactivate(token)
    segment = None
    if local is not None:
        segment = {
            "spans": local.slice_spans(0),
            "counters": local.drain_counters(),
        }
    return value, segment


class _Waiter:
    __slots__ = ("request", "future")

    def __init__(
        self, request: ServiceRequest, future: "asyncio.Future[_Outcome]"
    ) -> None:
        self.request = request
        self.future = future


class MicroBatcher:
    """Coalesce concurrent same-template requests into stacked solves."""

    def __init__(
        self,
        *,
        window_s: float = 0.0,
        solve_delay: Optional[float] = None,
    ) -> None:
        self.window_s = max(0.0, float(window_s))
        self.solve_delay = solve_delay
        self.flights = 0
        self.coalesced = 0
        self._pending: Dict[str, List[_Waiter]] = {}
        self._flights: Dict[str, asyncio.Task] = {}

    async def submit(
        self, entry: TemplateEntry, request: ServiceRequest
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """Queue *request* on its fingerprint's flight; await its rows.

        Raises whatever the request's own solve raised (mapped to
        :class:`~repro.sweep.service.session.RequestError` for
        configuration errors) — a coalesced sibling's failure never
        propagates here.
        """
        fingerprint = request.fingerprint or ""
        future: "asyncio.Future[_Outcome]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.setdefault(fingerprint, []).append(
            _Waiter(request, future)
        )
        if fingerprint not in self._flights:
            self._flights[fingerprint] = asyncio.create_task(
                self._flight(entry, fingerprint)
            )
        outcome = await future
        if outcome[0] == "ok":
            return outcome[1], outcome[2]
        raise outcome[1]

    async def drain(self) -> None:
        """Wait for every open flight to land (service drain)."""
        flights = list(self._flights.values())
        if flights:
            await asyncio.gather(*flights, return_exceptions=True)

    def stats(self) -> Dict[str, Any]:
        return {
            "window_ms": round(self.window_s * 1000.0, 3),
            "open_flights": len(self._flights),
            "flights": self.flights,
            "coalesced": self.coalesced,
        }

    # -- the flight loop ---------------------------------------------------

    async def _flight(self, entry: TemplateEntry, fingerprint: str) -> None:
        try:
            while True:
                if self.window_s > 0.0:
                    await asyncio.sleep(self.window_s)
                # pop-and-test is atomic with the submit path (no await
                # between here and the finally below), so a request can
                # never land in a pending list no flight will serve
                waiters = self._pending.pop(fingerprint, [])
                if not waiters:
                    return
                await self._serve(entry, fingerprint, waiters)
                if fingerprint not in self._pending:
                    return
        finally:
            self._flights.pop(fingerprint, None)

    async def _serve(
        self,
        entry: TemplateEntry,
        fingerprint: str,
        waiters: List[_Waiter],
    ) -> None:
        requests = [w.request for w in waiters]
        trace = obs.current_trace()
        t0 = trace.now() if trace is not None else 0.0
        try:
            async with entry.lock:  # one solve per template at a time
                outcomes, segment = await asyncio.to_thread(
                    self._solve_flight, entry.backend, requests
                )
        except asyncio.CancelledError:
            for waiter in waiters:
                if not waiter.future.done():
                    waiter.future.cancel()
            raise
        except BaseException as exc:
            outcomes = [("error", exc)] * len(waiters)
            segment = None
        if trace is not None:
            if segment is not None:
                trace.merge_segment(**segment)
            trace.add_span(
                "service.batch",
                t0,
                trace.now(),
                fingerprint=fingerprint,
                requests=len(waiters),
                points=sum(len(r.points) for r in requests),
            )
        self.flights += 1
        obs.incr("service.batch.flights")
        if len(waiters) > 1:
            self.coalesced += len(waiters) - 1
            obs.incr("service.batch.coalesced", len(waiters) - 1)
        for waiter, outcome in zip(waiters, outcomes):
            if not waiter.future.done():
                waiter.future.set_result(outcome)

    # -- thread-side solving -----------------------------------------------

    def _solve_flight(
        self, backend: Any, requests: Sequence[ServiceRequest]
    ) -> Tuple[List[_Outcome], Optional[dict]]:
        return run_traced(
            lambda: self._solve_requests(backend, requests), "service-solve"
        )

    def _solve_requests(
        self, backend: Any, requests: Sequence[ServiceRequest]
    ) -> List[_Outcome]:
        total = sum(len(r.points) for r in requests)
        if getattr(backend, "batch_capable", False) and total > 1:
            try:
                return self._solve_stacked(backend, requests)
            except CONFIG_ERROR_TYPES:
                # one request's bad point spoiled the stacked solve; fall
                # through so only that request fails and the coalesced
                # siblings still get their rows
                pass
        outcomes: List[_Outcome] = []
        for request in requests:
            rows: Dict[int, List[float]] = {}
            errors: Dict[int, PointFailure] = {}
            try:
                for index, row, failure in iter_partition_rows(
                    backend, request.metrics, request.points
                ):
                    rows[index] = row
                    if failure is not None:
                        errors[index] = failure
                    if self.solve_delay:
                        time.sleep(self.solve_delay)
                outcomes.append(("ok", rows, errors))
            except CONFIG_ERROR_TYPES as exc:
                outcomes.append(("error", RequestError(str(exc))))
        return outcomes

    def _solve_stacked(
        self, backend: Any, requests: Sequence[ServiceRequest]
    ) -> List[_Outcome]:
        """Solve every request's points as one concatenated batch run.

        Configuration errors raised by ``solve_batch`` itself propagate
        (the caller falls back to per-request isolation); numeric
        failures come back per point and config errors in a request's
        *metrics* are caught per request below.
        """
        all_points: List[Any] = []
        slices: List[Tuple[ServiceRequest, int, int]] = []
        for request in requests:
            start = len(all_points)
            all_points.extend(request.points)
            slices.append((request, start, len(all_points)))
        batch = max(1, backend.resolve_batch_size(len(all_points)))
        solutions: List[Any] = []
        for base in range(0, len(all_points), batch):
            sub = all_points[base : base + batch]
            with obs.span("sweep.batch", start=base, points=len(sub)):
                solutions.extend(backend.solve_batch(sub))
        outcomes: List[_Outcome] = []
        for request, start, stop in slices:
            rows: Dict[int, List[float]] = {}
            errors: Dict[int, PointFailure] = {}
            try:
                for index, row, failure in rows_from_solutions(
                    backend,
                    request.metrics,
                    request.points,
                    solutions[start:stop],
                ):
                    rows[index] = row
                    if failure is not None:
                        errors[index] = failure
                    if self.solve_delay:
                        time.sleep(self.solve_delay)
                outcomes.append(("ok", rows, errors))
            except CONFIG_ERROR_TYPES as exc:
                outcomes.append(("error", RequestError(str(exc))))
        return outcomes
