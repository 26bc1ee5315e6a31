"""Elastic pool of persistent service workers.

With ``--workers N`` the service forks N
:func:`~repro.sweep.distributed.worker.run_worker` processes that dial
back into the service's own pickle port and stay connected across
requests.  Dispatch is not this module's business: every adopted
connection is a session of one
:class:`~repro.sweep.distributed.coordinator.JobQueue`, and each request
is one :class:`~repro.sweep.distributed.coordinator.Job` on it,
partitioned ``PARTITIONS_PER_WORKER x N`` ways so a request spans the
pool.  Requests therefore get exactly the distributed sweep's failure
semantics: a worker death requeues the unfinished points with per-point
blame, and a point that kills ``max_retries + 1`` workers is poisoned
(NaN row, ``stage="worker"`` error record) while the request still
succeeds.

What the pool does own is process supervision: it forks the workers,
adopts their connections, prunes a worker that dies while idle (its
socket closes), forks a replacement for every death (budget-capped),
reaps the processes on shutdown, and reports stats.  Only when no live
worker remains does a request fail, with :class:`ServiceWorkerError`.

Workers cache prepared templates in their own bounded LRU and ask for a
missing one with ``need_template`` — so a freshly respawned (empty)
worker self-heals on its first task, and repeat fingerprints skip the
template ship entirely.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.sweep.distributed.coordinator import Job, JobQueue
from repro.sweep.distributed.worker import launch_local_workers
from repro.sweep.engine.plan import PARTITIONS_PER_WORKER
from repro.sweep.results import PointFailure
from repro.sweep.service.session import RequestError, ServiceRequest
from repro.sweep.service.template_cache import TemplateEntry

__all__ = ["ServiceWorkerError", "WorkerPool"]

_ADOPTION_TIMEOUT = 30.0
_MONITOR_INTERVAL = 0.2


class ServiceWorkerError(RuntimeError):
    """No live workers remain to solve a request (HTTP 500)."""


class _RequestJob(Job):
    """One service request on the pool's job queue."""

    # failures stay the request layer's concern: completions count under
    # the service's own name and the failed counter is skipped (numeric
    # failures are per-request result data here, not sweep progress)
    counter_completed = "service.rows.completed"
    counter_failed = None
    counter_templates = "service.templates.shipped"
    fatal_error = RequestError


class WorkerPool:
    """Fork, adopt, supervise, and replace persistent service workers."""

    def __init__(
        self,
        host: str,
        port: int,
        n_workers: int,
        *,
        capacity: int = 4,
        max_retries: int = 2,
        fault: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.n_workers = int(n_workers)
        self.capacity = int(capacity)
        self.max_retries = int(max_retries)
        self.fault = dict(fault or {})
        self._procs: List[Any] = []
        self._queue = JobQueue(capacity=self.capacity, on_lost=self._note_death)
        self._monitor: Optional[asyncio.Task] = None
        self._closed = False
        self._exhausted: Optional[ServiceWorkerError] = None
        self.respawns = 0
        self.deaths = 0
        # enough to survive max_retries on every original worker, plus
        # slack for idle deaths; a backstop, not a scheduling knob
        self.max_respawns = self.n_workers * (self.max_retries + 1) + 2

    async def start(self) -> None:
        """Fork the workers and wait until every one has been adopted."""
        if self.n_workers <= 0:
            return
        # the service's trace is active on its event loop, not where the
        # pool was constructed
        self._queue.trace = obs.current_trace()
        self._procs = launch_local_workers(
            self.n_workers, self.host, self.port, fault=self.fault
        )
        await asyncio.wait_for(
            self._queue.wait_connected(self.n_workers), _ADOPTION_TIMEOUT
        )
        self._monitor = asyncio.create_task(self._monitor_loop())

    async def adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Dict[str, Any],
    ) -> None:
        """Serve a worker that dialled in until it leaves or is shut down."""
        if self._queue.handshake_error(hello) is None:
            obs.incr("service.workers.adopted")
        await self._queue.handle_worker(reader, writer, hello)

    async def solve(
        self, request: ServiceRequest, entry: TemplateEntry
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """Solve every point of *request* on the pool.

        Returns ``(rows, errors)`` keyed by point index.  Numeric
        failures and poisoned points become error records; a
        configuration error raises
        :class:`~repro.sweep.service.session.RequestError`; with no live
        worker left, :class:`ServiceWorkerError`.
        """
        if self._exhausted is not None:
            raise self._exhausted
        job = _RequestJob(
            entry.backend,
            request.metrics,
            request.points,
            n_partitions=PARTITIONS_PER_WORKER * self.n_workers,
            fingerprint=request.fingerprint,
            max_requeues=self.max_retries,
            trace=obs.current_trace(),
        )
        await self._queue.submit(job)
        await self._queue.wait_job(job)
        return job.rows, job.errors

    # -- supervision -------------------------------------------------------

    def _note_death(self, session) -> None:
        """A worker's connection was lost: count it, fork a replacement."""
        self.deaths += 1
        obs.incr("service.workers.died")
        if self._closed or self.respawns >= self.max_respawns:
            return
        # elasticity is about *connected* workers: the dead shard's
        # process may linger as a zombie for a moment after its socket
        # died, and waiting for the OS to agree would miss the respawn
        if self._queue.n_connected >= self.n_workers:
            return
        # die_after_rows is a one-shot crash, so replacements are unarmed;
        # die_at_index models a poisonous point, which kills whichever
        # worker meets it — replacements inherit it
        fault = (
            {"die_at_index": self.fault["die_at_index"], "die_worker": -1}
            if "die_at_index" in self.fault
            else None
        )
        self._procs.extend(
            launch_local_workers(1, self.host, self.port, fault=fault)
        )
        self.respawns += 1
        obs.incr("service.workers.respawned")

    async def _monitor_loop(self) -> None:
        """Prune workers that die while idle (their socket closes), and
        fail the live requests once no worker can ever come back."""
        queue = self._queue
        while not self._closed:
            await asyncio.sleep(_MONITOR_INTERVAL)
            for session in list(queue.sessions):
                if not session.busy and session.peer_gone:
                    await queue.evict(session)
            if queue.sessions or any(p.is_alive() for p in self._procs):
                self._exhausted = None
            else:
                self._exhausted = ServiceWorkerError(
                    "no live workers remain (respawn budget exhausted)"
                )
                await queue.fail(self._exhausted)

    # -- lifecycle ---------------------------------------------------------

    async def shutdown(self) -> None:
        """Stop the monitor, tell workers to exit, reap the processes."""
        self._closed = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
        await self._queue.close()
        await self._queue.drain()
        await asyncio.to_thread(self._reap)

    def _reap(self) -> None:
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)

    def stats(self) -> Dict[str, Any]:
        sessions = self._queue.sessions
        return {
            "configured": self.n_workers,
            "connected": len(sessions),
            "idle": sum(1 for s in sessions if not s.busy),
            "deaths": self.deaths,
            "respawns": self.respawns,
            "pids": [p.pid for p in self._procs if p.is_alive()],
        }
