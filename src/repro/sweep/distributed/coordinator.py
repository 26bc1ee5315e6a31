"""The job queue: one worker-dispatch session for every wire path.

:class:`JobQueue` serves any number of worker connections over the
worker dialect of :mod:`~repro.sweep.distributed.protocol`, and holds
the :class:`Job`\\ s they work on.  A job is one sweep
(:class:`SweepCoordinator`, what ``sweep --distributed`` runs) or one
service request (what ``serve --workers`` submits per request); both
get exactly the same dispatch, failure and telemetry semantics.

Scheduling is pull-based: an idle worker checks out the next pending
partition of the oldest live job; there is no static assignment, so a
slow host simply takes fewer partitions and one job spans every idle
worker.  Partitions preserve the grid's axis order: pending points are
split into consecutive spans
(:func:`~repro.sweep.engine.plan.partition_indices`) and every row
carries its grid index, so the merged table is ordered exactly like the
serial runner's; a point's solve depends on that point alone, so the
rows are bit-identical to it too.  On a
batch-capable backend the boundaries align to the backend's preferred
batch size, so each partition is a whole number of stacked solves
shipped back as batched ``rows`` frames.

Fault model
-----------

- **A point fails numerically** — the worker streams a NaN row with a
  :class:`~repro.sweep.results.PointFailure`; the job continues.
- **A worker dies mid-partition** (crash, kill, network partition) — on
  a pointwise-framing partition rows stream per point, so the queue
  requeues exactly the unfinished suffix at the *front* of its job,
  blaming only the point in flight; surviving workers pick it up.  On a
  batch-framing partition a whole batch may be in flight, so the
  unfinished remainder is requeued *without blame* and the retry is
  downgraded to pointwise framing — a genuinely poisonous point is then
  isolated and blamed by the per-point machinery, and the healthy
  members of its batch never inherit strikes.  A partition that never
  reached its worker (dispatch to a dead socket) blames nobody.
- **A point keeps killing workers** — after ``max_requeues`` requeues it
  is poisoned: NaN row, ``stage="worker"`` error record, job continues.
- **A worker reports a configuration error** (``fatal``) — only that
  job fails: a sweep with :class:`DistributedSweepError`, a service
  request with a ``RequestError``.  The worker stays connected.
- **Every worker is gone** — the owner (the sweep runner's supervisor,
  the service pool's monitor) fails the job; a sweep's completed rows
  are already in its checkpoint (when one is configured), so the next
  run resumes instead of restarting.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import socket as socket_module
import uuid
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.sweep.backends.base import Metric
from repro.sweep.distributed.checkpoint import SweepCheckpoint
from repro.sweep.distributed.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.sweep.engine.collector import RowCollector
from repro.sweep.engine.plan import (
    DEFAULT_MAX_REQUEUES,
    Partition,
    partition_indices,
)
from repro.sweep.results import PointFailure

__all__ = [
    "DEFAULT_MAX_REQUEUES",
    "DistributedSweepError",
    "Job",
    "JobQueue",
    "SweepCoordinator",
]

logger = logging.getLogger(__name__)

#: What a lost worker connection looks like from the receiving side.
_CONNECTION_ERRORS = (
    asyncio.IncompleteReadError,
    ConnectionError,
    OSError,
    ProtocolError,
)


class DistributedSweepError(RuntimeError):
    """The distributed sweep cannot make progress (e.g. all workers died)."""


class Job:
    """One sweep or one service request on a :class:`JobQueue`.

    Owns the per-job state: the :class:`RowCollector` (first-write-wins
    rows, exactly-once telemetry, checkpoint journal), the per-point
    blame counts, and the pending :class:`Partition`\\ s.  Methods are
    synchronous and run under the queue's condition variable.

    Parameters
    ----------
    model, metrics:
        The prepared sweep backend template and metric specs shipped to
        workers (on ``need_template``) and with every task.
    points:
        All grid points in enumeration order (the row indices).
    n_partitions:
        Partition target over the pending points (oversubscribe workers
        ~4x so pull-scheduling can balance load).
    fingerprint:
        Template identity the workers' LRUs key on (default: unique to
        this job).
    done_rows, done_errors, done_requeues:
        Rows and blame counts already recorded (checkpoint resume); only
        the remaining points are partitioned, and a point that crashed
        workers in a previous run keeps its record.
    checkpoint:
        Optional open :class:`SweepCheckpoint` journalling every
        completed row and every blame.
    max_requeues:
        Worker-death retries per point before poisoning it.
    wire_batching:
        ``False`` dispatches every partition of a batch-capable backend
        with pointwise framing — the benchmark baseline.
    trace:
        The trace rows, spans and ``dist.*`` records merge into.
    """

    #: progress counters bumped per first-stored row (``None`` skips)
    counter_completed: Optional[str] = "sweep.rows.completed"
    counter_failed: Optional[str] = "sweep.rows.failed"
    #: counter bumped per template shipped on ``need_template``
    counter_templates: Optional[str] = None
    #: what a worker's ``fatal`` diagnosis fails the job with
    fatal_error: Callable[[str], BaseException] = RuntimeError

    def __init__(
        self,
        model,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
        *,
        n_partitions: int,
        fingerprint: Optional[str] = None,
        done_rows: Optional[Dict[int, List[float]]] = None,
        done_errors: Optional[Dict[int, PointFailure]] = None,
        done_requeues: Optional[Dict[int, int]] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        wire_batching: bool = True,
        trace: Optional[obs.Trace] = None,
    ) -> None:
        self.model = model
        self.metrics = list(metrics)
        self.points = [dict(p) for p in points]
        self.fingerprint = fingerprint or uuid.uuid4().hex
        self.max_requeues = max_requeues
        self.trace = trace
        self.requeues: Dict[int, int] = dict(done_requeues or {})
        self.failure: Optional[BaseException] = None
        self._checkpoint = checkpoint
        self.collector = RowCollector(
            len(self.metrics),
            trace=trace,
            checkpoint=checkpoint,
            counter_completed=self.counter_completed,
            counter_failed=self.counter_failed,
        )
        self.collector.preload(done_rows or {}, done_errors or {})
        self.batch_capable = bool(getattr(model, "batch_capable", False))
        self._partition_ids = itertools.count()
        remaining = [i for i in range(len(points)) if i not in self.rows]
        align = (
            max(1, model.resolve_batch_size(len(points)))
            if self.batch_capable and wire_batching
            else 1
        )
        pointwise = self.batch_capable and not wire_batching
        self.pending: Deque[Partition] = deque(
            self._partition(indices, pointwise)
            for indices in partition_indices(remaining, n_partitions, align=align)
        )

    @property
    def rows(self) -> Dict[int, List[float]]:
        return self.collector.rows

    @property
    def errors(self) -> Dict[int, PointFailure]:
        return self.collector.errors

    @property
    def complete(self) -> bool:
        return len(self.rows) == len(self.points)

    @property
    def live(self) -> bool:
        return self.failure is None and not self.complete

    def _partition(self, indices: List[int], pointwise: bool) -> Partition:
        return Partition(
            partition_id=next(self._partition_ids),
            indices=indices,
            points=[self.points[i] for i in indices],
            pointwise=pointwise,
        )

    def template_message(self) -> Dict[str, object]:
        """The answer to a worker's ``need_template`` for this job."""
        if self.counter_templates and self.trace is not None:
            self.trace.incr(self.counter_templates)
        return {
            "kind": "template",
            "fingerprint": self.fingerprint,
            "model": self.model,
            "metrics": self.metrics,
        }

    def pop_live(self) -> Optional[Partition]:
        """Next partition with done and poisoned points filtered out
        (poisoning may complete the job)."""
        while self.pending:
            partition = self.pending.popleft()
            live: List[int] = []
            for index in partition.indices:
                if index in self.rows:
                    continue  # completed elsewhere (duplicate after requeue)
                if self.requeues.get(index, 0) > self.max_requeues:
                    self._poison(index)
                else:
                    live.append(index)
            if live:
                return self._partition(live, partition.pointwise)
        return None

    def _poison(self, index: int) -> None:
        count = self.requeues.get(index, 0)
        logger.warning(
            "point %d requeued %d times after killing its worker; "
            "recording a NaN row and moving on",
            index,
            count,
        )
        stored = self.collector.store(
            index,
            [float("nan")] * len(self.metrics),
            PointFailure(
                index=index,
                point=self.points[index],
                stage="worker",
                error_type="WorkerDied",
                message=(
                    f"worker died on this point {count} time(s); "
                    f"gave up after max_requeues={self.max_requeues}"
                ),
            ),
        )
        if stored and self.trace is not None:
            # the worker that would have recorded this point's span died
            # with it — a synthetic zero-duration span keeps the merged
            # trace covering every grid point exactly once
            self.trace.incr("dist.points.poisoned")
            now = self.trace.now()
            self.trace.add_span(
                "sweep.point", now, now,
                index=index, stage="worker", poisoned=True,
            )

    def requeue(
        self,
        partition: Partition,
        done: Set[int],
        reason: BaseException,
        *,
        blame: bool,
        pointwise: bool = False,
    ) -> None:
        """Put a lost partition's unfinished points back at the front.

        On a pointwise-framing partition rows stream per point in order,
        so the first unfinished index is the one being solved when the
        worker died — *blame* it alone; the healthy tail must not
        inherit retry counts (it would get poisoned wholesale).  The
        caller blames nobody when the partition never reached the worker
        or was batch-framed (a whole batch was in flight — it downgrades
        the retry to *pointwise* instead, which isolates a genuine killer
        on the next attempt).
        """
        unfinished = [
            i for i in partition.indices if i not in done and i not in self.rows
        ]
        if not unfinished or not self.live:
            return
        if blame:
            self.requeues[unfinished[0]] = self.requeues.get(unfinished[0], 0) + 1
            if self._checkpoint is not None:
                self._checkpoint.append_requeue(unfinished[0])
        self.pending.appendleft(
            self._partition(unfinished, pointwise or partition.pointwise)
        )
        if self.trace is not None:
            self.trace.incr("dist.requeues")
            self.trace.event(
                "dist.requeue",
                index=unfinished[0],
                n_points=len(unfinished),
                blame=blame,
                reason=type(reason).__name__,
            )
        logger.warning(
            "worker died mid-partition (%s); requeued %d unfinished "
            "point(s) starting at index %d",
            reason,
            len(unfinished),
            unfinished[0],
        )


class _Session:
    """One connected worker, as the queue and its owner see it."""

    __slots__ = ("label", "reader", "busy", "evicted")

    def __init__(self, label: str, reader: asyncio.StreamReader) -> None:
        self.label = label
        self.reader = reader
        self.busy = False
        self.evicted = False

    @property
    def peer_gone(self) -> bool:
        """The worker's end of the connection closed.

        A reset (the peer died with unread data, e.g. a ``welcome`` it
        never got to read) sets an exception on the reader instead of
        EOF, so both count.
        """
        return self.reader.at_eof() or self.reader.exception() is not None


def _enable_keepalive(writer: asyncio.StreamWriter) -> None:
    """Kernel-level dead-peer detection on a worker connection.

    A silent network partition (no RST ever arrives) surfaces as a
    connection error instead of hanging the task forever.  The probe
    schedule is tightened where the platform allows it — the Linux
    default (2h idle) would stall a sweep for hours first.
    """
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    sock.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_KEEPALIVE, 1)
    for option, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 6),
    ):
        if hasattr(socket_module, option):
            sock.setsockopt(
                socket_module.IPPROTO_TCP, getattr(socket_module, option), value
            )


class JobQueue:
    """Worker sessions plus the live jobs they pull partitions from.

    :meth:`handle_worker` is the asyncio server callback (or is handed a
    connection whose ``hello`` was already read).  Jobs are submitted
    with :meth:`submit` and awaited with :meth:`wait_job`; :meth:`close`
    sends every worker ``shutdown``.

    Parameters
    ----------
    trace:
        The trace ``dist.worker`` spans and the queue-depth gauge go to;
        also decides whether workers are asked to ship telemetry.
    capacity:
        Template-LRU size each worker is told in its ``welcome``.
    on_lost:
        Called with a session whose connection was lost (not shut down)
        — the service pool's death accounting and respawn hook.
    """

    def __init__(
        self,
        *,
        trace: Optional[obs.Trace] = None,
        capacity: int = 4,
        on_lost: Optional[Callable[[_Session], None]] = None,
    ) -> None:
        self.trace = trace
        self.capacity = int(capacity)
        self.sessions: List[_Session] = []
        self._jobs: Deque[Job] = deque()
        self._cond = asyncio.Condition()
        self._closed = False
        self._on_lost = on_lost

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #
    async def submit(self, job: Job) -> None:
        async with self._cond:
            self._jobs.append(job)
            self._note_queue_depth()
            self._cond.notify_all()

    async def wait_job(self, job: Job) -> None:
        """Block until *job* has every row (or failed: its error raises)."""
        async with self._cond:
            try:
                await self._cond.wait_for(lambda: not job.live)
            finally:
                if job in self._jobs:
                    self._jobs.remove(job)
        if job.failure is not None:
            raise job.failure

    async def fail(self, exc: BaseException, job: Optional[Job] = None) -> None:
        """Fail *job* — or every live job, e.g. when no workers remain;
        the waiters raise *exc*."""
        async with self._cond:
            for each in [job] if job is not None else self._jobs:
                if each.live:
                    each.failure = exc
                    each.pending.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    @property
    def n_connected(self) -> int:
        return len(self.sessions)

    async def wait_connected(self, n: int) -> None:
        async with self._cond:
            await self._cond.wait_for(lambda: len(self.sessions) >= n)

    async def evict(self, session: _Session) -> None:
        """End an idle session whose peer is gone (counts as lost)."""
        async with self._cond:
            session.evicted = True
            self._cond.notify_all()

    async def close(self) -> None:
        """Send every worker ``shutdown`` once it is idle."""
        async with self._cond:
            self._closed = True
            self._cond.notify_all()

    async def drain(self, timeout: float = 5.0) -> None:
        """Give connected workers time to complete the shutdown handshake.

        Called after :meth:`close`, before the server closes — otherwise
        the final ``task_done``/``shutdown`` exchange races the teardown
        and healthy workers see their connection die.
        """
        async def _all_gone() -> None:
            async with self._cond:
                await self._cond.wait_for(lambda: not self.sessions)

        try:
            await asyncio.wait_for(_all_gone(), timeout)
        except asyncio.TimeoutError:
            logger.warning(
                "%d worker(s) still connected after the %.1fs shutdown "
                "grace period; closing anyway",
                len(self.sessions),
                timeout,
            )

    def _note_queue_depth(self) -> None:
        if self.trace is not None:
            self.trace.gauge(
                "dist.queue.depth", sum(len(job.pending) for job in self._jobs)
            )

    async def _checkout(self, session: _Session) -> Optional[Tuple[Job, Partition]]:
        """The oldest live job's next partition; ``None`` ends the session."""
        async with self._cond:
            while True:
                if self._closed or session.evicted:
                    return None
                for job in self._jobs:
                    if not job.live:
                        continue
                    partition = job.pop_live()
                    if partition is not None:
                        session.busy = True
                        self._note_queue_depth()
                        return job, partition
                    if job.complete:  # poisoning finished it
                        self._cond.notify_all()
                # no pending work: wait for a new job, or for a busy
                # worker to die and its partition to come back
                await self._cond.wait()

    def handshake_error(self, hello: Mapping[str, object]) -> Optional[str]:
        """Why this ``hello`` is refused (``None``: it is welcome)."""
        if hello.get("kind") != "hello":
            return f"expected hello, got {hello.get('kind')!r}"
        if hello.get("version") != PROTOCOL_VERSION:
            # name both sides' versions *and* this side's capabilities so
            # the stale peer's operator can diagnose what is missing
            # instead of seeing a bare number mismatch
            return (
                f"protocol version mismatch: coordinator {PROTOCOL_VERSION} "
                f"(capabilities: {', '.join(CAPABILITIES)}), worker "
                f"{hello.get('version')}"
            )
        return None

    async def handle_worker(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Serve one worker connection until shutdown or loss."""
        peer = writer.get_extra_info("peername")
        try:
            if hello is None:
                hello = await recv_message(reader)
            problem = self.handshake_error(hello)
            if problem is not None:
                logger.warning("worker %s rejected: %s", peer, problem)
                # tell the worker *why* — otherwise its operator only
                # sees a dropped connection while the diagnosis sits in a
                # log on another machine
                await send_message(writer, {"kind": "reject", "message": problem})
                writer.close()
                return
            await send_message(
                writer,
                {
                    "kind": "welcome",
                    "version": PROTOCOL_VERSION,
                    "capacity": self.capacity,
                    "telemetry": self.trace is not None,
                },
            )
        except _CONNECTION_ERRORS as exc:
            logger.warning("worker %s lost during handshake: %s", peer, exc)
            writer.close()
            return
        session = _Session(str(hello.get("worker", peer)), reader)
        logger.info("worker %s joined", session.label)
        _enable_keepalive(writer)
        async with self._cond:
            self.sessions.append(session)
            self._cond.notify_all()
        t_joined = self.trace.now() if self.trace is not None else 0.0
        lost: Optional[BaseException] = None
        try:
            while True:
                work = await self._checkout(session)
                if work is None:
                    break
                try:
                    await self._run_task(session, *work, reader, writer)
                finally:
                    session.busy = False
            if session.evicted:
                lost = ConnectionError("idle worker's connection closed")
            else:
                try:
                    await send_message(writer, {"kind": "shutdown"})
                except (ConnectionError, OSError):
                    pass
        except asyncio.CancelledError:
            # event-loop teardown (the work is already decided); exit
            # quietly so the cancellation is not logged as a server error
            pass
        except _CONNECTION_ERRORS as exc:
            logger.warning("worker %s lost: %s", session.label, exc)
            lost = exc
        finally:
            async with self._cond:
                self.sessions.remove(session)
                self._cond.notify_all()
            if self.trace is not None:
                self.trace.add_span(
                    "dist.worker", t_joined, self.trace.now(), label=session.label
                )
            writer.close()
            logger.info("worker %s left", session.label)
            if lost is not None and self._on_lost is not None:
                self._on_lost(session)

    async def _run_task(
        self,
        session: _Session,
        job: Job,
        partition: Partition,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch one partition and receive its rows.

        A lost connection requeues the unfinished points (see
        :meth:`Job.requeue` for who gets blamed) and re-raises.
        """
        done: Set[int] = set()
        sent = False
        trace = job.trace
        t_dispatch = 0.0
        t_first_row: Optional[float] = None
        try:
            await send_message(
                writer,
                {
                    "kind": "task",
                    "task_id": partition.partition_id,
                    "fingerprint": job.fingerprint,
                    "metrics": job.metrics,
                    "indices": partition.indices,
                    "points": partition.points,
                    "pointwise": partition.pointwise,
                },
            )
            sent = True
            if trace is not None:
                t_dispatch = trace.now()
                trace.incr("dist.chunks.dispatched")
            expected = set(partition.indices)
            while True:
                message = await recv_message(reader)
                kind = message["kind"]
                if kind == "need_template":
                    await send_message(writer, job.template_message())
                elif kind == "telemetry":
                    # counter deltas measure solver work actually done, so
                    # they merge unconditionally; spans wait for their row
                    # (the collector merges a stashed segment only when
                    # its row is first stored)
                    job.collector.apply_telemetry(message)
                elif kind in ("row", "rows"):
                    # a rows frame is one stacked batch: counters merge
                    # once, per-point spans stash by index, and the rows
                    # store exactly like per-point row messages
                    payloads = (
                        job.collector.apply_rows_frame(message)
                        if kind == "rows"
                        else [message]
                    )
                    for payload in payloads:
                        index = payload["index"]
                        if index not in expected:
                            raise ProtocolError(
                                f"row for index {index} outside task "
                                f"{partition.partition_id}"
                            )
                        done.add(index)
                        if trace is not None and t_first_row is None:
                            t_first_row = trace.now()
                        async with self._cond:
                            job.collector.store(
                                index, payload["values"], payload.get("error")
                            )
                            self._cond.notify_all()
                elif kind == "fatal":
                    # a configuration error: every point of this job would
                    # fail identically on every worker — fail the job with
                    # the worker's diagnosis; the worker stays up
                    await self.fail(
                        job.fatal_error(
                            f"worker {session.label} hit a configuration "
                            f"error on point {message.get('index')}: "
                            f"{message.get('error_type')}: "
                            f"{message.get('message')}"
                        ),
                        job,
                    )
                    return
                elif kind == "task_done":
                    missing = expected - done
                    if missing:
                        raise ProtocolError(
                            f"worker finished task {partition.partition_id} "
                            f"but never sent rows for {sorted(missing)}"
                        )
                    if trace is not None:
                        attrs: Dict[str, object] = {
                            "chunk_id": partition.partition_id,
                            "n_points": len(partition.indices),
                            "label": session.label,
                        }
                        if t_first_row is not None:
                            # dispatch latency: send to first row back
                            attrs["first_row_s"] = t_first_row - t_dispatch
                        trace.add_span("dist.chunk", t_dispatch, trace.now(), **attrs)
                    return
                else:
                    raise ProtocolError(
                        f"unexpected message {kind!r} while a task is out"
                    )
        except _CONNECTION_ERRORS as exc:
            batched = job.batch_capable and sent and not partition.pointwise
            async with self._cond:
                job.requeue(
                    partition,
                    done,
                    exc,
                    blame=sent and not batched,
                    pointwise=batched,
                )
                self._note_queue_depth()
                self._cond.notify_all()
            raise


class SweepCoordinator(JobQueue):
    """A job queue serving exactly one sweep — what
    :class:`~repro.sweep.distributed.runner.DistributedSweepRunner` runs.

    Takes the :class:`Job` parameters (``n_chunks`` is the partition
    target) and captures the run-level trace in the caller's context:
    the asyncio server invokes :meth:`handle_worker` from the event
    loop's own.
    """

    def __init__(
        self,
        model,
        metrics: Sequence[Metric],
        points: Sequence[Mapping[str, float]],
        *,
        n_chunks: int,
        done_rows: Optional[Dict[int, List[float]]] = None,
        done_errors: Optional[Dict[int, PointFailure]] = None,
        done_requeues: Optional[Dict[int, int]] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        wire_batching: bool = True,
    ) -> None:
        trace = obs.current_trace()
        super().__init__(trace=trace)
        self.job = Job(
            model,
            metrics,
            points,
            n_partitions=n_chunks,
            done_rows=done_rows,
            done_errors=done_errors,
            done_requeues=done_requeues,
            checkpoint=checkpoint,
            max_requeues=max_requeues,
            wire_batching=wire_batching,
            trace=trace,
        )
        self._jobs.append(self.job)
        self._note_queue_depth()

    @property
    def n_points(self) -> int:
        return len(self.job.points)

    @property
    def n_completed(self) -> int:
        """Rows done so far (including checkpointed and poisoned ones)."""
        return len(self.job.rows)

    def result_rows(
        self,
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """The merged ``index -> row`` / ``index -> failure`` maps."""
        return dict(self.job.rows), dict(self.job.errors)

    async def abort(self, exc: BaseException) -> None:
        """Fail the sweep: :meth:`wait` raises, workers get shut down."""
        await self.fail(exc, self.job)

    async def wait(self) -> None:
        """Block until every row is in (or the sweep failed), then send
        every worker ``shutdown``."""
        try:
            await self.wait_job(self.job)
        except Exception as exc:
            raise DistributedSweepError(
                f"distributed sweep failed with "
                f"{self.n_points - self.n_completed} of {self.n_points} "
                f"points unfinished: {exc}"
            ) from exc
        finally:
            await self.close()
