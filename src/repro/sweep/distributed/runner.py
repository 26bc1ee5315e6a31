"""`DistributedSweepRunner`: the sharded coordinator/worker sweep path.

A drop-in sibling of :class:`~repro.sweep.runner.SweepRunner` (same
constructor contract, same :meth:`run` signature and result table) that
submits the grid as one job of contiguous, axis-ordered partitions to
an asyncio TCP job queue instead of a process pool:

>>> from repro.sweep import SweepGrid, build_mm1k_net
>>> from repro.sweep.distributed import DistributedSweepRunner
>>> runner = DistributedSweepRunner(
...     build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
...     worker_mode="inline",
... )
>>> result = runner.run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))
>>> len(result)
3

Worker modes:

- ``"process"`` (default) — fork ``n_shards`` local worker processes;
  the zero-config way to use every core of one machine.
- ``"inline"`` — run the workers as asyncio tasks inside this process:
  no parallelism, full wire protocol (tests, docs, debugging).
- external — set ``n_shards=0`` and point
  ``repro-experiments worker --connect HOST:PORT`` processes (any
  machine that can reach the bind address) at :attr:`address`; the
  coordinator hands partitions to whoever connects.

The merged table is ordered exactly like the serial runner's and is
bit-identical to it: every point's solve depends on that point alone,
so how the grid is partitioned never shows in the rows.  A checkpoint
file makes interrupted sweeps resumable — see
:mod:`repro.sweep.distributed.checkpoint`.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.petri.analysis import ReachabilityOptions
from repro.petri.net import PetriNet
from repro.sweep.backends import SweepBackend
from repro.sweep.backends.base import Metric
from repro.sweep.distributed.checkpoint import SweepCheckpoint
from repro.sweep.distributed.coordinator import (
    DEFAULT_MAX_REQUEUES,
    DistributedSweepError,
    SweepCoordinator,
)
from repro.sweep.distributed.worker import launch_local_workers
from repro.sweep.results import PointFailure, SweepResult
from repro.sweep.runner import (
    CHUNKS_PER_WORKER,
    SweepRunner,
    solve_missing_rows,
)

__all__ = ["DistributedSweepRunner"]

logger = logging.getLogger(__name__)

#: Supervisor poll interval (worker-process liveness checks).
_SUPERVISE_INTERVAL = 0.1


class DistributedSweepRunner(SweepRunner):
    """Shard a sweep grid over TCP-connected workers.

    Parameters
    ----------
    model, metrics, options, preflight:
        Exactly as :class:`~repro.sweep.runner.SweepRunner`.
    n_shards:
        Local workers to launch (``worker_mode`` decides how).  ``0``
        launches none and waits for external ``repro-experiments worker``
        processes to connect to :attr:`address`.
    worker_mode:
        ``"process"`` (forked local processes) or ``"inline"`` (asyncio
        tasks in this process; no parallelism, full protocol).
    host, port:
        Bind address of the coordinator (default loopback, ephemeral
        port).  Bind a routable address to accept workers from other
        machines — on trusted networks only (the channel ships pickles).
    checkpoint:
        Path to a row-level journal; when it exists and matches this
        sweep, completed rows are skipped and the file is appended to.
    n_chunks:
        Total partition target (default ``4 * n_shards``, or 16 with
        external workers).
    max_requeues:
        Times one point may kill a worker and be retried before it is
        poisoned (NaN row + error record); default 2.  Blame counts are
        journalled to the checkpoint, so a point that deterministically
        crashes workers converges to a poison verdict across resumes
        even when each run loses its whole fleet to it.
    wire_batching:
        ``False`` forces per-point wire framing (and per-point solves)
        even on a batch-capable backend — the pre-v2 behaviour, kept as
        the baseline for ``benchmarks/bench_wire_batching.py``.
    """

    def __init__(
        self,
        model: Union[PetriNet, SweepBackend],
        metrics: Sequence[Metric],
        options: ReachabilityOptions = ReachabilityOptions(),
        preflight: bool = True,
        *,
        n_shards: int = 2,
        worker_mode: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint: Optional[Union[str, Path]] = None,
        n_chunks: Optional[int] = None,
        max_requeues: Optional[int] = None,
        wire_batching: bool = True,
        _fault_injection: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(
            model,
            metrics,
            options=options,
            preflight=preflight,
        )
        if n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {n_shards}")
        if worker_mode not in ("process", "inline"):
            raise ValueError(
                f"worker_mode must be 'process' or 'inline', got {worker_mode!r}"
            )
        if n_shards == 0 and port == 0 and worker_mode == "process":
            # external workers need a knowable port; an ephemeral one is
            # printed from .address, so this is allowed — just surprising
            logger.info(
                "n_shards=0: waiting for external workers; read .address "
                "for the ephemeral port"
            )
        self.n_shards = n_shards
        self.worker_mode = worker_mode
        self.checkpoint_path = Path(checkpoint) if checkpoint else None
        self.n_chunks = n_chunks
        self.max_requeues = max_requeues
        self.wire_batching = wire_batching
        self._fault_injection = _fault_injection or {}
        self._sock: Optional[socket.socket] = None
        self._host = host
        self._port = port
        self._bound_address: Optional[Tuple[str, int]] = None
        self._bind()

    # ------------------------------------------------------------------ #
    # socket lifecycle: bound eagerly so .address is printable before run
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        sock.setblocking(False)
        self._sock = sock
        self._bound_address = sock.getsockname()[:2]

    def _close_sock(self) -> None:
        """Release the listening socket on paths that never serve it."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def close(self) -> None:
        """Release the coordinator's listening socket (idempotent).

        A runner binds its port eagerly so :attr:`address` is printable
        before :meth:`run`; call this (or use the runner as a context
        manager) when a constructed runner will not be run after all.
        """
        self._close_sock()

    def __enter__(self) -> "DistributedSweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The coordinator's bound ``(host, port)``.

        After a run (the event loop consumed the socket) this keeps
        answering with the address workers actually used — it never
        binds a fresh port as a side effect of being read.
        """
        if self._sock is None and self._bound_address is None:
            self._bind()
        if self._sock is not None:
            return self._sock.getsockname()[:2]
        return self._bound_address

    # ------------------------------------------------------------------ #
    # execution (replaces the serial/pool strategies of the base class)
    # ------------------------------------------------------------------ #
    def run(self, grid) -> "SweepResult":
        try:
            return super().run(grid)
        except BaseException:
            # never leak the bound port past a failed run — including
            # validation errors (bad axes, empty grid) raised by the
            # base class before _execute is entered
            self._close_sock()
            raise

    def _execute(
        self, axis_names: Sequence[str], points: Sequence[Mapping[str, float]]
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        done_rows: Dict[int, List[float]] = {}
        done_errors: Dict[int, PointFailure] = {}
        done_requeues: Dict[int, int] = {}
        checkpoint: Optional[SweepCheckpoint] = None
        if self.checkpoint_path is not None:
            checkpoint = SweepCheckpoint(self.checkpoint_path)
            done_rows, done_errors, done_requeues = checkpoint.load(
                axis_names, self.metric_names, points, model=self.model
            )
            if done_rows:
                logger.info(
                    "checkpoint %s: resuming with %d of %d rows done",
                    self.checkpoint_path,
                    len(done_rows),
                    len(points),
                )

        if len(done_rows) == len(points):
            self._close_sock()
            rows_map, err_map = done_rows, done_errors
        elif not self._template_ships():
            # cannot fan out; solve the remaining points here, still
            # honouring (and appending to) the checkpoint
            self._close_sock()
            logger.warning(
                "solving %d of %d points serially instead",
                len(points) - len(done_rows),
                len(points),
            )
            rows_map, err_map = self._serial_fill(
                axis_names, points, done_rows, done_errors, checkpoint,
                has_state=bool(done_rows or done_requeues),
            )
        else:
            workers_hint = self.n_shards if self.n_shards > 0 else 4
            n_chunks = (
                self.n_chunks
                if self.n_chunks is not None
                else CHUNKS_PER_WORKER * workers_hint
            )
            coordinator = SweepCoordinator(
                self.model,
                self.metrics,
                points,
                n_chunks=n_chunks,
                done_rows=done_rows,
                done_errors=done_errors,
                done_requeues=done_requeues,
                checkpoint=checkpoint,
                max_requeues=(
                    self.max_requeues
                    if self.max_requeues is not None
                    else DEFAULT_MAX_REQUEUES
                ),
                wire_batching=self.wire_batching,
            )
            if checkpoint is not None:
                checkpoint.open_for_append(
                    axis_names, self.metric_names, points,
                    has_state=bool(done_rows or done_requeues),
                    model=self.model,
                )
            try:
                rows_map, err_map = self._fan_out(coordinator, points)
            finally:
                if checkpoint is not None:
                    checkpoint.close()

        rows = [rows_map[i] for i in range(len(points))]
        return rows, [err_map[i] for i in sorted(err_map)]

    def _serial_fill(
        self,
        axis_names: Sequence[str],
        points: Sequence[Mapping[str, float]],
        done_rows: Dict[int, List[float]],
        done_errors: Dict[int, PointFailure],
        checkpoint: Optional[SweepCheckpoint],
        has_state: bool,
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        """Solve the unfinished points in this process, journalling each."""
        rows_map = dict(done_rows)
        err_map = dict(done_errors)
        trace = obs.current_trace()
        if trace is not None and rows_map:
            # checkpoint-resumed rows count as completed, matching the
            # coordinator path, so progress starts at the resumed offset
            trace.incr("sweep.rows.completed", len(rows_map))
            resumed_failed = sum(1 for i in err_map if i in rows_map)
            if resumed_failed:
                trace.incr("sweep.rows.failed", resumed_failed)
        if checkpoint is not None:
            checkpoint.open_for_append(
                axis_names,
                self.metric_names,
                points,
                has_state=has_state,
                model=self.model,
            )
        try:
            missing = [i for i in range(len(points)) if i not in rows_map]
            for index, row, failure in solve_missing_rows(
                self.model, self.metrics, points, missing
            ):
                rows_map[index] = row
                if failure is not None:
                    err_map[failure.index] = failure
                if checkpoint is not None:
                    checkpoint.append_row(index, row, failure)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        return rows_map, err_map

    def _fan_out(
        self,
        coordinator: SweepCoordinator,
        points: Sequence[Mapping[str, float]],
    ) -> Tuple[Dict[int, List[float]], Dict[int, PointFailure]]:
        if self._sock is None:
            # a previous run consumed the socket; rebind for this one
            self._bind()
        host, port = self._sock.getsockname()[:2]
        processes = []
        if self.n_shards > 0 and self.worker_mode == "process":
            # fork before any event loop exists in this process
            processes = launch_local_workers(
                self.n_shards, host, port, fault=self._fault_injection
            )
        try:
            asyncio.run(self._serve(coordinator, processes))
        finally:
            self._cleanup_processes(processes)
            # the listening socket is consumed by the event loop; rebind
            # lazily if this runner is reused
            self._sock = None
        return coordinator.result_rows()

    async def _serve(self, coordinator: SweepCoordinator, processes) -> None:
        server = await asyncio.start_server(
            coordinator.handle_worker, sock=self._sock
        )
        host, port = self.address
        worker_tasks: List[asyncio.Task] = []
        if self.n_shards > 0 and self.worker_mode == "inline":
            worker_tasks = launch_local_workers(
                self.n_shards, host, port, mode="inline",
                fault=self._fault_injection,
            )
        supervisor = asyncio.create_task(
            self._supervise(coordinator, processes, worker_tasks)
        )
        kill_task: Optional[asyncio.Task] = None
        if "kill_worker_after_rows" in self._fault_injection and processes:
            kill_task = asyncio.create_task(
                self._kill_injector(coordinator, processes)
            )
        try:
            await coordinator.wait()
            await coordinator.drain()
        finally:
            for task in [supervisor, kill_task, *worker_tasks]:
                if task is not None:
                    task.cancel()
            for task in [supervisor, kill_task, *worker_tasks]:
                if task is not None:
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
            server.close()
            await server.wait_closed()

    async def _supervise(
        self,
        coordinator: SweepCoordinator,
        processes,
        worker_tasks: List[asyncio.Task],
    ) -> None:
        """Abort the sweep when every worker is gone for good.

        Only watches workers this runner launched; with external workers
        (``n_shards=0``) the coordinator waits for connections
        indefinitely — interrupt it, then resume from the checkpoint.
        """
        if self.n_shards == 0:
            return
        while True:
            await asyncio.sleep(_SUPERVISE_INTERVAL)
            if self.worker_mode == "process":
                any_alive = any(p.is_alive() for p in processes)
            else:
                any_alive = any(not t.done() for t in worker_tasks)
            if not any_alive and coordinator.n_connected == 0:
                unfinished = coordinator.n_points - coordinator.n_completed
                if unfinished > 0:
                    await coordinator.abort(
                        DistributedSweepError(
                            f"all {self.n_shards} local worker(s) exited; "
                            f"{unfinished} point(s) never completed"
                        )
                    )
                return

    async def _kill_injector(self, coordinator: SweepCoordinator, processes) -> None:
        """Fault injection: SIGKILL one worker once N rows are in."""
        threshold = self._fault_injection["kill_worker_after_rows"]
        victim = processes[self._fault_injection.get("kill_worker", 0)]
        while coordinator.n_completed < threshold:
            await asyncio.sleep(0.02)
        if victim.is_alive():
            logger.warning(
                "fault injection: killing worker %s after %d rows",
                victim.name,
                coordinator.n_completed,
            )
            victim.kill()

    @staticmethod
    def _cleanup_processes(processes) -> None:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    def describe_fanout(self) -> str:
        """One-line footer for the CLI."""
        if self.n_shards == 0:
            host, port = self._bound_address or (self._host, self._port)
            return f"external workers via {host}:{port}"
        kind = "process" if self.worker_mode == "process" else "inline"
        suffix = (
            f", checkpoint {self.checkpoint_path}" if self.checkpoint_path else ""
        )
        return f"{self.n_shards} local {kind} worker(s){suffix}"
