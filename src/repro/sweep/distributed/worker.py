"""Sweep workers: the solve side of every wire path.

One worker loop (:func:`run_worker`) serves both kinds of daemon — a
``sweep --distributed`` coordinator and a ``serve --workers`` pool run
the same dispatch session.  A worker says ``hello``, gets a ``welcome``
(template-LRU capacity, telemetry on/off), then loops over ``task`` messages:
each is one contiguous partition of one job.  A template the worker's
LRU lacks is fetched with ``need_template``; the partition streams back
through the engine's shared loop
(:func:`~repro.sweep.engine.wire.stream_partition`) — the same
:func:`~repro.sweep.engine.points.solve_point_row` plumbing as the
serial path, one ``row`` message per point, or (batch-capable backends)
one stacked ``solve_batch`` and one ``rows`` frame per batch — and ends
with ``task_done``.  Per-point numerical failures become NaN rows with
error records, exactly like the serial runner; a configuration error is
reported as ``fatal`` and fails only its job.  Neither kills the worker.

Three ways to run one:

- ``repro-experiments worker --connect HOST:PORT`` — a separate process,
  possibly on another machine;
- :func:`launch_local_workers` — forked local processes (what
  ``sweep --distributed --shards N`` and ``serve --workers N`` use), or
  asyncio tasks sharing the coordinator's event loop (``mode="inline"``:
  tests and docs; no parallelism, full protocol).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import socket as socket_module
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.sweep.distributed.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.sweep.engine.wire import WorkerConfigError, stream_partition

__all__ = ["launch_local_workers", "run_worker", "worker_main"]

logger = logging.getLogger(__name__)

#: Connection schedule: the coordinator may still be binding when a
#: freshly forked worker first dials, so failed dials are retried with
#: capped exponential backoff until this many seconds have passed.
CONNECT_DEADLINE_S = 10.0
CONNECT_BACKOFF_S = (0.05, 1.0)  # first delay, cap


async def _connect(
    host: str, port: int
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + CONNECT_DEADLINE_S
    delay, cap = CONNECT_BACKOFF_S
    attempts = 0
    while True:
        attempts += 1
        try:
            # one dial never outlives the deadline (a black-holed SYN
            # would otherwise wait out the OS connect timeout)
            return await asyncio.wait_for(
                asyncio.open_connection(host, port),
                max(deadline - loop.time(), delay),
            )
        except (OSError, asyncio.TimeoutError) as exc:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                raise ConnectionError(
                    f"could not reach coordinator at {host}:{port} within "
                    f"{CONNECT_DEADLINE_S:g} s ({attempts} attempts): {exc}"
                ) from exc
            await asyncio.sleep(min(delay, remaining))
            delay = min(2.0 * delay, cap)


async def run_worker(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    die_at_index: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Serve one coordinator or service pool until it sends ``shutdown``.

    Returns the number of rows solved.  *die_after_rows* /
    *die_at_index* are fault-injection hooks for tests and benchmarks:
    the worker aborts its connection (RST, no goodbye — indistinguishable
    from a crash on the coordinator side) before solving its
    ``die_after_rows + 1``-th row across all tasks, or just before
    solving that point index.

    *trace* is this worker's own :class:`repro.obs.Trace` (e.g. the one
    behind ``worker --trace FILE``); when the ``welcome`` asks for
    telemetry and none is given, a fresh one is created.  Either way the
    worker installs it for the duration of the connection — never the
    ambient trace it may have inherited by fork or by sharing the
    coordinator's event loop, which would double-record segments that are
    also shipped over the wire.
    """
    # the service package imports this module (its pool launches
    # workers), so its LRU is imported here, not at module level
    from repro.sweep.service.template_cache import LRUTemplates

    reader, writer = await _connect(host, port)
    label = f"{socket_module.gethostname()}:{os.getpid()}"
    rows_sent = 0
    obs_token = None
    try:
        await send_message(
            writer,
            {
                "kind": "hello",
                "version": PROTOCOL_VERSION,
                "capabilities": list(CAPABILITIES),
                "worker": label,
            },
        )
        welcome = await recv_message(reader)
        if welcome["kind"] == "reject":
            raise ConnectionError(
                f"coordinator rejected this worker: {welcome.get('message')}"
            )
        if welcome["kind"] != "welcome":
            raise ProtocolError(f"expected a welcome, got {welcome['kind']!r}")
        ship_telemetry = bool(welcome.get("telemetry"))
        if ship_telemetry and trace is None:
            trace = obs.Trace("sweep-worker", worker=label)
        if trace is not None:
            obs_token = obs.activate(trace)
        # everything recorded past this cursor has not been shipped yet;
        # the first point after a template fetch therefore also carries
        # its preparation spans
        cursor = trace.mark() if trace is not None else 0
        templates = LRUTemplates(int(welcome.get("capacity", 4)))
        logger.info("worker %s ready", label)
        should_die = None
        if die_after_rows is not None or die_at_index is not None:
            should_die = lambda index, sent: (  # noqa: E731
                die_after_rows is not None and sent >= die_after_rows
            ) or (die_at_index is not None and index == die_at_index)
        while True:
            message = await recv_message(reader)
            if message["kind"] == "shutdown":
                break
            if message["kind"] != "task":
                raise ProtocolError(f"expected a task, got {message['kind']!r}")
            fingerprint = message["fingerprint"]
            model = templates.get(fingerprint)
            if model is None:
                await send_message(
                    writer, {"kind": "need_template", "fingerprint": fingerprint}
                )
                shipped = await recv_message(reader)
                if (
                    shipped["kind"] != "template"
                    or shipped.get("fingerprint") != fingerprint
                ):
                    raise ProtocolError(
                        f"expected the {fingerprint[:12]} template, got "
                        f"{shipped['kind']!r}"
                    )
                model = shipped["model"]
                with obs.span("service.worker.template", fingerprint=fingerprint):
                    model.prepare()
                templates.put(fingerprint, model)
            try:
                rows_sent, cursor, died = await stream_partition(
                    writer,
                    model,
                    message["metrics"],
                    message["indices"],
                    message["points"],
                    pointwise=bool(message.get("pointwise")),
                    trace=trace,
                    ship_telemetry=ship_telemetry,
                    cursor=cursor,
                    rows_sent=rows_sent,
                    should_die=should_die,
                    fault_label=f"worker {label}",
                )
            except WorkerConfigError as err:
                # a *configuration* error (bad metric spec, unknown
                # place) — it would fail on every point of this job on
                # every worker.  Report the diagnosis so the coordinator
                # fails the job with it, and stay up for the next task
                # (another job may be fine).  Worker-local failures
                # (MemoryError, OSError…) deliberately propagate instead:
                # this worker dies and the partition is requeued to
                # roomier survivors.
                await send_message(
                    writer,
                    {
                        "kind": "fatal",
                        "index": err.index,
                        "error_type": type(err.error).__name__,
                        "message": str(err.error),
                    },
                )
                continue
            if died:
                return rows_sent
            await send_message(
                writer, {"kind": "task_done", "task_id": message["task_id"]}
            )
    finally:
        if obs_token is not None:
            obs.deactivate(obs_token)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return rows_sent


def worker_main(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Synchronous entry point: run one worker to completion.

    What the ``repro-experiments worker`` subcommand executes.  Returns
    the number of rows solved; connection failures propagate as
    ``ConnectionError``.
    """
    return asyncio.run(
        run_worker(host, port, die_after_rows=die_after_rows, trace=trace)
    )


def _worker_process_main(host: str, port: int, hooks: Dict[str, int]) -> None:
    try:
        asyncio.run(run_worker(host, port, **hooks))
    except Exception as exc:  # worker processes die quietly, coordinator requeues
        logger.warning("sweep worker failed: %s", exc)
        raise SystemExit(1)
    if hooks:
        # simulate a crash for fault-injection runs: no cleanup
        os._exit(17)
    raise SystemExit(0)


def _fault_hooks(fault: Mapping[str, int], i: int) -> Dict[str, int]:
    """The fault-injection hooks worker *i* of a launch is armed with.

    ``fault["die_worker"]`` picks the armed worker (default 0; ``-1``
    arms every one) and ``die_after_rows`` / ``die_at_index`` are passed
    to :func:`run_worker`.
    """
    if fault.get("die_worker", 0) not in (i, -1):
        return {}
    return {
        key: fault[key] for key in ("die_after_rows", "die_at_index") if key in fault
    }


def launch_local_workers(
    n: int,
    host: str,
    port: int,
    *,
    mode: str = "process",
    fault: Optional[Mapping[str, int]] = None,
) -> List[Any]:
    """Start *n* local workers pointed at ``host:port``.

    ``mode="process"`` forks worker processes (returned as
    :class:`multiprocessing.Process`), using the ``fork`` start method
    when the platform has it (workers inherit the loaded interpreter —
    startup is milliseconds, not a full reimport) and ``spawn``
    elsewhere; an armed process hard-exits once its worker returns.
    ``mode="inline"`` runs them as asyncio tasks on the running loop
    (returned as :class:`asyncio.Task`).  *fault* arms the
    fault-injection hooks (see :func:`_fault_hooks`) the same way in both
    modes.
    """
    fault = fault or {}
    if mode == "inline":
        return [
            asyncio.create_task(run_worker(host, port, **_fault_hooks(fault, i)))
            for i in range(n)
        ]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    processes: List[multiprocessing.Process] = []
    for i in range(n):
        process = ctx.Process(
            target=_worker_process_main,
            args=(host, port, _fault_hooks(fault, i)),
            name=f"sweep-worker-{i}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
