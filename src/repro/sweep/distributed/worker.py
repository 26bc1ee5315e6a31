"""Sweep workers: the solve side of the distributed fan-out.

A worker connects to a coordinator (same machine or across the network),
receives the sweep backend template once, then loops: take one
contiguous chunk of grid points and stream it back through the engine's
shared loop (:func:`~repro.sweep.engine.wire.stream_partition`) — warm
start reset at the chunk boundary, the same
:func:`~repro.sweep.engine.points.solve_point_row` plumbing as the
serial path, one ``row`` message per point, or (batch-capable backends,
protocol v2) one stacked ``solve_batch`` and one ``rows`` frame per
batch.  Per-point numerical failures become NaN rows with error
records, exactly like the serial runner; they never kill the worker.

Three ways to run one:

- ``repro-experiments worker --connect HOST:PORT`` — a separate process,
  possibly on another machine;
- :func:`launch_local_workers` — forked local processes (what
  ``sweep --distributed --shards N`` uses);
- ``asyncio.create_task(run_worker(...))`` — in-process, sharing the
  coordinator's event loop (tests and docs; no parallelism, full
  protocol).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import socket as socket_module
from typing import List, Optional, Tuple

from repro import obs
from repro.sweep.distributed.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.sweep.engine.wire import WorkerConfigError, stream_partition

__all__ = [
    "launch_local_workers",
    "launch_service_workers",
    "run_service_worker",
    "run_worker",
    "service_worker_main",
    "worker_main",
]

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
    """Serve one coordinator until it sends ``shutdown``.

    Returns the number of rows solved.  *die_after_rows* /
    *die_at_index* are fault-injection hooks for tests and benchmarks:
    the worker aborts its connection (RST, no goodbye — indistinguishable
    from a crash on the coordinator side) after streaming that many rows,
    or just before solving that global point index.

    *trace* is this worker's own :class:`repro.obs.Trace` (e.g. the one
    behind ``worker --trace FILE``); when the coordinator's template asks
    for telemetry and none is given, a fresh one is created.  Either way
    the worker installs it for the duration of the connection — never the
    ambient trace it may have inherited by fork or by sharing the
    coordinator's event loop, which would double-record segments that are
    also shipped over the wire.
    """
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
        template = await recv_message(reader)
        if template["kind"] == "reject":
            raise ConnectionError(
                f"coordinator rejected this worker: {template.get('message')}"
            )
        if template["kind"] != "template":
            raise ProtocolError(
                f"expected a template, got {template['kind']!r}"
            )
        ship_telemetry = bool(template.get("telemetry"))
        if ship_telemetry and trace is None:
            trace = obs.Trace("sweep-worker", worker=label)
        if trace is not None:
            obs_token = obs.activate(trace)
        # everything recorded past this cursor has not been shipped yet;
        # the first point's segment therefore also carries the one-time
        # template-preparation spans below
        cursor = trace.mark() if trace is not None else 0
        model = template["model"]
        metrics = template["metrics"]
        model.prepare()
        logger.info("worker %s ready (%s)", label, model.describe())
        should_die = None
        if die_after_rows is not None or die_at_index is not None:
            should_die = lambda index, sent: (  # noqa: E731
                die_after_rows is not None and sent >= die_after_rows
            ) or (die_at_index is not None and index == die_at_index)
        while True:
            message = await recv_message(reader)
            if message["kind"] == "shutdown":
                break
            if message["kind"] != "chunk":
                raise ProtocolError(
                    f"expected a chunk, got {message['kind']!r}"
                )
            try:
                rows_sent, cursor, died = await stream_partition(
                    writer,
                    model,
                    metrics,
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
                # place) — it would fail on every point and every
                # worker.  Report the diagnosis so the coordinator
                # aborts the sweep with it instead of watching the
                # whole fleet die one connection-reset at a time.
                # Worker-local failures (MemoryError, OSError…)
                # deliberately propagate instead: this worker dies
                # and the point is requeued to roomier survivors.
                await send_message(
                    writer,
                    {
                        "kind": "fatal",
                        "index": err.index,
                        "error_type": type(err.error).__name__,
                        "message": str(err.error),
                    },
                )
                return rows_sent
            if died:
                return rows_sent
            await send_message(
                writer, {"kind": "chunk_done", "chunk_id": message["chunk_id"]}
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


async def run_service_worker(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Serve one :class:`~repro.sweep.service.SweepService` until shutdown.

    The service-mode sibling of :func:`run_worker`: instead of one
    template and one sweep, this worker lives across many requests.  It
    keeps its own bounded LRU of prepared templates (capacity set by the
    service's ``welcome``), asks for a template it is missing with
    ``need_template`` (self-healing: a respawned worker starts empty and
    refills on demand), resets the warm start at every task boundary
    (tasks from different requests are unrelated grid regions), and
    streams ``telemetry``-before-``row`` per point exactly like the
    one-shot worker so the service merges each stored row's spans once.

    *die_after_rows* is the same fault-injection hook as on
    :func:`run_worker`: the connection is aborted (RST — indistinguishable
    from a crash) before solving the Nth row across all tasks.
    """
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
                "role": "service-worker",
            },
        )
        welcome = await recv_message(reader)
        if welcome["kind"] == "reject":
            raise ConnectionError(
                f"service rejected this worker: {welcome.get('message')}"
            )
        if welcome["kind"] != "welcome":
            raise ProtocolError(
                f"expected a welcome, got {welcome['kind']!r}"
            )
        ship_telemetry = bool(welcome.get("telemetry"))
        if ship_telemetry and trace is None:
            trace = obs.Trace("service-worker", worker=label)
        if trace is not None:
            obs_token = obs.activate(trace)
        cursor = trace.mark() if trace is not None else 0
        templates = LRUTemplates(int(welcome.get("capacity", 4)))
        logger.info("service worker %s ready", label)
        while True:
            message = await recv_message(reader)
            kind = message["kind"]
            if kind == "shutdown":
                break
            if kind == "template":
                # unsolicited pre-warm: prepare and cache it
                model = message["model"]
                model.prepare()
                templates.put(message["fingerprint"], model)
                continue
            if kind != "task":
                raise ProtocolError(f"expected a task, got {kind!r}")
            fingerprint = message["fingerprint"]
            model = templates.get(fingerprint)
            if model is None:
                await send_message(
                    writer,
                    {"kind": "need_template", "fingerprint": fingerprint},
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
                with obs.span(
                    "service.worker.template", fingerprint=fingerprint
                ):
                    model.prepare()
                templates.put(fingerprint, model)
            metrics = message["metrics"]
            # task boundary handled inside stream_partition: the previous
            # task may be another request entirely — never warm-start
            # across it
            try:
                rows_sent, cursor, died = await stream_partition(
                    writer,
                    model,
                    metrics,
                    message["indices"],
                    message["points"],
                    pointwise=bool(message.get("pointwise")),
                    trace=trace,
                    ship_telemetry=ship_telemetry,
                    cursor=cursor,
                    rows_sent=rows_sent,
                    should_die=(
                        (lambda index, sent: sent >= die_after_rows)
                        if die_after_rows is not None
                        else None
                    ),
                    fault_label=f"service worker {label}",
                )
            except WorkerConfigError as err:
                # configuration error: it belongs to this *request*,
                # not this worker.  Report it and stay alive for the
                # next task (the one-shot worker exits here instead).
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
                writer,
                {"kind": "task_done", "task_id": message["task_id"]},
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


def service_worker_main(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Synchronous entry point: serve one service until shutdown."""
    return asyncio.run(
        run_service_worker(host, port, die_after_rows=die_after_rows, trace=trace)
    )


def _service_worker_process_main(
    host: str, port: int, die_after_rows: Optional[int], hard_exit: bool
) -> None:
    try:
        rows = service_worker_main(host, port, die_after_rows=die_after_rows)
    except Exception as exc:  # the service requeues and respawns
        logger.warning("service worker failed: %s", exc)
        raise SystemExit(1)
    if die_after_rows is not None and hard_exit:
        os._exit(17)  # simulate a crash: no cleanup
    raise SystemExit(0)


def launch_service_workers(
    n: int,
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    die_worker: Optional[int] = None,
) -> List[multiprocessing.Process]:
    """Fork *n* persistent service workers pointed at ``host:port``.

    The service-mode sibling of :func:`launch_local_workers`; the fault
    hook arms worker *die_worker* (default: the first) to hard-exit after
    *die_after_rows* rows, which is how the fault-injection suite kills a
    shard mid-request deterministically.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    processes: List[multiprocessing.Process] = []
    for i in range(n):
        inject = die_after_rows if i == (die_worker or 0) else None
        process = ctx.Process(
            target=_service_worker_process_main,
            args=(host, port, inject, True),
            name=f"service-worker-{i}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes


def worker_main(
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    trace: Optional[obs.Trace] = None,
) -> int:
    """Synchronous entry point: run one worker to completion.

    What the ``repro-experiments worker`` subcommand and
    :func:`launch_local_workers` execute.  Returns the number of rows
    solved; connection failures propagate as ``ConnectionError``.
    """
    return asyncio.run(
        run_worker(host, port, die_after_rows=die_after_rows, trace=trace)
    )


def _worker_process_main(
    host: str, port: int, die_after_rows: Optional[int], hard_exit: bool
) -> None:
    try:
        rows = worker_main(host, port, die_after_rows=die_after_rows)
    except Exception as exc:  # worker processes die quietly, coordinator requeues
        logger.warning("sweep worker failed: %s", exc)
        raise SystemExit(1)
    if die_after_rows is not None and hard_exit:
        # simulate a crash for fault-injection benchmarks: no cleanup
        os._exit(17)
    raise SystemExit(0)


def launch_local_workers(
    n: int,
    host: str,
    port: int,
    *,
    die_after_rows: Optional[int] = None,
    die_worker: Optional[int] = None,
) -> List[multiprocessing.Process]:
    """Fork *n* local worker processes pointed at ``host:port``.

    Uses the ``fork`` start method when the platform has it (workers
    inherit the loaded interpreter — startup is milliseconds, not a full
    reimport) and falls back to ``spawn`` elsewhere.  *die_after_rows*
    arms the fault-injection hook on worker *die_worker* (default: the
    first) — that worker hard-exits mid-sweep, which is how the
    fault-tolerance benchmark kills a worker deterministically.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    processes: List[multiprocessing.Process] = []
    for i in range(n):
        inject = die_after_rows if i == (die_worker or 0) else None
        process = ctx.Process(
            target=_worker_process_main,
            args=(host, port, inject, True),
            name=f"sweep-worker-{i}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
