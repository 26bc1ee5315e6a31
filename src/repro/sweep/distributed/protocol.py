"""Length-prefixed pickle framing for the coordinator/worker TCP channel.

Every message is one Python object (a ``dict`` with a ``"kind"`` key)
serialised with pickle and framed as an 8-byte big-endian length prefix
followed by the payload.  Pickle is what lets the coordinator ship the
*sweep backend template itself* — a prepared
:class:`~repro.sweep.backends.base.SweepBackend` — to every worker in one
message, exactly as the in-machine process pool does through its
initializer.

Message kinds
-------------

One worker dialect serves both kinds of daemon: a ``sweep --distributed``
coordinator and a ``serve --workers`` pool run the same dispatch session
(:class:`~repro.sweep.distributed.coordinator.JobQueue`), so a
``repro-experiments worker --connect`` process can join either.

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``hello``               w -> c     ``version``, ``capabilities``, ``worker``
                                   (host:pid label)
``welcome``             c -> w     ``version``, ``capacity`` (worker-side
                                   template-LRU size), ``telemetry`` (bool:
                                   the coordinator traces; ship trace
                                   segments back)
``reject``              c -> w     ``message`` — handshake refused (e.g.
                                   protocol version mismatch, naming both
                                   versions and the coordinator's
                                   capabilities)
``task``                c -> w     ``task_id``, ``fingerprint``, ``metrics``,
                                   ``indices``, ``points`` — one
                                   *contiguous, axis-ordered* partition of
                                   one job; ``pointwise`` (bool) forces
                                   per-point framing on a batch-capable
                                   backend (the coordinator's retry
                                   downgrade)
``need_template``       w -> c     ``fingerprint`` — the worker's LRU does
                                   not hold this job's template
``template``            c -> w     ``fingerprint``, ``model`` (the prepared
                                   backend), ``metrics`` — the answer to
                                   ``need_template``
``telemetry``           w -> c     ``index``, ``spans``, ``counters`` — the
                                   trace segment recorded while solving that
                                   point (only when ``welcome`` asked for
                                   telemetry; sent *before* the point's
                                   ``row``, so a stored row always has its
                                   spans and a requeued one never
                                   double-counts them)
``row``                 w -> c     ``index``, ``values``, optional ``error``
                                   (a ``PointFailure``) — streamed per point
``rows``                w -> c     ``rows`` (a list of per-row
                                   ``{index, values, error}`` payloads),
                                   ``spans`` (per-point segments keyed by
                                   index), ``counters`` — one frame per
                                   stacked ``solve_batch``; the batched
                                   backend's answer to framing-bound
                                   sub-millisecond points
``task_done``           w -> c     ``task_id`` — every row of the task sent
``fatal``               w -> c     ``index``, ``error_type``, ``message`` —
                                   a configuration error; it ends the task
                                   and fails its job, the worker stays up
                                   for the next task
``shutdown``            c -> w     —
======================  =========  ==========================================

The always-on service (:mod:`repro.sweep.service`) speaks the same
framing on the same port; its clients use one more message family (one
connection may carry many request/reply cycles)::

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``request``             cl -> s    ``op`` (``sweep``/``steady``/``lint``/
                                   ``ping``/``stats``), ``model`` spec,
                                   ``axes``, ``metrics``, optional ``id``
``result``              s -> cl    the op's reply (rows, errors, stats…)
``busy``                s -> cl    queue full (or ``draining: true``) —
                                   backpressure, not failure; retry later
``error``               s -> cl    ``message``, ``code``
                                   (``bad-request``/``worker``/``internal``)
======================  =========  ==========================================

Row framing comes in two granularities.  On a backend without batch
support, rows stream back *per point*: when a worker dies mid-task the
coordinator knows exactly which points of that partition finished and
requeues only the unfinished suffix, blaming the in-flight point alone.
On a batch-capable backend a worker solves each stacked batch in one
``solve_batch`` call and ships one ``rows`` frame per batch —
sub-millisecond points stop paying two protocol messages each.  Worker
death then loses at most one batch: the coordinator requeues the whole
unfinished remainder *without blaming anyone* and downgrades the retry
to pointwise framing (``task.pointwise``), so a genuinely poisonous
point is isolated and blamed by the per-point machinery on the next
attempt.  Both framings carry the same exactly-once telemetry: span
segments are keyed to their row (stashed until the row is stored), so
the merged run-level trace covers each stored row's solve exactly once
however many times the point was attempted.

.. warning::
   Pickle executes arbitrary code on load, so the channel is only as
   trustworthy as its peers.  The coordinator binds ``127.0.0.1`` by
   default; bind non-loopback addresses only on networks where every
   host is trusted (see ``docs/distributed.md``).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Dict

__all__ = [
    "CAPABILITIES",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "recv_message",
    "send_message",
]

#: Bumped on incompatible wire changes; the coordinator refuses
#: mismatched workers (with a ``reject`` message naming the versions).
#: v2 added the batched ``rows`` frame and the ``pointwise`` flag; v3
#: is the one worker dialect (``welcome``/``task``/``need_template``)
#: shared by the distributed coordinator and the service pool.
PROTOCOL_VERSION = 3

#: Feature names this build speaks, advertised in the ``hello`` /
#: ``welcome`` handshake.  Capabilities travel *with* the version so a
#: rejected peer's operator sees what the other side wanted (e.g. an old
#: v1 ``worker --connect`` pointed at a batch-framing coordinator gets a
#: ``reject`` naming both versions and this side's capabilities, not a
#: mid-sweep frame error).
CAPABILITIES = ("rows", "need_template")

#: Upper bound on one frame (a template for a very large state space is
#: tens of MB; a corrupted length prefix would otherwise ask for petabytes).
MAX_FRAME_BYTES = 1 << 31

_LEN = struct.Struct(">Q")


class ProtocolError(RuntimeError):
    """A peer sent a malformed or unexpected message."""


async def send_message(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Frame and send one message, draining the transport."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    writer.write(_LEN.pack(len(payload)) + payload)
    await writer.drain()


async def recv_message(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Receive one framed message.

    Raises
    ------
    asyncio.IncompleteReadError
        If the peer closed the connection (cleanly or not) mid-frame —
        the coordinator treats this as worker death.
    ProtocolError
        If the frame is oversized or does not decode to a ``dict`` with a
        ``"kind"`` key.
    """
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "limit (corrupt stream?)"
        )
    payload = await reader.readexactly(length)
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError(
            f"expected a message dict with a 'kind', got {type(message).__name__}"
        )
    return message
