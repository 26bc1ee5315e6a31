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

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``hello``               w -> c     ``version``, ``worker`` (host:pid label)
``template``            c -> w     ``model`` (backend), ``metrics``, and
                                   ``telemetry`` (bool: the coordinator runs
                                   with tracing on; ship trace segments back)
``reject``              c -> w     ``message`` — handshake refused (e.g.
                                   protocol version mismatch)
``fatal``               w -> c     ``index``, ``error_type``, ``message`` —
                                   a configuration error; aborts the sweep
``chunk``               c -> w     ``chunk_id``, ``indices``, ``points`` —
                                   one *contiguous, axis-ordered* span;
                                   ``pointwise`` (bool) forces per-point
                                   framing on a batch-capable backend (the
                                   coordinator's retry downgrade)
``telemetry``           w -> c     ``index``, ``spans``, ``counters`` — the
                                   trace segment recorded while solving that
                                   point (only when the template asked for
                                   telemetry; sent *before* the point's
                                   ``row``, so a stored row always has its
                                   spans and a requeued one never
                                   double-counts them)
``row``                 w -> c     ``index``, ``values``, optional ``error``
                                   (a ``PointFailure``) — streamed per point
``rows``                w -> c     *(v2)* ``rows`` (a list of per-row
                                   ``{index, values, error}`` payloads),
                                   ``spans`` (per-point segments keyed by
                                   index), ``counters`` — one frame per
                                   stacked ``solve_batch``; the batched
                                   backend's answer to framing-bound
                                   sub-millisecond points
``chunk_done``          w -> c     ``chunk_id``
``shutdown``            c -> w     —
======================  =========  ==========================================

The always-on service (:mod:`repro.sweep.service`) speaks the same
framing on the same port and adds two message families on top.  Client
side (one connection may carry many request/reply cycles)::

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

Service-worker side (persistent shards; ``hello`` carries
``role: "service-worker"``)::

======================  =========  ==========================================
kind                    direction  payload
======================  =========  ==========================================
``welcome``             s -> w     ``version``, ``capacity`` (worker-side
                                   template-LRU size), ``telemetry``
``task``                s -> w     ``task_id``, ``fingerprint``, ``metrics``,
                                   ``indices``, ``points`` — one request's
                                   (remaining) grid points
``need_template``       w -> s     ``fingerprint`` — the worker's LRU does
                                   not hold this template; the service
                                   answers with a ``template`` message
``task_done``           w -> s     ``task_id``
======================  =========  ==========================================

``template``, ``telemetry``, ``row``, ``fatal``, and ``shutdown`` are
reused with one-shot semantics; ``template`` gains a ``fingerprint``
field on the service channel so a worker can key its local LRU.

Row framing comes in two granularities.  On a backend without batch
support, rows stream back *per point*: when a worker dies mid-chunk the
coordinator knows exactly which points of that chunk finished and
requeues only the unfinished suffix, blaming the in-flight point alone.
On a batch-capable backend (protocol v2), a worker solves each stacked
batch in one ``solve_batch`` call and ships one ``rows`` frame per
batch — sub-millisecond points stop paying two protocol messages each.
Worker death then loses at most one batch: the coordinator requeues the
whole unfinished remainder *without blaming anyone* and downgrades the
retry to pointwise framing (``chunk.pointwise``), so a genuinely
poisonous point is isolated and blamed by the per-point machinery on
the next attempt.  Both framings carry the same exactly-once telemetry:
span segments are keyed to their row (stashed until the row is stored),
so the merged run-level trace covers each stored row's solve exactly
once however many times the point was attempted.

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
#: v2 added the batched ``rows`` frame and the ``pointwise`` chunk flag.
PROTOCOL_VERSION = 2

#: Feature names this build speaks, advertised in the ``hello`` /
#: ``welcome`` handshake.  Capabilities travel *with* the version so a
#: rejected peer's operator sees what the other side wanted (e.g. an old
#: v1 ``worker --connect`` pointed at a batch-framing coordinator gets a
#: ``reject`` naming both versions and the missing ``rows`` capability,
#: not a mid-sweep frame error).
CAPABILITIES = ("rows",)

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
