"""Request/response vocabulary of the sweep service.

A service request is *data* — plain JSON-compatible types only, never
code — so the same payload travels identically over the pickle channel
and the HTTP/JSON front end::

    {"op": "sweep",
     "model": {"kind": "gspn", "net": "mm1k", "buffer": 20},
     "axes": ["arrive=0.2:1.8:8"],
     "metrics": ["mean_tokens:queue"],
     "id": "client-7"}

Ops: ``sweep`` (grid solve), ``steady`` (one point at base parameters),
``lint`` (structural verification of a demo net), ``ping`` and ``stats``
(health/introspection; never queued).

:func:`~repro.sweep.spec.canonical_model_spec` normalises the ``model``
spec — defaults filled in, axis aliases resolved, numeric types pinned;
the spec vocabulary lives in :mod:`repro.sweep.spec`, and this module
re-exports it — and :func:`parse_request` turns a payload into a
validated :class:`ServiceRequest` whose ``fingerprint``
(:func:`~repro.sweep.service.template_cache.spec_fingerprint` of the
canonical spec) keys the template cache.  Anything malformed raises
:class:`RequestError`, which the server maps to an ``error`` reply /
HTTP 400 — never a traceback, never a dead event loop.
"""

from __future__ import annotations

import math
import pickle
import socket
import struct
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.sweep.grid import SweepGrid
from repro.sweep.nets import DEMO_NETS
from repro.sweep.results import PointFailure
from repro.sweep.service.template_cache import spec_fingerprint
from repro.sweep.spec import (
    MODEL_KINDS,
    REQUEST_OPS,
    RequestError,
    build_backend,
    canonical_model_spec,
    default_metrics,
    optional_int,
)
from repro.verify.diagnostics import LINT_LEVELS

__all__ = [
    "MODEL_KINDS",
    "REQUEST_OPS",
    "RequestError",
    "ServiceRequest",
    "build_backend",
    "canonical_model_spec",
    "default_metrics",
    "parse_request",
    "recv_frame",
    "request_over_socket",
    "send_frame",
    "solve_response",
]


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------


class ServiceRequest:
    """One validated request, ready for execution."""

    __slots__ = (
        "op",
        "id",
        "model",
        "fingerprint",
        "metrics",
        "axis_names",
        "points",
        "lint_net",
        "lint_level",
        "lint_max_markings",
    )

    def __init__(self, op: str, request_id: Any = None):
        self.op = op
        self.id = request_id
        self.model: Optional[Dict[str, Any]] = None
        self.fingerprint: Optional[str] = None
        self.metrics: List[str] = []
        self.axis_names: List[str] = []
        self.points: List[Dict[str, float]] = []
        self.lint_net: Optional[str] = None
        self.lint_level: str = "standard"
        self.lint_max_markings: Optional[int] = None


_TOP_LEVEL_KEYS = {
    "kind", "version", "id", "op", "model", "axes", "metrics",
    "net", "level", "max_markings",
}


def parse_request(payload: Any) -> ServiceRequest:
    """Validate a request payload into a :class:`ServiceRequest`.

    Raises :class:`RequestError` on anything malformed — unknown op,
    unknown keys, bad axes, non-string metrics — with a message that
    names the offending piece.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(
            f"request must be a mapping, got {type(payload).__name__}"
        )
    unknown = sorted(set(map(str, payload)) - _TOP_LEVEL_KEYS)
    if unknown:
        raise RequestError(
            f"unknown request key(s) {unknown} "
            f"(allowed: {sorted(_TOP_LEVEL_KEYS)})"
        )
    op = payload.get("op")
    if op not in REQUEST_OPS:
        raise RequestError(
            f"unknown op {op!r} (have: {list(REQUEST_OPS)})"
        )
    request = ServiceRequest(op, payload.get("id"))
    if op in ("ping", "stats"):
        return request
    if op == "lint":
        net = payload.get("net")
        if net not in DEMO_NETS:
            raise RequestError(
                f"lint needs a 'net' in {sorted(DEMO_NETS)}, got {net!r}"
            )
        level = payload.get("level", "standard")
        if level not in LINT_LEVELS:
            raise RequestError(
                f"lint level must be {'/'.join(LINT_LEVELS)}, got {level!r}"
            )
        max_markings = optional_int(payload.get("max_markings"), "max_markings")
        if max_markings is not None and level != "deep":
            raise RequestError("max_markings applies only to level 'deep'")
        request.lint_net = net
        request.lint_level = level
        request.lint_max_markings = max_markings
        return request
    # sweep / steady
    request.model = canonical_model_spec(payload.get("model") or {})
    request.fingerprint = spec_fingerprint(request.model)
    metrics = payload.get("metrics")
    if metrics is None:
        request.metrics = default_metrics(request.model)
    else:
        if isinstance(metrics, str) or not isinstance(metrics, Sequence):
            raise RequestError("metrics must be a list of metric spec strings")
        if not metrics or not all(isinstance(m, str) for m in metrics):
            raise RequestError(
                "metrics must be a non-empty list of strings (service "
                "requests are data — callables cannot travel)"
            )
        if len(set(metrics)) != len(metrics):
            raise RequestError(f"duplicate metric names: {list(metrics)}")
        request.metrics = list(metrics)
    axes = payload.get("axes")
    if op == "steady":
        if axes is not None:
            raise RequestError(
                "steady takes no axes (use op 'sweep' for grids)"
            )
        request.points = [{}]
        return request
    if axes is None:
        raise RequestError("sweep needs 'axes' (list of NAME=VALUES specs)")
    try:
        if isinstance(axes, Mapping):
            grid = SweepGrid(
                {str(k): [float(v) for v in vs] for k, vs in axes.items()}
            )
        elif isinstance(axes, Sequence) and not isinstance(axes, str):
            if not all(isinstance(a, str) for a in axes):
                raise RequestError(
                    "axes list entries must be NAME=VALUES spec strings"
                )
            grid = SweepGrid.from_specs(list(axes))
        else:
            raise RequestError(
                "axes must be a list of NAME=VALUES specs or a "
                "name -> values mapping"
            )
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from exc
    request.axis_names = grid.names
    request.points = [dict(p) for p in grid.points()]
    return request


# --------------------------------------------------------------------------
# responses
# --------------------------------------------------------------------------


def solve_response(
    request: ServiceRequest,
    rows: Mapping[int, Sequence[float]],
    errors: Mapping[int, PointFailure],
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble a ``result`` reply for a sweep/steady request.

    *rows*/*errors* are keyed by point index; a missing index becomes an
    all-NaN row with a ``stage="merge"`` error record (same semantics as
    :meth:`repro.sweep.results.SweepResult.assemble`).
    """
    n = len(request.points)
    err_map: Dict[int, PointFailure] = dict(errors)
    table: List[List[float]] = []
    for i in range(n):
        row = rows.get(i)
        if row is None:
            row = [math.nan] * len(request.metrics)
            err_map.setdefault(
                i,
                PointFailure(
                    index=i,
                    point={k: float(v) for k, v in request.points[i].items()},
                    stage="merge",
                    error_type="MissingRow",
                    message="no result row was produced for this point",
                ),
            )
        table.append([float(v) for v in row])
    reply: Dict[str, Any] = {
        "kind": "result",
        "op": request.op,
        "id": request.id,
        "fingerprint": request.fingerprint,
        "metric_names": list(request.metrics),
        "errors": [err_map[i].to_dict() for i in sorted(err_map)],
        **extra,
    }
    if request.op == "steady":
        reply["values"] = dict(zip(request.metrics, table[0]))
    else:
        reply["axis_names"] = list(request.axis_names)
        reply["points"] = [dict(p) for p in request.points]
        reply["rows"] = table
    return reply


# --------------------------------------------------------------------------
# synchronous client helpers (CLI, tests, docs)
# --------------------------------------------------------------------------

_LEN = struct.Struct(">Q")


def send_frame(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Send one length-prefixed pickle frame (sync mirror of the
    asyncio :func:`~repro.sweep.distributed.protocol.send_message`)."""
    payload = pickle.dumps(dict(message), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("service closed the connection mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Receive one length-prefixed pickle frame (sync)."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    message = pickle.loads(_recv_exact(sock, length))
    if not isinstance(message, dict) or "kind" not in message:
        raise ConnectionError(
            f"expected a reply dict with a 'kind', got {type(message).__name__}"
        )
    return message


def request_over_socket(
    host: str,
    port: int,
    payload: Mapping[str, Any],
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """One request/reply cycle over the pickle channel (sync, blocking)."""
    from repro.sweep.distributed.protocol import PROTOCOL_VERSION

    message = {"kind": "request", "version": PROTOCOL_VERSION, **payload}
    with socket.create_connection((host, port), timeout=timeout) as sock:
        send_frame(sock, message)
        return recv_frame(sock)
