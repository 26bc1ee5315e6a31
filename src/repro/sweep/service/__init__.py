"""Always-on sweep service: a persistent solver daemon.

One-shot sweeps (`repro-experiments sweep`) pay the rate-independent
preparation — reachability exploration, stage expansion, symbolic
factorisation — on every invocation.  The service pays it once per
*model*: a daemon (`repro-experiments serve`) keeps prepared backend
templates in a bounded LRU keyed by spec fingerprint and answers
sweep/steady/lint requests over the distributed layer's pickle framing
and a dependency-free HTTP/JSON front end, with bounded admission
(backpressure as ``busy``/429 replies), optional persistent worker
shards that are respawned when they die, and graceful SIGTERM drain.

See ``docs/service.md`` for the lifecycle, the fingerprint/LRU
contract, and the HTTP API.
"""

from repro.sweep.service.admission import (
    AdmissionController,
    ServiceBusyError,
    ServiceDrainingError,
)
from repro.sweep.service.pool import ServiceWorkerError, WorkerPool
from repro.sweep.service.server import SweepService
from repro.sweep.service.session import (
    RequestError,
    build_backend,
    canonical_model_spec,
    default_metrics,
    parse_request,
    request_over_socket,
    solve_response,
)
from repro.sweep.service.template_cache import (
    LRUTemplates,
    TemplateCache,
    spec_fingerprint,
)

__all__ = [
    "AdmissionController",
    "LRUTemplates",
    "RequestError",
    "ServiceBusyError",
    "ServiceDrainingError",
    "ServiceWorkerError",
    "SweepService",
    "TemplateCache",
    "WorkerPool",
    "build_backend",
    "canonical_model_spec",
    "default_metrics",
    "parse_request",
    "request_over_socket",
    "solve_response",
    "spec_fingerprint",
]
