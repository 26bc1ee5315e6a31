"""Prepared-template LRU for the sweep service.

The expensive half of every request is rate-independent: exploring a
GSPN's reachability graph, stage-expanding the phase-type chain, running
the symbolic factorisation.  The service pays it once per *model*, not
once per request, by caching prepared
:class:`~repro.sweep.backends.base.SweepBackend` instances keyed by a
**spec fingerprint** — the SHA-256 of the canonical model spec (see
:func:`repro.sweep.spec.canonical_model_spec`).

Collision-impossibility is by construction, not by luck: the canonical
spec carries *every* size- and solver-relevant field with its default
filled in and its type normalised (ints stay ints, rates become floats,
mappings sort their keys), so two requests differing in ``--buffer`` or
``--stages`` always serialise to different canonical JSON and therefore
different fingerprints; identical requests written differently (key
order, ``20`` vs ``20.0`` for a float field) collapse to the same one.

Two layers:

- :class:`LRUTemplates` — a plain synchronous bounded LRU with
  hit/miss/eviction accounting.  Used directly by the persistent service
  workers (their side of the cache) and property-tested by hypothesis.
- :class:`TemplateCache` — the service's asyncio wrapper adding
  **single-flight preparation**: concurrent requests for the same
  missing fingerprint share one build (the explore/stage-expand runs in
  a thread exactly once; everyone else awaits the same future).  The
  build records its spans into a private trace and the segment is merged
  into the service trace once, on the event loop — which is what makes
  the ``prepare.explore`` span count == 1 assertion of the concurrency
  tests well-defined.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs

__all__ = ["LRUTemplates", "TemplateCache", "TemplateEntry", "spec_fingerprint"]


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON serialisation of a model spec.

    *spec* must already be canonical (plain JSON types, defaults filled
    in — :func:`~repro.sweep.spec.canonical_model_spec`); the
    hash is over ``json.dumps(..., sort_keys=True)`` so key order never
    matters and every field always contributes.
    """
    payload = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class LRUTemplates:
    """A bounded least-recently-used map with usage accounting.

    ``get`` counts a hit (and refreshes recency) or a miss; ``put``
    inserts/updates (refreshing recency) and evicts the least recently
    *used* entries beyond ``capacity``, returning what it dropped.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def keys(self) -> List[str]:
        """Fingerprints, least recently used first."""
        return list(self._entries)

    def get(self, fingerprint: str) -> Optional[Any]:
        try:
            value = self._entries[fingerprint]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return value

    def put(self, fingerprint: str, value: Any) -> List[str]:
        """Insert/update; returns the fingerprints evicted (possibly [])."""
        self._entries[fingerprint] = value
        self._entries.move_to_end(fingerprint)
        evicted: List[str] = []
        while len(self._entries) > self.capacity:
            dropped, _ = self._entries.popitem(last=False)
            evicted.append(dropped)
            self.evictions += 1
        return evicted

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TemplateEntry:
    """One cached, prepared backend plus its serialisation lock.

    ``lock`` serialises solve *flights* on the same template (a backend
    instance makes no promise of being safe for concurrent solves).  In
    inline mode the
    :class:`~repro.sweep.service.batching.MicroBatcher` holds it per
    flight, so concurrent same-template requests coalesce into one
    locked stacked solve instead of queueing one solve each; requests
    for *different* templates run concurrently as before.
    """

    __slots__ = ("fingerprint", "backend", "lock", "prepare_s", "uses")

    def __init__(self, fingerprint: str, backend: Any, prepare_s: float):
        self.fingerprint = fingerprint
        self.backend = backend
        self.lock = asyncio.Lock()
        self.prepare_s = prepare_s
        self.uses = 0


class TemplateCache:
    """Asyncio front of :class:`LRUTemplates` with single-flight builds."""

    def __init__(self, capacity: int) -> None:
        self._lru = LRUTemplates(capacity)
        self._preparing: Dict[str, "asyncio.Future[TemplateEntry]"] = {}
        self.shared = 0  # requests that piggybacked on an in-flight build
        self.builds = 0  # builds actually run (the "explored once" number)

    def __len__(self) -> int:
        return len(self._lru)

    async def get_or_prepare(
        self, fingerprint: str, builder: Callable[[], Any]
    ) -> Tuple[TemplateEntry, bool]:
        """Return ``(entry, hit)`` for *fingerprint*, building at most once.

        *builder* constructs the backend; it runs (and ``prepare()``s) in
        a worker thread.  Concurrent callers with the same fingerprint
        await the same build.  Builder exceptions propagate to every
        waiter and nothing is cached.
        """
        entry = self._lru.get(fingerprint)
        if entry is not None:
            obs.incr("service.cache.hits")
            entry.uses += 1
            return entry, True
        pending = self._preparing.get(fingerprint)
        if pending is not None:
            self.shared += 1
            obs.incr("service.cache.shared")
            entry = await pending
            entry.uses += 1
            return entry, True
        obs.incr("service.cache.misses")
        self.builds += 1
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[TemplateEntry]" = loop.create_future()
        self._preparing[fingerprint] = future
        try:
            t0 = time.perf_counter()
            backend, segment = await asyncio.to_thread(
                _build_in_thread, builder
            )
            prepare_s = time.perf_counter() - t0
            trace = obs.current_trace()
            if trace is not None and segment is not None:
                # merged here, on the event loop, exactly once per build
                trace.merge_segment(**segment)
            entry = TemplateEntry(fingerprint, backend, prepare_s)
            for _ in self._lru.put(fingerprint, entry):
                obs.incr("service.cache.evictions")
            obs.gauge("service.cache.size", len(self._lru))
            future.set_result(entry)
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # co-waiters re-raise; avoid the unretrieved log
            raise
        finally:
            self._preparing.pop(fingerprint, None)
        entry.uses += 1
        return entry, False

    def stats(self) -> Dict[str, int]:
        """LRU counters plus the cache's own.

        ``misses`` counts raw LRU lookups that came up empty (a request
        that piggybacks on an in-flight build still logs one); ``builds``
        counts preparations actually run — the number that must equal
        one however many concurrent clients ask for the same model.
        """
        stats = self._lru.stats()
        stats["builds"] = self.builds
        stats["shared"] = self.shared
        stats["preparing"] = len(self._preparing)
        return stats


def _build_in_thread(builder: Callable[[], Any]) -> Tuple[Any, Optional[dict]]:
    """Build + prepare a backend, capturing its spans as one segment.

    Runs inside ``asyncio.to_thread``.  The build records into a private
    trace (never the service trace directly — two concurrent builds of
    *different* templates would interleave writes from two threads) and
    the caller merges the returned segment on the event loop.
    """
    local = obs.Trace("service-prepare") if obs.enabled() else None
    token = obs.activate(local) if local is not None else None
    try:
        with obs.span("service.prepare"):
            backend = builder()
            backend.prepare()
    finally:
        if token is not None:
            obs.deactivate(token)
    segment = None
    if local is not None:
        segment = {
            "spans": local.slice_spans(0),
            "counters": local.drain_counters(),
        }
    return backend, segment
