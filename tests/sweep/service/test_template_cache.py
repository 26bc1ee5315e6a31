"""Property tests for the template LRU and the fingerprint contract.

Three layers, matching the tentpole's cache guarantees:

- :class:`LRUTemplates` behaves exactly like an ``OrderedDict``-based
  reference model under arbitrary get/put sequences (hypothesis): size
  never exceeds capacity, repeat fingerprints always hit, evictions come
  out strictly LRU-first;
- :class:`TemplateCache.get_or_prepare` is single-flight: concurrent
  awaiters of the same fingerprint run the builder exactly once;
- :func:`spec_fingerprint` over :func:`canonical_model_spec` collides
  iff two specs configure the same prepared template — every
  size-relevant field perturbs it, while spelling differences (key
  order, int-vs-float, axis aliases, omitted defaults) collapse.  This
  extends PR 5's checkpoint-fingerprint discipline from sweeps to
  models.
"""

import asyncio
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.service import (
    LRUTemplates,
    RequestError,
    TemplateCache,
    canonical_model_spec,
    spec_fingerprint,
)

# -- strategies -------------------------------------------------------------

_KEYS = st.sampled_from([f"fp-{i}" for i in range(8)])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _KEYS),
        st.tuples(st.just("put"), _KEYS),
    ),
    max_size=60,
)


def fingerprint_of(spec):
    return spec_fingerprint(canonical_model_spec(spec))


class TestLRUProperties:
    @given(capacity=st.integers(1, 4), ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_matches_ordered_dict_reference_model(self, capacity, ops):
        """The real LRU and a five-line OrderedDict model never diverge."""
        lru = LRUTemplates(capacity)
        model = OrderedDict()
        for op, key in ops:
            if op == "get":
                got = lru.get(key)
                if key in model:
                    model.move_to_end(key)
                    assert got is model[key]
                else:
                    assert got is None
            else:
                value = object()
                evicted = lru.put(key, value)
                model[key] = value
                model.move_to_end(key)
                expect_evicted = []
                while len(model) > capacity:
                    victim, _ = model.popitem(last=False)
                    expect_evicted.append(victim)
                assert evicted == expect_evicted
            # invariants that must hold after *every* step
            assert len(lru) == len(model)
            assert len(lru) <= capacity
            assert list(lru.keys()) == list(model)  # LRU-first order

    @given(ops=_OPS)
    @settings(max_examples=100, deadline=None)
    def test_repeat_fingerprint_always_hits(self, ops):
        """Once put and not yet evicted, a fingerprint always hits."""
        lru = LRUTemplates(3)
        live = set()
        for op, key in ops:
            if op == "put":
                for victim in lru.put(key, key):
                    live.discard(victim)
                live.add(key)
            else:
                got = lru.get(key)
                assert (got is not None) == (key in live)

    def test_eviction_is_strictly_lru_not_fifo(self):
        lru = LRUTemplates(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh: "b" is now least recent
        assert lru.put("c", 3) == ["b"]
        assert list(lru.keys()) == ["a", "c"]

    def test_stats_accounting(self):
        lru = LRUTemplates(1)
        lru.get("x")
        lru.put("x", 1)
        lru.get("x")
        lru.put("y", 2)  # evicts x
        stats = lru.stats()
        assert stats == {
            "size": 1, "capacity": 1,
            "hits": 1, "misses": 1, "evictions": 1,
        }


class TestSingleFlight:
    def test_concurrent_get_or_prepare_builds_once(self):
        class FakeBackend:
            def prepare(self):
                pass

        calls = []

        def builder():
            calls.append(1)
            return FakeBackend()

        async def scenario():
            cache = TemplateCache(capacity=4)
            entries = await asyncio.gather(
                *(cache.get_or_prepare("fp", builder) for _ in range(10))
            )
            return cache, entries

        cache, entries = asyncio.run(scenario())
        assert len(calls) == 1
        assert cache.builds == 1
        backends = {id(entry.backend) for entry, _hit in entries}
        assert len(backends) == 1  # everyone shares the one template

    def test_failed_build_is_not_cached(self):
        attempts = []

        def builder():
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("flaky")

            class FakeBackend:
                def prepare(self):
                    pass

            return FakeBackend()

        async def scenario():
            cache = TemplateCache(capacity=4)
            try:
                await cache.get_or_prepare("fp", builder)
            except ValueError:
                pass
            # the failure must not poison the slot: retry rebuilds
            entry, hit = await cache.get_or_prepare("fp", builder)
            return cache, entry, hit

        cache, entry, hit = asyncio.run(scenario())
        assert len(attempts) == 2
        assert hit is False
        assert entry.backend is not None


class TestFingerprintContract:
    """Collisions impossible by construction: every template-relevant
    field perturbs the fingerprint; cosmetic respellings do not."""

    def test_gspn_size_knobs_perturb(self):
        base = fingerprint_of({"kind": "gspn", "net": "mm1k", "buffer": 10})
        assert base == fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": 10}
        )
        # the ISSUE's headline case: --buffer variants never collide
        assert base != fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": 20}
        )
        assert base != fingerprint_of({"kind": "gspn", "net": "cpu-gspn"})
        assert base != fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": 10, "max_markings": 99}
        )

    def test_stages_variants_perturb(self):
        base = fingerprint_of({"kind": "phase-type", "stages": 32})
        # --stages variants never collide
        assert base != fingerprint_of({"kind": "phase-type", "stages": 16})
        assert base != fingerprint_of({"kind": "phase-type", "n_max": 400})
        assert base != fingerprint_of(
            {"kind": "phase-type", "params": {"lambda": 90.0}}
        )

    def test_cosmetic_respellings_collapse(self):
        # omitted defaults == spelled-out defaults
        assert fingerprint_of({"kind": "gspn", "net": "mm1k"}) == (
            fingerprint_of({
                "kind": "gspn", "net": "mm1k", "max_markings": 2_000_000,
            })
        )
        # int vs float spellings of an integer knob
        assert fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": 20}
        ) == fingerprint_of({"kind": "gspn", "net": "mm1k", "buffer": 20.0})
        # axis aliases resolve to one spelling, param order is sorted
        assert fingerprint_of(
            {"kind": "renewal", "params": {"lambda": 90, "mu": 1000}}
        ) == fingerprint_of(
            {"kind": "renewal",
             "params": {"service_rate": 1000.0, "arrival_rate": 90.0}}
        )
        # phase-type default stages spelled out
        assert fingerprint_of({"kind": "phase-type"}) == fingerprint_of(
            {"kind": "phase-type", "stages": 32}
        )
        # the deprecated batched kind is the same template
        assert fingerprint_of(
            {"kind": "phase-type-batched", "stages": 32}
        ) == fingerprint_of({"kind": "phase-type", "stages": 32})

    @given(
        buffer_a=st.integers(2, 40),
        buffer_b=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_injective_over_range(self, buffer_a, buffer_b):
        fp_a = fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": buffer_a}
        )
        fp_b = fingerprint_of(
            {"kind": "gspn", "net": "mm1k", "buffer": buffer_b}
        )
        assert (fp_a == fp_b) == (buffer_a == buffer_b)

    @given(
        stages=st.integers(1, 64),
        rate=st.floats(1.0, 1000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonicalisation_is_idempotent(self, stages, rate):
        """canonical(canonical(spec)) == canonical(spec) — the canonical
        form is a fixed point, so re-submitting a canonical spec can
        never re-key the cache."""
        spec = {
            "kind": "phase-type",
            "stages": stages,
            "params": {"lambda": rate},
        }
        once = canonical_model_spec(spec)
        assert canonical_model_spec(once) == once
        assert spec_fingerprint(canonical_model_spec(once)) == (
            spec_fingerprint(once)
        )

    @pytest.mark.parametrize("kind", ["phase-type", "phase-type-batched", "renewal"])
    @pytest.mark.parametrize(
        "key, value", [("solver", "power"), ("tol", 1e-3), ("max_iter", 1)]
    )
    def test_solver_keys_only_for_gspn(self, kind, key, value):
        """No model kind has a solver to choose — the CPU families never
        had one, and a gspn chain's size picks dense LU or GMRES — so a
        solver key is rejected by name for every kind instead of keying
        a duplicate template."""
        with pytest.raises(RequestError, match=key):
            canonical_model_spec({"kind": kind, key: value})
        with pytest.raises(RequestError, match=key):
            canonical_model_spec({"kind": "gspn", "net": "mm1k", key: value})
