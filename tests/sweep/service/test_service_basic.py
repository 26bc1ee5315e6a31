"""Service fundamentals: parity, ops, cache behaviour, backpressure.

Everything here runs the daemon in-process (``ServiceFixture``) with
inline solving — the wire formats and request lifecycle are identical to
pool mode, without the fork cost.  Pool-mode behaviour is covered by
``test_service_faults.py`` and ``test_service_concurrency.py``.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.sweep import SweepGrid, SweepRunner, build_mm1k_net
from repro.sweep.distributed.protocol import PROTOCOL_VERSION
from tests.sweep.service.fixture import (
    MM1K_METRICS,
    MM1K_MODEL,
    ServiceFixture,
    exchange_on,
    mm1k_sweep_payload,
)


class TestSolveParity:
    def test_sweep_bitwise_parity_with_serial_runner(self):
        payload = mm1k_sweep_payload(6)
        grid = SweepGrid.from_specs(payload["axes"])
        reference = SweepRunner(
            build_mm1k_net(K=10), MM1K_METRICS
        ).run(grid)
        with ServiceFixture(telemetry=False) as svc:
            reply = svc.request(payload)
        assert reply["kind"] == "result"
        assert reply["metric_names"] == MM1K_METRICS
        assert reply["points"] == reference.points
        for i, name in enumerate(MM1K_METRICS):
            got = np.array([row[i] for row in reply["rows"]])
            assert np.array_equal(got, reference.column(name)), name
        assert reply["errors"] == []

    def test_steady_matches_sweep_single_point(self):
        with ServiceFixture(telemetry=False) as svc:
            steady = svc.request({
                "op": "steady", "model": MM1K_MODEL,
                "metrics": MM1K_METRICS,
            })
            sweep = svc.request({
                "op": "sweep", "model": MM1K_MODEL,
                "axes": ["arrive=1.0:1.0:1"],
                "metrics": MM1K_METRICS,
            })
        assert steady["kind"] == "result"
        assert set(steady["values"]) == set(MM1K_METRICS)
        assert all(np.isfinite(v) for v in steady["values"].values())
        # mm1k's base arrival rate is 1.0 — the same point solved two ways
        assert steady["values"]["mean_tokens:queue"] == sweep["rows"][0][0]

    def test_http_sweep_parity_with_pickle(self):
        payload = mm1k_sweep_payload(4)
        with ServiceFixture(telemetry=False) as svc:
            pickle_reply = svc.request(payload)
            status, http_reply = svc.http("POST", "/v1/sweep", {
                k: v for k, v in payload.items() if k != "op"
            })
        assert status == 200
        assert http_reply["rows"] == pickle_reply["rows"]
        assert http_reply["points"] == pickle_reply["points"]
        assert http_reply["fingerprint"] == pickle_reply["fingerprint"]


class TestOps:
    def test_ping_and_stats(self):
        with ServiceFixture(telemetry=False) as svc:
            ping = svc.request({"op": "ping"})
            assert ping["ok"] is True and ping["draining"] is False
            stats = svc.stats()
            assert stats["requests"]["completed"] == 0
            assert stats["cache"]["size"] == 0
            assert stats["draining"] is False

    def test_lint_op(self):
        with ServiceFixture(telemetry=False) as svc:
            reply = svc.request({"op": "lint", "net": "mm1k"})
            assert reply["ok"] is True
            assert reply["facts"]  # proved invariants travel
            deadlock = svc.request(
                {"op": "lint", "net": "deadlock", "level": "deep"}
            )
        assert deadlock["ok"] is False
        severities = {d["severity"] for d in deadlock["diagnostics"]}
        assert "error" in severities  # findings travel with codes intact
        assert all(d["code"] for d in deadlock["diagnostics"])

    def test_request_id_round_trips(self):
        with ServiceFixture(telemetry=False) as svc:
            reply = svc.request({**mm1k_sweep_payload(2), "id": "client-42"})
            assert reply["id"] == "client-42"
            err = svc.request({"op": "sweep", "id": 7, "model": MM1K_MODEL})
            assert err["kind"] == "error" and err["id"] == 7

    def test_healthz_and_http_stats(self):
        with ServiceFixture(telemetry=False) as svc:
            status, body = svc.http("GET", "/healthz")
            assert (status, body["ok"]) == (200, True)
            status, body = svc.http("GET", "/stats")
            assert status == 200 and "cache" in body["stats"]


class TestTemplateCacheBehaviour:
    def test_repeat_fingerprint_hits_cache(self):
        with ServiceFixture(telemetry=False) as svc:
            first = svc.request(mm1k_sweep_payload(3))
            second = svc.request(mm1k_sweep_payload(5))  # same model, new grid
            stats = svc.stats()
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["fingerprint"] == first["fingerprint"]
        assert stats["cache"] == {**stats["cache"], "misses": 1, "hits": 1}

    def test_different_models_prepare_independently(self):
        with ServiceFixture(telemetry=False) as svc:
            a = svc.request(mm1k_sweep_payload(2))
            b = svc.request(mm1k_sweep_payload(2, buffer=12))
            stats = svc.stats()
        assert a["fingerprint"] != b["fingerprint"]
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["size"] == 2

    def test_lru_eviction_under_capacity_pressure(self):
        with ServiceFixture(telemetry=False, cache_capacity=2) as svc:
            for buffer in (8, 9, 10):  # three models, capacity two
                svc.request(mm1k_sweep_payload(2, buffer=buffer))
            evicted_stats = svc.stats()
            # the oldest (buffer=8) was evicted; using it again re-prepares
            again = svc.request(mm1k_sweep_payload(2, buffer=8))
        assert evicted_stats["cache"]["evictions"] == 1
        assert evicted_stats["cache"]["size"] == 2
        assert again["cache_hit"] is False


class TestBackpressure:
    def test_busy_reply_when_queue_full(self):
        # one slot, no queue, and a per-point delay so the first request
        # reliably occupies the slot while the second arrives
        with ServiceFixture(
            telemetry=False, max_inflight=1, max_pending=0, solve_delay=0.2
        ) as svc:
            slow = threading.Thread(
                target=svc.request, args=(mm1k_sweep_payload(8),)
            )
            slow.start()
            try:
                deadline = time.monotonic() + 10
                reply = None
                while time.monotonic() < deadline:
                    if svc.stats()["inflight"] >= 1:
                        reply = svc.request(mm1k_sweep_payload(8))
                        break
                    time.sleep(0.01)
            finally:
                slow.join()
            assert reply is not None, "first request never became in-flight"
            assert reply["kind"] == "busy"
            assert reply["draining"] is False
            final = svc.stats()
        assert final["requests"]["completed"] == 1

    def test_http_429_when_queue_full(self):
        with ServiceFixture(
            telemetry=False, max_inflight=1, max_pending=0, solve_delay=0.2
        ) as svc:
            slow = threading.Thread(
                target=svc.request, args=(mm1k_sweep_payload(8),)
            )
            slow.start()
            try:
                deadline = time.monotonic() + 10
                status = None
                while time.monotonic() < deadline:
                    if svc.stats()["inflight"] >= 1:
                        status, body = svc.http(
                            "POST", "/v1/sweep",
                            {k: v for k, v in mm1k_sweep_payload(2).items()
                             if k != "op"},
                        )
                        break
                    time.sleep(0.01)
            finally:
                slow.join()
            assert status == 429
            assert "error" in body

    def test_queued_request_completes(self):
        # queue of one: the second request waits, then runs — no busy
        with ServiceFixture(
            telemetry=False, max_inflight=1, max_pending=1, solve_delay=0.05
        ) as svc:
            replies = []
            threads = [
                threading.Thread(
                    target=lambda: replies.append(
                        svc.request(mm1k_sweep_payload(4))
                    )
                )
                for _ in range(2)
            ]
            for t in threads:
                t.start()
                time.sleep(0.05)  # ensure ordered arrival
            for t in threads:
                t.join()
            stats = svc.stats()
        assert [r["kind"] for r in replies] == ["result", "result"]
        assert stats["requests"]["completed"] == 2


class TestConnectionSemantics:
    def test_many_requests_per_connection(self):
        with ServiceFixture(telemetry=False) as svc:
            with svc.open_socket() as sock:
                for n in (2, 3, 4):
                    reply = exchange_on(sock, mm1k_sweep_payload(n))
                    assert reply["kind"] == "result"
                    assert len(reply["rows"]) == n

    def test_version_mismatch_rejected(self):
        from tests.sweep.service.fixture import recv_frame, send_frame

        with ServiceFixture(telemetry=False) as svc:
            with svc.open_socket() as sock:
                send_frame(sock, {
                    "kind": "request", "version": PROTOCOL_VERSION + 1,
                    **mm1k_sweep_payload(2),
                })
                reply = recv_frame(sock)
        assert reply["kind"] == "error"
        assert reply["code"] == "bad-request"
        assert str(PROTOCOL_VERSION) in reply["message"]

    def test_journal_records_lifecycle(self, tmp_path):
        journal = tmp_path / "service.journal.jsonl"
        with ServiceFixture(telemetry=False, journal=str(journal)) as svc:
            svc.request(mm1k_sweep_payload(2))
        records = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        events = [r.get("event") or r.get("op") for r in records]
        assert events[0] == "start"
        assert "sweep" in events
        assert events[-1] == "drain"
        assert records[-1]["completed"] == 1


class TestBadRequests:
    @pytest.mark.parametrize(
        "payload, needle",
        [
            ({"op": "warp"}, "unknown op"),
            ({"op": "sweep", "model": {"net": "nope"}}, "unknown net"),
            ({"op": "sweep", "model": MM1K_MODEL}, "needs 'axes'"),
            (
                {"op": "sweep", "model": {**MM1K_MODEL, "turbo": 1},
                 "axes": ["arrive=1:2:2"]},
                "unknown model spec key",
            ),
            (
                {"op": "sweep", "model": MM1K_MODEL,
                 "axes": ["arrive=1:2:2"], "metrics": [42]},
                "metrics",
            ),
            (
                {"op": "steady", "model": MM1K_MODEL,
                 "axes": ["arrive=1:2:2"]},
                "steady takes no axes",
            ),
            ({"op": "lint", "net": "mm1k", "level": "psychic"}, "level"),
        ],
    )
    def test_bad_request_is_a_clean_error(self, payload, needle):
        with ServiceFixture(telemetry=False) as svc:
            reply = svc.request(payload)
            # and the service is still fine afterwards
            assert svc.request({"op": "ping"})["ok"] is True
        assert reply["kind"] == "error"
        assert reply["code"] == "bad-request"
        assert needle in reply["message"]

    @pytest.mark.parametrize(
        "key, value",
        [("solver", "gmres"), ("backend", "sparse"), ("tol", 1e-9),
         ("max_iter", 200)],
    )
    def test_removed_solver_keys_are_bad_requests(self, key, value):
        """A gspn chain's size picks its solver, so the spec keys that
        used to choose one are unknown keys, on both channels."""
        model = {**MM1K_MODEL, key: value}
        with ServiceFixture(telemetry=False) as svc:
            reply = svc.request(
                {"op": "sweep", "model": model, "axes": ["arrive=1:2:2"]}
            )
            status, body = svc.http("POST", "/v1/steady", {"model": model})
        assert reply["kind"] == "error"
        assert reply["code"] == "bad-request"
        assert f"unknown model spec key(s) ['{key}']" in reply["message"]
        assert status == 400
        assert key in body["error"]
