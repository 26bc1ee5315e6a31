"""Cross-request micro-batching: coalescing, isolation, exactly-once.

The batching window replaces the per-template inline lock: concurrent
same-fingerprint requests must coalesce into fewer solve flights (one
stacked solve on a batch-capable backend), every request must still get
exactly its own rows bit-for-bit, a misconfigured request must fail
alone, and the per-point span accounting must stay exactly-once however
many requests shared a flight.
"""

import numpy as np

from repro.core.params import CPUModelParams
from repro.sweep import PhaseTypeBackend, SweepGrid, SweepRunner
from tests.sweep.service.fixture import (
    ServiceFixture,
    mm1k_sweep_payload,
)
from tests.sweep.service.test_service_concurrency import _fan_out

N_CLIENTS = 8
N_POINTS = 5

#: generous enough that all the fan-out threads land inside one window
WINDOW_MS = 100.0


def batched_payload(metrics=("power", "fraction:standby"), axes=None):
    return {
        "op": "sweep",
        "model": {"kind": "phase-type", "stages": 2, "n_max": 10},
        "axes": list(axes or ["T=0.1:1.0:4"]),
        "metrics": list(metrics),
    }


class TestCoalescing:
    def test_window_coalesces_concurrent_requests(self):
        svc = ServiceFixture(
            max_inflight=N_CLIENTS,
            max_pending=N_CLIENTS,
            batch_window_ms=WINDOW_MS,
        )
        with svc:
            replies = _fan_out(
                svc, [mm1k_sweep_payload(N_POINTS)] * N_CLIENTS
            )
            stats = svc.stats()
        assert all(r["kind"] == "result" for r in replies)
        for reply in replies[1:]:
            assert reply["rows"] == replies[0]["rows"]
        batching = stats["batching"]
        assert batching["window_ms"] == WINDOW_MS
        assert batching["flights"] < N_CLIENTS
        assert batching["coalesced"] == N_CLIENTS - batching["flights"]
        # one service.batch span per flight...
        assert len(svc.spans("service.batch")) == batching["flights"]
        # ...and the per-point accounting stays exactly-once per request
        assert len(svc.spans("sweep.point")) == N_CLIENTS * N_POINTS

    def test_window_zero_still_coalesces_backlog(self):
        """With no window at all, requests that queue while a flight is
        solving depart together on the next one."""
        svc = ServiceFixture(
            telemetry=False,
            max_inflight=N_CLIENTS,
            max_pending=N_CLIENTS,
            batch_window_ms=0.0,
            solve_delay=0.02,
        )
        with svc:
            replies = _fan_out(
                svc, [mm1k_sweep_payload(N_POINTS)] * N_CLIENTS
            )
            stats = svc.stats()
        assert all(r["kind"] == "result" for r in replies)
        batching = stats["batching"]
        assert batching["flights"] < N_CLIENTS
        assert batching["coalesced"] == N_CLIENTS - batching["flights"]

    def test_stacked_flight_matches_serial_bitwise(self):
        """Coalesced batch-capable requests are solved as one stacked
        run; every request's rows must equal a solo serial sweep of the
        same grid, bit for bit."""
        metrics = ["power", "fraction:standby"]
        grid = SweepGrid.from_specs(["T=0.1:1.0:4"])
        reference = SweepRunner(
            PhaseTypeBackend(
                CPUModelParams.paper_defaults(), stages=2, n_max=10
            ),
            metrics,
        ).run(grid)
        want = [
            [row[m] for m in metrics] for row in reference.rows()
        ]
        svc = ServiceFixture(
            max_inflight=4, max_pending=4, batch_window_ms=WINDOW_MS
        )
        with svc:
            replies = _fan_out(svc, [batched_payload(metrics)] * 4)
            stats = svc.stats()
        assert all(r["kind"] == "result" for r in replies)
        for reply in replies:
            assert reply["errors"] == []
            np.testing.assert_array_equal(
                np.array(reply["rows"]), np.array(want)
            )
        assert stats["batching"]["flights"] < 4


class TestFlightIsolation:
    def test_failing_request_leaves_coalesced_siblings_intact(self):
        """One misconfigured request inside a flight fails alone with
        bad-request; its siblings still get complete results."""
        good = batched_payload()
        bad = batched_payload(metrics=["power", "fraction:nosuchstate"])
        svc = ServiceFixture(
            telemetry=False,
            max_inflight=4,
            max_pending=4,
            batch_window_ms=WINDOW_MS,
        )
        with svc:
            replies = _fan_out(svc, [good, bad, good, good])
        assert [r["kind"] for r in replies] == [
            "result", "error", "result", "result",
        ]
        assert replies[1]["code"] == "bad-request"
        assert "nosuchstate" in replies[1]["message"]
        for reply in (replies[0], replies[2], replies[3]):
            assert reply["errors"] == []
            assert reply["rows"] == replies[0]["rows"]

    def test_gspn_sibling_isolation_without_batch_support(self):
        """The same isolation on a non-batch backend (per-request loop)."""
        good = mm1k_sweep_payload(3)
        bad = dict(
            mm1k_sweep_payload(3), metrics=["mean_tokens:nosuchplace"]
        )
        svc = ServiceFixture(
            telemetry=False,
            max_inflight=4,
            max_pending=4,
            batch_window_ms=WINDOW_MS,
        )
        with svc:
            replies = _fan_out(svc, [good, bad, good])
        assert [r["kind"] for r in replies] == ["result", "error", "result"]
        assert replies[1]["code"] == "bad-request"
        assert replies[0]["rows"] == replies[2]["rows"]
