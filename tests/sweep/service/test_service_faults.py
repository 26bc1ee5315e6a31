"""Service-grade fault injection: dead workers, dropped clients, SIGTERM.

The three failure classes the daemon must absorb without dying:

- a **worker shard crashing mid-request** (``die_after_rows`` aborts its
  socket with an RST, then ``os._exit``) — the request's unfinished
  points requeue to a survivor, a replacement is forked, the results
  stay bit-identical, and the *next* request works;
- a **client vanishing mid-stream** (socket dropped after sending, or
  mid-frame) — the handler ends quietly and the daemon keeps serving;
- **SIGTERM mid-sweep** (forked daemon) — in-flight work finishes, new
  work is refused with ``busy {draining: true}``, the journal closes
  with a drain record, the trace validates, and the process exits 0.
"""

import json
import os
import signal
import socket
import struct
import time

import numpy as np
import pytest

from repro.sweep import SweepGrid, SweepRunner, build_mm1k_net
from tests.sweep.service.fixture import (
    MM1K_METRICS,
    ForkedService,
    ServiceFixture,
    mm1k_sweep_payload,
)


class TestWorkerDeath:
    def test_worker_killed_mid_request_bit_identical_result(self):
        payload = mm1k_sweep_payload(8)
        reference = SweepRunner(build_mm1k_net(K=10), MM1K_METRICS).run(
            SweepGrid.from_specs(payload["axes"])
        )
        # both workers armed: 8 one-point partitions over 2 workers, so
        # one of them must reach its 4th row and die
        svc = ServiceFixture(
            n_workers=2,
            worker_fault={"die_after_rows": 3, "die_worker": -1},
        )
        with svc:
            reply = svc.request(payload)
            stats = svc.stats()
            # the daemon is still able to serve the next request
            again = svc.request(payload)
        assert reply["kind"] == "result"
        assert reply["errors"] == []
        for i, name in enumerate(MM1K_METRICS):
            got = np.array([row[i] for row in reply["rows"]])
            assert np.array_equal(got, reference.column(name)), name
        assert stats["workers"]["deaths"] >= 1
        assert stats["workers"]["respawns"] >= 1
        assert again["kind"] == "result"
        assert again["rows"] == reply["rows"]

    def test_idle_worker_sigkill_respawned(self):
        svc = ServiceFixture(telemetry=False, n_workers=2)
        with svc:
            before = svc.stats()["workers"]
            victim = before["pids"][0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                workers = svc.stats()["workers"]
                if workers["respawns"] >= 1 and workers["connected"] >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"no respawn after SIGKILL: {workers}")
            assert victim not in workers["pids"]
            # and the pool still solves correctly on the survivors
            reply = svc.request(mm1k_sweep_payload(4))
        assert reply["kind"] == "result"
        assert reply["errors"] == []

    def test_idle_worker_reset_before_reading_welcome_is_pruned(self):
        """A worker that dies before reading its ``welcome`` resets the
        connection (unread data) instead of closing it: the idle monitor
        must prune it all the same.  The worker here is an external one
        joining the pool, which a ``--workers`` daemon accepts."""
        from repro.sweep.distributed.protocol import (
            CAPABILITIES,
            PROTOCOL_VERSION,
        )
        from tests.sweep.service.fixture import send_frame

        svc = ServiceFixture(telemetry=False, n_workers=1)
        with svc:
            sock = svc.open_socket()
            send_frame(sock, {
                "kind": "hello", "version": PROTOCOL_VERSION,
                "capabilities": list(CAPABILITIES), "worker": "external:1",
            })
            deadline = time.monotonic() + 20
            while svc.stats()["workers"]["connected"] < 2:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.02)
            # close with the welcome unread and linger 0: an RST, no FIN
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            while True:
                workers = svc.stats()["workers"]
                if workers["deaths"] == 1 and workers["connected"] == 1:
                    break
                assert time.monotonic() < deadline, f"not pruned: {workers}"
                time.sleep(0.05)
            reply = svc.request(mm1k_sweep_payload(4))
        assert reply["kind"] == "result"
        assert reply["errors"] == []

    def test_retry_budget_exhaustion_fails_request_not_daemon(self):
        # every worker is armed: each task attempt dies after 0 rows, so
        # one request burns through the whole retry budget
        svc = ServiceFixture(
            telemetry=False,
            n_workers=1,
            max_retries=1,
            worker_fault={"die_after_rows": 0, "die_worker": 0},
        )
        with svc:
            reply = svc.request(mm1k_sweep_payload(4), timeout=120)
            # respawned replacements are unarmed, so the daemon recovers
            again = svc.request(mm1k_sweep_payload(4), timeout=120)
        # either the armed worker exhausted the budget (error reply) or a
        # clean respawn completed the request after the armed one died —
        # both leave the daemon serving; what may NOT happen is a hang or
        # a dead daemon
        assert reply["kind"] in ("error", "result")
        assert again["kind"] == "result"


class TestClientDrop:
    def test_client_drops_connection_mid_frame(self):
        svc = ServiceFixture(telemetry=False)
        with svc:
            baseline = svc.stats()["open_connections"]
            with svc.open_socket() as sock:
                # promise a 1 KiB frame, send half of it, vanish
                sock.sendall(struct.pack(">Q", 1024) + b"x" * 512)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if svc.stats()["open_connections"] <= baseline:
                    break
                time.sleep(0.05)
            # no orphaned socket, and the daemon still serves
            assert svc.stats()["open_connections"] <= baseline
            reply = svc.request(mm1k_sweep_payload(3))
        assert reply["kind"] == "result"

    def test_client_drops_while_request_in_flight(self):
        svc = ServiceFixture(telemetry=False, solve_delay=0.05)
        with svc:
            sock = svc.open_socket()
            from tests.sweep.service.fixture import send_frame
            from repro.sweep.distributed.protocol import PROTOCOL_VERSION

            send_frame(sock, {
                "kind": "request", "version": PROTOCOL_VERSION,
                **mm1k_sweep_payload(8),
            })
            # give the request time to be admitted, then vanish
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if svc.stats()["inflight"] >= 1:
                    break
                time.sleep(0.01)
            sock.close()
            # the abandoned request still completes server-side and the
            # slot is released — the daemon is not leaked into a stuck
            # inflight state
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = svc.stats()
                if stats["inflight"] == 0:
                    break
                time.sleep(0.05)
            assert stats["inflight"] == 0
            assert svc.request(mm1k_sweep_payload(2))["kind"] == "result"


class TestSigtermDrain:
    def test_sigterm_mid_sweep_finishes_in_flight_and_exits_zero(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        trace = tmp_path / "trace.jsonl"
        with ForkedService(
            "--solve-delay", "0.1",
            "--max-inflight", "1",
            "--journal", str(journal),
            "--trace", str(trace),
        ) as daemon:
            import threading

            slow_reply = {}
            payload = mm1k_sweep_payload(15)

            def slow():
                slow_reply.update(daemon.request(payload, timeout=120))

            thread = threading.Thread(target=slow)
            thread.start()
            # wait until the sweep is actually in flight, then SIGTERM
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stats = daemon.request({"op": "stats"})["stats"]
                if stats["inflight"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never became in-flight")
            daemon.sigterm()
            # new work is refused while draining (listeners stay up
            # until the in-flight sweep finishes)
            refused = None
            try:
                refused = daemon.request(mm1k_sweep_payload(2), timeout=30)
            except (ConnectionError, OSError):
                pass  # listeners already closed — equally acceptable
            thread.join(timeout=60)
            rc = daemon.wait(timeout=60)
        # the in-flight sweep finished completely
        assert slow_reply.get("kind") == "result"
        assert len(slow_reply["rows"]) == 15
        assert slow_reply["errors"] == []
        if refused is not None:
            assert refused["kind"] == "busy"
            assert refused["draining"] is True
        assert rc == 0
        # journal is complete: start … request … drain
        records = [json.loads(x) for x in journal.read_text().splitlines()]
        assert records[0]["event"] == "start"
        assert records[-1]["event"] == "drain"
        assert any(r.get("op") == "sweep" for r in records)
        # trace artifact survives and validates against the schema
        from repro import obs

        recorded = obs.Trace.read_jsonl(str(trace))
        assert any(sp.name == "service.request" for sp in recorded.spans)

    def test_sigterm_idle_daemon_exits_zero(self):
        with ForkedService() as daemon:
            assert daemon.request({"op": "ping"})["ok"] is True
            daemon.sigterm()
            rc = daemon.wait(timeout=60)
        assert rc == 0

    def test_sigterm_with_workers_reaps_children(self, tmp_path):
        with ForkedService("--workers", "2") as daemon:
            stats = daemon.request({"op": "stats"})["stats"]
            pids = stats["workers"]["pids"]
            assert len(pids) == 2
            reply = daemon.request(mm1k_sweep_payload(4))
            assert reply["kind"] == "result"
            daemon.sigterm()
            rc = daemon.wait(timeout=60)
        assert rc == 0
        for pid in pids:  # shards did not outlive the daemon
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
