"""``service-mixed``: a ``repro serve`` daemon (inline solving, default
batch window and cache capacity) under two closed-loop clients.

Each client holds one keep-alive pickle-channel connection and sends its
next request only when the previous reply has arrived.  One pass is a
block of 40 requests, 20 per client; the clients meet at a barrier
between blocks.  Each client's stream is built from shuffled segments of
four requests ``{W1, W2, W3, X}``:

- W1: a ``phase-type-batched`` stages-2 sweep over one of four 16-point
  threshold grids (same template, so concurrent ones share a flight);
- W2: a ``cpu-gspn`` buffer-60 sweep over one of four 4-point arrival
  grids;
- W3: a ``steady`` query of the CLI-default phase-type model;
- X: over a client's five segments, three cold models, one ``lint``
  and one more W1, in seeded order.

So 85% of requests read the warm set and 15% are cold "writes": GSPN
models that rotate through 24 fingerprints, three times the cache
capacity.  The segment layout bounds the cold requests that can reach
the daemon between two uses of a warm template to four (two per
client), fewer than the five free cache slots it takes to evict one; the
rotation brings a cold model back only after at least 14 other cold
builds, so every cold request misses.  Both are checked per reply.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    CheckFailed,
    Daemon,
    ServiceClient,
    check,
    median,
    peak_rss_mb,
    sorted_uniform,
    start_daemon_median,
)

CLIENTS = 2
#: the fourth request of each of a client's five segments per block
EXTRAS = ("cold", "cold", "cold", "lint", "w1")
CACHE_CAPACITY = 8  # the serve default, passed explicitly
WARM_GRIDS = 4
N_COLD = 24
COLD_FIRST_BUFFER = 17
CPU_METRICS = ["fraction:standby", "fraction:active", "power"]
GSPN_METRICS = ["mean_tokens:Active", "mean_tokens:Stand_By", "throughput:SR"]

W1_MODEL = {"kind": "phase-type-batched", "stages": 2}
W2_MODEL = {"kind": "gspn", "net": "cpu-gspn", "buffer": 60}
W3_MODEL = {"kind": "phase-type"}
WARM_KEYS = (("w1", 0), ("w2", 0), ("w3", 0))  # one request per warm template


class ServiceMixed:
    name = "service-mixed"
    layer_keys = (
        "petri.explore.calls",
        "petri.explore.busy_s",
        "service.hit.latency_p50_ms",
        "service.miss.latency_p50_ms",
        "service.cache.hit_ratio",
        "service.cache.builds",
        "service.cache.evictions",
        "service.batch.requests_per_flight",
        "service.busy_replies",
        "service.frame.bytes_per_request",
        "verify.lint_ms",
    )

    def __init__(self, seed: int, workdir) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.cold_order = self.rng.sample(range(N_COLD), N_COLD)
        self.cold_cursor = 0
        self.payloads = self._payloads()
        self.references: Dict[Tuple, Any] = {}
        self.daemon: Optional[Daemon] = None
        self.clients: List[ServiceClient] = []
        self.traced = False
        self.trace_path = workdir / "service.trace.jsonl"
        self._reset_counts()

    # -- inputs --------------------------------------------------------

    def _payloads(self) -> Dict[Tuple, Dict[str, Any]]:
        rng = self.rng
        payloads: Dict[Tuple, Dict[str, Any]] = {}
        for g in range(WARM_GRIDS):
            payloads["w1", g] = {
                "op": "sweep", "model": W1_MODEL, "metrics": CPU_METRICS,
                "axes": {"T": sorted_uniform(rng, 0.05, 2.0, 16)},
            }
            payloads["w2", g] = {
                "op": "sweep", "model": W2_MODEL, "metrics": GSPN_METRICS,
                "axes": {"AR": sorted_uniform(rng, 50.0, 120.0, 4)},
            }
        payloads["w3", 0] = {"op": "steady", "model": W3_MODEL, "metrics": CPU_METRICS}
        payloads["lint", 0] = {"op": "lint", "net": "cpu-gspn"}
        cold_axes = {"AR": sorted_uniform(rng, 50.0, 120.0, 4)}
        for j in range(N_COLD):
            payloads["cold", j] = {
                "op": "sweep",
                "model": {"kind": "gspn", "net": "cpu-gspn",
                          "buffer": COLD_FIRST_BUFFER + j},
                "metrics": GSPN_METRICS,
                "axes": cold_axes,
            }
        return payloads

    def _block(self) -> List[List[Tuple]]:
        rng = self.rng
        streams = []
        for _ in range(CLIENTS):
            stream: List[Tuple] = []
            extras = list(EXTRAS)
            rng.shuffle(extras)
            for kind in extras:
                if kind == "cold":
                    extra = ("cold", self.cold_order[self.cold_cursor % N_COLD])
                    self.cold_cursor += 1
                else:
                    extra = (kind, rng.randrange(WARM_GRIDS) if kind == "w1" else 0)
                segment = [
                    ("w1", rng.randrange(WARM_GRIDS)),
                    ("w2", rng.randrange(WARM_GRIDS)),
                    ("w3", 0),
                    extra,
                ]
                rng.shuffle(segment)
                stream.extend(segment)
            streams.append(stream)
        return streams

    def _compute_references(self) -> None:
        """Every distinct request, answered by an in-process
        ``SweepRunner`` (or ``lint_net``) on the same spec."""
        from repro.sweep import SweepGrid, SweepRunner
        from repro.sweep.nets import DEMO_NETS
        from repro.sweep.service import build_backend, canonical_model_spec
        from repro.verify import lint_net

        for key, payload in self.payloads.items():
            if payload["op"] == "lint":
                report = lint_net(DEMO_NETS[payload["net"]][0](), level="standard")
                self.references[key] = (report.ok, [d.code for d in report.sorted()])
                continue
            backend = build_backend(canonical_model_spec(payload["model"]))
            runner = SweepRunner(backend, payload["metrics"])
            if payload["op"] == "steady":
                self.references[key] = runner.run([{}]).values[0]
            else:
                result = runner.run(SweepGrid(payload["axes"]))
                self.references[key] = np.array(
                    [[row[m] for m in payload["metrics"]] for row in result.values]
                )

    # -- daemon lifecycle ------------------------------------------------

    def _reset_counts(self) -> None:
        self.sent = 0
        self.cold_sent = 0
        self.passes = 0
        self.samples: Dict[str, List[float]] = {"hit": [], "miss": [], "lint": []}
        self.busy_replies = 0
        self.t_primed = 0.0

    def _daemon_args(self) -> List[str]:
        args = ["--cache-capacity", str(CACHE_CAPACITY)]
        if self.traced:
            args += ["--trace", str(self.trace_path)]
        return args

    def _connect_and_prime(self) -> None:
        assert self.daemon is not None
        self.clients = [ServiceClient(self.daemon.address) for _ in range(CLIENTS)]
        for key in WARM_KEYS:
            reply = self.clients[0].request(self.payloads[key])
            self._check_reply(key, reply, expect_hit=False)
            self.sent += 1
        self.clients[0].bytes_sent = self.clients[0].bytes_received = 0
        self.t_primed = time.time()

    def start(self, probe: bool = True, traced: bool = False) -> float:
        self.traced = traced
        if not self.references:
            self._compute_references()
        log_path = self.workdir / "service.log"
        if probe:
            self.daemon, setup_s = start_daemon_median(self._daemon_args(), log_path)
        else:
            self.daemon = Daemon(self._daemon_args(), log_path)
            setup_s = self.daemon.start()
        self._connect_and_prime()
        return setup_s

    def enable_tracing(self) -> None:
        """Swap in a daemon that records a ``repro.obs`` trace."""
        self.final_checks()
        self.close()
        self.traced = True
        self._reset_counts()
        self.daemon = Daemon(self._daemon_args(), self.workdir / "service.log")
        self.daemon.start()
        self._connect_and_prime()

    # -- one pass ----------------------------------------------------------

    def run_pass(self, traced: bool = False):
        streams = self._block()
        results: List[List[Tuple]] = [[] for _ in range(CLIENTS)]
        errors: List[BaseException] = []

        def drive(client: ServiceClient, stream: List[Tuple], out: List[Tuple]) -> None:
            try:
                for key in stream:
                    t0 = time.perf_counter()
                    reply = client.request(self.payloads[key])
                    out.append((key, time.perf_counter() - t0, reply))
            except BaseException as exc:  # surfaced by the joining thread
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(c, s, r))
            for c, s, r in zip(self.clients, streams, results)
        ]
        t_pass = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t_pass
        if errors:
            raise errors[0]
        latencies: List[float] = []
        failed = 0
        for key, latency, reply in (item for r in results for item in r):
            self.sent += 1
            if reply.get("kind") != "result":
                failed += 1
                self.busy_replies += reply.get("kind") == "busy"
                latencies.append(float("inf"))
                continue
            latencies.append(latency)
            if key[0] == "cold":
                self.cold_sent += 1
            self._check_reply(key, reply, expect_hit=key[0] != "cold")
            if key[0] == "lint":
                self.samples["lint"].append(latency)
            else:
                self.samples["hit" if reply["cache_hit"] else "miss"].append(latency)
        self.passes += 1
        return latencies, failed, wall

    def _check_reply(self, key: Tuple, reply: Dict[str, Any], expect_hit: bool) -> None:
        reference = self.references[key]
        check(reply.get("kind") == "result", f"{key}: {reply}")
        if key[0] == "lint":
            codes = [d["code"] for d in reply["diagnostics"]]
            check((reply["ok"], codes) == reference, f"{key}: lint reply differs")
            return
        check(reply["errors"] == [], f"{key}: failed points {reply['errors']}")
        check(
            reply["cache_hit"] is expect_hit,
            f"{key}: cache_hit={reply['cache_hit']}, expected {expect_hit}",
        )
        if key[0] == "w3":
            check(reply["values"] == reference, f"{key}: steady values differ")
        else:
            check(
                np.array_equal(np.array(reply["rows"]), reference),
                f"{key}: rows differ from the in-process SweepRunner",
            )

    # -- results -----------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        return self.clients[0].request({"op": "stats"})["stats"]

    def final_checks(self) -> None:
        stats = self._stats()
        builds = stats["cache"]["builds"]
        expected = len(WARM_KEYS) + self.cold_sent
        check(builds == expected, f"{builds} template builds, expected {expected}")
        check(
            stats["cache"]["evictions"] == max(0, builds - CACHE_CAPACITY),
            f"{stats['cache']['evictions']} evictions after {builds} builds",
        )
        check(
            stats["requests"]["completed"] == self.sent,
            f"daemon completed {stats['requests']['completed']} of {self.sent}",
        )

    def peak_rss_mb(self) -> float:
        assert self.daemon is not None
        return peak_rss_mb(self.daemon.pid)

    def layer_metrics(self) -> Dict[str, float]:
        from repro.obs import Trace

        if not self.traced:
            raise CheckFailed("service layer metrics need the traced daemon")
        frame_bytes = sum(c.bytes_sent + c.bytes_received for c in self.clients)
        stats = self._stats()
        requests = self.sent - len(WARM_KEYS)
        passes = self.passes
        cache = stats["cache"]
        batching = stats["batching"]
        metrics = {
            "service.hit.latency_p50_ms": 1e3 * median(self.samples["hit"]),
            "service.miss.latency_p50_ms": 1e3 * median(self.samples["miss"]),
            "service.cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
            "service.cache.builds": (cache["builds"] - len(WARM_KEYS)) / passes,
            "service.cache.evictions": cache["evictions"] / passes,
            "service.batch.requests_per_flight":
                (batching["flights"] + batching["coalesced"]) / batching["flights"],
            "service.busy_replies": self.busy_replies / passes,
            "service.frame.bytes_per_request": frame_bytes / requests,
            "verify.lint_ms": 1e3 * median(self.samples["lint"]),
        }
        self.close()  # the daemon writes its trace as it drains
        trace = Trace.read_jsonl(str(self.trace_path))
        explores = [
            s for s in trace.spans
            if s.name == "prepare.explore" and s.t0 >= self.t_primed
        ]
        metrics["petri.explore.calls"] = len(explores) / passes
        metrics["petri.explore.busy_s"] = sum(s.duration for s in explores) / passes
        return metrics

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
