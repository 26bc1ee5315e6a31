"""``fanout``: one fixed pair of grids through both worker-dispatch loops.

One pass is three operations:

- a 500-point ``mm1k`` grid (sub-millisecond points) on
  ``DistributedSweepRunner(n_shards=2)``: per-point ``row`` frames;
- a 2000-point ``phase-type-batched`` stages-2 grid on the same
  runner: stacked ``rows`` frames;
- the same ``mm1k`` grid as a single request to ``serve --workers 2``:
  the service ``WorkerPool``.

Every result must be bit-identical to the serial ``SweepRunner``.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from harness import (
    Daemon,
    ServiceClient,
    check,
    median,
    peak_rss_mb,
    sorted_uniform,
    start_daemon_median,
    table,
)
from layers import LayerRecorder

SHARDS = 2
MM1K_METRICS = ["mean_tokens:queue", "probability_positive:queue", "throughput:serve"]
CPU_METRICS = ["fraction:standby", "fraction:active", "power"]
#: how often the traced run samples the pool's idle/connected workers
POOL_POLL_S = 0.01


class Fanout:
    name = "fanout"
    layer_keys = (
        "dist.wall_s",
        "dist.frames",
        "dist.requeues",
        "pool.wall_s",
        "pool.workers_busy",
    )

    def __init__(self, seed: int, workdir) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.mm1k_axes = {
            "arrive": sorted_uniform(rng, 0.2, 1.8, 25),
            "serve": sorted_uniform(rng, 1.0, 2.5, 20),
        }
        self.batched_axes = {
            "T": sorted_uniform(rng, 0.05, 2.0, 50),
            "D": sorted_uniform(rng, 0.001, 0.5, 40),
        }
        self.references: Dict[str, np.ndarray] = {}
        self.daemon: Optional[Daemon] = None
        self.client: Optional[ServiceClient] = None
        self.samples: Dict[str, List[float]] = {k: [] for k in self.layer_keys}

    def _models(self):
        from repro.sweep import BatchedPhaseTypeBackend, GSPNBackend, build_mm1k_net

        return {
            "mm1k": (GSPNBackend(build_mm1k_net()), MM1K_METRICS, self.mm1k_axes),
            "batched": (BatchedPhaseTypeBackend(stages=2), CPU_METRICS, self.batched_axes),
        }

    def start(self, probe: bool = True, traced: bool = False) -> float:
        from repro.sweep import SweepGrid, SweepRunner

        args = ["--workers", str(SHARDS)]
        log_path = self.workdir / "fanout.log"
        if probe:
            self.daemon, setup_s = start_daemon_median(args, log_path, workers=SHARDS)
        else:
            self.daemon = Daemon(args, log_path)
            setup_s = self.daemon.start(workers=SHARDS)
        self.client = ServiceClient(self.daemon.address)
        if not self.references:
            for key, (model, metrics, axes) in self._models().items():
                self.references[key] = table(SweepRunner(model, metrics).run(SweepGrid(axes)))
        return setup_s

    def run_pass(self, traced: bool = False):
        from repro import obs
        from repro.sweep import SweepGrid
        from repro.sweep.distributed import DistributedSweepRunner
        import repro.sweep.distributed.coordinator as coordinator

        recorder = LayerRecorder()
        latencies: List[float] = []
        failed = 0
        t_pass = time.perf_counter()
        for key, (model, metrics, axes) in self._models().items():
            with obs.tracing("fanout") if traced else nullcontext() as trace:
                if traced:
                    original = coordinator.recv_message

                    async def counting_recv(reader):
                        recorder.count["dist.frames"] += 1
                        return await original(reader)

                    recorder.patch(coordinator, "recv_message", counting_recv)
                try:
                    t0 = time.perf_counter()
                    with DistributedSweepRunner(model, metrics, n_shards=SHARDS) as runner:
                        result = runner.run(SweepGrid(axes))
                    latencies.append(time.perf_counter() - t0)
                finally:
                    recorder.restore()
            recorder.busy["dist"] += latencies[-1]
            if traced:
                recorder.count["dist.requeues"] += trace.counters.get("dist.requeues", 0.0)
            failed += result.n_failed > 0
            check(
                np.array_equal(table(result), self.references[key]),
                f"distributed {key} rows differ from the serial runner",
            )

        payload = {
            "op": "sweep",
            "model": {"kind": "gspn", "net": "mm1k"},
            "axes": self.mm1k_axes,
            "metrics": MM1K_METRICS,
        }
        busy_peak = [0]
        poller = None
        done = threading.Event()
        if traced:
            poller = threading.Thread(target=self._poll_pool, args=(done, busy_peak))
            poller.start()
        try:
            t0 = time.perf_counter()
            reply = self.client.request(payload)
            latencies.append(time.perf_counter() - t0)
        finally:
            done.set()
            if poller is not None:
                poller.join()
        wall = time.perf_counter() - t_pass
        if reply.get("kind") != "result" or reply["errors"]:
            failed += 1
        else:
            check(
                np.array_equal(np.array(reply["rows"]), self.references["mm1k"]),
                "service-pool rows differ from the serial runner",
            )
        if traced:
            self.samples["dist.wall_s"].append(recorder.busy["dist"])
            self.samples["dist.frames"].append(recorder.count["dist.frames"])
            self.samples["dist.requeues"].append(recorder.count["dist.requeues"])
            self.samples["pool.wall_s"].append(latencies[-1])
            self.samples["pool.workers_busy"].append(busy_peak[0])
        return latencies, failed, wall

    def _poll_pool(self, done: threading.Event, busy_peak: List[int]) -> None:
        """Sample how many pool workers hold work while the request runs."""
        client = ServiceClient(self.daemon.address)
        try:
            while not done.is_set():
                workers = client.request({"op": "stats"})["stats"]["workers"]
                busy_peak[0] = max(busy_peak[0], workers["connected"] - workers["idle"])
                done.wait(POOL_POLL_S)
        finally:
            client.close()

    def final_checks(self) -> None:
        stats = self.client.request({"op": "stats"})["stats"]
        check(stats["workers"]["deaths"] == 0, f"pool workers died: {stats['workers']}")

    def peak_rss_mb(self) -> float:
        """Largest peak RSS among the processes doing the work: this
        coordinator, its reaped shard workers, the daemon and its pool."""
        stats = self.client.request({"op": "stats"})["stats"]
        pids = [self.daemon.pid, *stats["workers"]["pids"]]
        children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return max([peak_rss_mb(), children_mb] + [peak_rss_mb(p) for p in pids])

    def layer_metrics(self) -> Dict[str, float]:
        return {k: median(v) for k, v in self.samples.items()}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
