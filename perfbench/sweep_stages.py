"""``sweep-stages``: the phase-type CPU model over a 2-D grid at the
template-size matrix.

The grid is 100 Power Down Thresholds (a seeded jitter around an even
spacing of 0.05-2.0 s) times Power Up Delays {0.001, 0.3} s.  One pass
solves it at stages 2, 16, 32 (the CLI default) and 64 (the paper's full
size), each with a fresh ``PhaseTypeBackend`` and a fresh
``BatchedPhaseTypeBackend`` through ``SweepRunner`` — as every
``repro sweep`` invocation does; one operation per (stages, backend).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np

from harness import check, median, peak_rss_mb, probe_setup_median, table
from layers import LayerRecorder, markov_self_s, span_totals

STAGES = (2, 16, 32, 64)
METRICS = ("power", "fraction:standby", "fraction:active")
N_THRESHOLDS = 100
DELAYS = (0.001, 0.3)

#: batched rows must match pointwise rows this closely
PARITY_ATOL = 1e-9
#: stage truncation must leave (numerically) no probability mass behind
TRUNCATION_MAX = 1e-6
#: stage-64 power against the exact renewal solution (0.27 mW measured)
RENEWAL_POWER_ATOL_MW = 0.3


def threshold_grid(seed: int) -> List[float]:
    rng = np.random.default_rng(seed)
    base = np.linspace(0.05, 2.0, N_THRESHOLDS)
    step = base[1] - base[0]
    jitter = rng.uniform(-0.25 * step, 0.25 * step, N_THRESHOLDS)
    jitter[[0, -1]] = 0.0  # keep the end points, where the error peaks
    return [float(t) for t in base + jitter]


class SweepStages:
    name = "sweep-stages"
    layer_keys = tuple(
        f"sweep.{kind}.s{s}.us_per_point"
        for kind in ("pointwise", "batched")
        for s in STAGES
    ) + (
        "backend.prepare_s",
        "markov.solve.self_s",
        "markov.batch.points",
        "markov.batch.isolation_fallbacks",
        "markov.gmres.iterations",
        "engine.self_s",
        "verify.preflight_s",
    )

    def __init__(self, seed: int, workdir) -> None:
        from repro.sweep import SweepGrid

        self.grid = SweepGrid({"T": threshold_grid(seed), "D": list(DELAYS)})
        self.n_points = len(self.grid.points())
        self.layer_samples: Dict[str, List[float]] = {k: [] for k in self.layer_keys}

    def start(self, probe: bool = True, traced: bool = False) -> float:
        return probe_setup_median(self.name) if probe else 0.0

    def run_pass(self, traced: bool = False):
        from repro import obs
        from repro.sweep import BatchedPhaseTypeBackend, PhaseTypeBackend, SweepRunner

        recorder = LayerRecorder()
        latencies: List[float] = []
        failed = 0
        tables: Dict[tuple, np.ndarray] = {}
        t_pass = time.perf_counter()
        with obs.tracing("sweep-stages") if traced else nullcontext() as trace:
            for stages in STAGES:
                for kind, cls in (
                    ("pointwise", PhaseTypeBackend),
                    ("batched", BatchedPhaseTypeBackend),
                ):
                    t0 = time.perf_counter()
                    backend = cls(stages=stages)
                    if traced:
                        for method in ("solve", "solve_batch", "evaluate"):
                            setattr(backend, method, recorder.timed(
                                "backend", getattr(backend, method)))
                    t_prep = time.perf_counter()
                    backend.prepare()
                    recorder.busy["prepare"] += time.perf_counter() - t_prep
                    result = SweepRunner(backend, list(METRICS)).run(self.grid)
                    latency = time.perf_counter() - t0
                    latencies.append(latency)
                    recorder.busy[f"{kind}.s{stages}"] = latency
                    failed += result.n_failed > 0
                    tables[kind, stages] = table(result)
        wall = time.perf_counter() - t_pass
        for stages in STAGES:
            diff = np.abs(tables["batched", stages] - tables["pointwise", stages])
            check(
                float(diff.max()) <= PARITY_ATOL,
                f"stages {stages}: batched rows differ from pointwise by "
                f"{float(diff.max()):.3e}",
            )
        if traced:
            self._record(recorder, trace)
        return latencies, failed, wall

    def _record(self, recorder: LayerRecorder, trace) -> None:
        samples = self.layer_samples
        for kind in ("pointwise", "batched"):
            for s in STAGES:
                samples[f"sweep.{kind}.s{s}.us_per_point"].append(
                    1e6 * recorder.busy[f"{kind}.s{s}"] / self.n_points
                )
        totals = span_totals(trace)
        samples["backend.prepare_s"].append(recorder.busy["prepare"])
        samples["markov.solve.self_s"].append(markov_self_s(totals))
        counters = trace.counters
        samples["markov.batch.points"].append(counters.get("solver.batch.points", 0.0))
        samples["markov.batch.isolation_fallbacks"].append(
            counters.get("solver.batch.isolation_fallbacks", 0.0)
        )
        samples["markov.gmres.iterations"].append(
            counters.get("solver.gmres.iterations", 0.0)
        )
        samples["engine.self_s"].append(
            totals["sweep.run"] - recorder.busy["backend"]
        )
        samples["verify.preflight_s"].append(totals["sweep.preflight"])

    def final_checks(self) -> None:
        """Truncation mass and the renewal cross-check, once per run."""
        from repro.sweep import PhaseTypeBackend, RenewalBackend, SweepRunner

        exact = table(SweepRunner(RenewalBackend(), ["power"]).run(self.grid))[:, 0]
        for stages in STAGES:
            result = table(
                SweepRunner(
                    PhaseTypeBackend(stages=stages), ["truncation_mass", "power"]
                ).run(self.grid)
            )
            check(
                float(result[:, 0].max()) < TRUNCATION_MAX,
                f"stages {stages}: truncation mass {float(result[:, 0].max()):.3e}",
            )
            if stages == 64:
                gap = float(np.abs(result[:, 1] - exact).max())
                check(
                    gap <= RENEWAL_POWER_ATOL_MW,
                    f"stage-64 power is {gap:.4f} mW from the renewal solution",
                )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def layer_metrics(self) -> Dict[str, float]:
        return {k: median(v) for k, v in self.layer_samples.items()}

    def close(self) -> None:
        pass
