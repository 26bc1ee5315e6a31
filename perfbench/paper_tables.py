"""``paper-tables``: Figures 4-5 and Tables 4-5 at the fast experiment
configuration, through the public ``repro.core.comparison`` functions.

The paper's artifact is three Power Up Delays times the five fast
thresholds; at each of those 15 points the simulation, Markov, Petri-net
and exact models are solved, and each delay's five points make its
Table 4 and Table 5 rows.  One pass (one operation) solves one point:
``run_threshold_sweep`` over that single threshold, with the seed
shifted so the simulation and Petri-net streams are exactly those the
full sweep gives the point.  Passes cycle through the points, so the
whole artifact's time is the sum of each point's median, and whenever a
delay's five points are done its Table 4 and 5 rows are computed and
checked.  ``paper_experiments._sweep_for_delay`` is deliberately
bypassed: its ``lru_cache`` would serve every repetition after the first.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from harness import CheckFailed, check, median, peak_rss_mb, probe_setup_median
from layers import LayerRecorder, kernel_layers

DELAYS = (0.001, 0.3, 10.0)
MODELS = ("simulation", "markov", "petri", "exact")
PAIRS = (
    ("simulation", "markov"),
    ("simulation", "petri"),
    ("markov", "petri"),
    ("markov", "exact"),
)
#: ``run_threshold_sweep`` seeds point *i* with ``seed + i`` for the
#: simulation and ``seed + PETRI_SEED_STEP * (i + 1)`` for the Petri net
PETRI_SEED_STEP = 7919

#: Upper bounds on the Sim-PN Table 4 delta (summed percentage points),
#: per Power Up Delay: twice the largest value seen over seeds 0-19 at
#: the commit that introduced this benchmark (2.00 / 2.31 / 2.08).
SIM_PN_MAX_PCT = {0.001: 4.0, 0.3: 4.6, 10.0: 4.2}
#: Markov-exact Table 4 deltas at that commit (both models are
#: deterministic, so any seed gives these).
MARKOV_EXACT_PCT = {
    0.001: 5.796139945712323e-05,
    0.3: 3.3686640266952574,
    10.0: 102.93144340886336,
}
MARKOV_EXACT_RTOL = 1e-6

#: per-point layer tallies; the artifact's values are sums over points
RAW_KEYS = ("petri.busy", "petri.firings", "des.busy", "des.events", "closed_form.busy")


class PaperTables:
    name = "paper-tables"
    layer_keys = (
        "petri.sim.firings",
        "petri.sim.busy_s",
        "petri.sim.us_per_firing",
        "des.sim.events",
        "des.sim.busy_s",
        "des.sim.us_per_event",
        "core.closed_form.busy_s",
    )

    def __init__(self, seed: int, workdir) -> None:
        from repro.experiments.paper_experiments import ExperimentConfig

        # the CLI's fast `run` configuration, with the simulation seed
        # drawn from the benchmark seed
        experiment = ExperimentConfig(fast=True, seed=20080901 + 1000 * seed)
        self.config = experiment.sweep_config()
        self.thresholds = experiment.thresholds()
        #: the artifact's points, (delay, threshold index), delay-major
        self.parts: Tuple[Tuple[float, int], ...] = tuple(
            (d, i) for d in DELAYS for i in range(len(self.thresholds))
        )
        self.passes = 0
        self.fractions: Dict[str, list] = {m: [] for m in MODELS}
        self.layer_samples: Dict[Tuple[float, int], Dict[str, List[float]]] = {
            p: {k: [] for k in RAW_KEYS} for p in self.parts
        }

    @property
    def part(self) -> Tuple[float, int]:
        """The point the next pass solves."""
        return self.parts[self.passes % len(self.parts)]

    def start(self, probe: bool = True, traced: bool = False) -> float:
        return probe_setup_median(self.name) if probe else 0.0

    def run_pass(self, traced: bool = False):
        from repro.core.comparison import run_threshold_sweep
        from repro.core.params import CPUModelParams

        delay, i = self.part
        self.passes += 1
        params = CPUModelParams.paper_defaults(D=delay)
        thresholds = [self.thresholds[i]]
        seed = self.config.seed
        runs = (
            (("simulation", "markov", "exact"), seed + i),
            (("petri",), seed + PETRI_SEED_STEP * i),
        )
        recorder = LayerRecorder()
        t0 = time.perf_counter()
        with kernel_layers(recorder) if traced else nullcontext():
            for models, point_seed in runs:
                config = dataclasses.replace(self.config, seed=point_seed)
                result = run_threshold_sweep(params, thresholds, models, config)
                for m in models:
                    self.fractions[m].extend(result.fractions[m])
        wall = time.perf_counter() - t0
        if traced:
            self._record((delay, i), recorder)
        if i == len(self.thresholds) - 1:
            self._check_delay(delay)
        return [wall], 0, wall

    def _check_delay(self, delay: float) -> None:
        """Table 4 and 5 rows of the delay whose points just completed."""
        from repro.core.comparison import SweepResult, delta_table, energy_delta_table
        from repro.core.params import CPUModelParams

        n = len(self.thresholds)
        check(all(len(f) == n for f in self.fractions.values()),
              f"D={delay}: points missing from the sweep")
        sweeps = {
            delay: SweepResult(
                base_params=CPUModelParams.paper_defaults(D=delay),
                power_up_delay=delay,
                thresholds=[float(t) for t in self.thresholds],
                fractions=self.fractions,
            )
        }
        self.fractions = {m: [] for m in MODELS}
        table4 = delta_table(sweeps, pairs=PAIRS)
        table5 = energy_delta_table(sweeps, pairs=PAIRS)
        row = table4[0]
        sim_pn = row["simulation-petri"]
        check(
            0.0 <= sim_pn <= SIM_PN_MAX_PCT[delay],
            f"Sim-PN delta {sim_pn:.4f} pp at D={delay} exceeds "
            f"{SIM_PN_MAX_PCT[delay]:.4f}",
        )
        markov_exact = row["markov-exact"]
        expected = MARKOV_EXACT_PCT[delay]
        check(
            abs(markov_exact - expected) <= MARKOV_EXACT_RTOL * expected,
            f"Markov-exact delta {markov_exact!r} at D={delay}, "
            f"expected {expected!r}",
        )
        for a, b in PAIRS:
            check(table5[0][f"{a}-{b}"] >= 0.0, "negative energy delta")

    def _record(self, point: Tuple[float, int], recorder: LayerRecorder) -> None:
        firings = recorder.count["petri.sim"]
        events = recorder.count["des.sim"]
        if firings <= 0 or events <= 0:
            raise CheckFailed("traced pass saw no firings or no DES events")
        samples = self.layer_samples[point]
        samples["petri.busy"].append(recorder.busy["petri.sim"])
        samples["petri.firings"].append(firings)
        samples["des.busy"].append(recorder.busy["des.sim"])
        samples["des.events"].append(events)
        samples["closed_form.busy"].append(recorder.busy["core.closed_form"])

    def final_checks(self) -> None:
        """Finish the delay in progress, unmeasured, so that its points'
        results are checked too."""
        while self.part[1] != 0:
            self.run_pass()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def layer_metrics(self) -> Dict[str, float]:
        """Per whole artifact: each tally's per-point medians, summed."""
        total = {
            k: sum(median(s[k]) for s in self.layer_samples.values()) for k in RAW_KEYS
        }
        return {
            "petri.sim.firings": total["petri.firings"],
            "petri.sim.busy_s": total["petri.busy"],
            "petri.sim.us_per_firing": 1e6 * total["petri.busy"] / total["petri.firings"],
            "des.sim.events": total["des.events"],
            "des.sim.busy_s": total["des.busy"],
            "des.sim.us_per_event": 1e6 * total["des.busy"] / total["des.events"],
            "core.closed_form.busy_s": total["closed_form.busy"],
        }

    def close(self) -> None:
        pass
