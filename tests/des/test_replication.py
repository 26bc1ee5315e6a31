"""Replication runner: reproducibility, aggregation, parallel equivalence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.des.random_streams import StreamManager
from repro.des.replication import run_replications
from repro.des.statistics import confidence_interval


def _model(streams: StreamManager, loc: float = 10.0) -> dict:
    """Toy model: one noisy metric plus its replication-identifying draw."""
    rng = streams.get("noise")
    return {"metric": loc + float(rng.normal()), "draw": float(rng.random())}


def _two_key_model(streams: StreamManager) -> dict:
    """Metric set depends on the replication's first draw -> inconsistent."""
    rng = streams.get("n")
    val = float(rng.random())
    if val < 0.5:
        return {"a": val}
    return {"a": val, "extra": 1.0}


class TestBasics:
    def test_summary_shape(self):
        s = run_replications(_model, n_replications=8, seed=1)
        assert s.n == 8
        assert set(s.means) == {"metric", "draw"}
        assert len(s.replications) == 8

    def test_reproducible_given_seed(self):
        a = run_replications(_model, n_replications=5, seed=42)
        b = run_replications(_model, n_replications=5, seed=42)
        assert a.means == b.means

    def test_replications_are_distinct(self):
        s = run_replications(_model, n_replications=5, seed=42)
        draws = s.metric_samples("draw")
        assert len(np.unique(draws)) == 5

    def test_mean_estimates_location(self):
        s = run_replications(_model, n_replications=100, seed=0, loc=3.0)
        assert s.means["metric"] == pytest.approx(3.0, abs=0.5)

    def test_ci_contains_mean(self):
        s = run_replications(_model, n_replications=30, seed=0)
        lo, hi = s.intervals["metric"]
        assert lo <= s.means["metric"] <= hi

    def test_half_width_helpers(self):
        s = run_replications(_model, n_replications=30, seed=0)
        assert s.half_width("metric") > 0.0
        assert s.relative_half_width("metric") > 0.0

    def test_intervals_equal_per_metric_confidence_interval(self):
        s = run_replications(_model, n_replications=12, seed=4, level=0.9)
        for name in ("metric", "draw"):
            samples = np.asarray([r.metrics[name] for r in s.replications])
            assert s.intervals[name] == confidence_interval(samples, 0.9)
        assert s.intervals is s.intervals  # computed once, then cached

    def test_run_replications_leaves_scipy_stats_unloaded(self):
        # the intervals need scipy.stats; they are computed on first read
        env = dict(
            os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src")
        )
        code = (
            "import sys\n"
            "from repro.des.replication import run_replications\n"
            "def model(streams):\n"
            "    return {'x': float(streams.get('x').random())}\n"
            "s = run_replications(model, n_replications=4, seed=1)\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
            "assert s.half_width('x') > 0.0 and 'scipy.stats' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_replications(_model, n_replications=0)

    def test_inconsistent_metrics_detected(self):
        with pytest.raises(ValueError):
            run_replications(_two_key_model, n_replications=20, seed=3)


class TestParallel:
    def test_parallel_equals_serial(self):
        serial = run_replications(_model, n_replications=6, seed=9, n_jobs=1)
        parallel = run_replications(_model, n_replications=6, seed=9, n_jobs=2)
        assert serial.means == parallel.means
        for a, b in zip(serial.replications, parallel.replications):
            assert a.index == b.index
            assert a.metrics == b.metrics
