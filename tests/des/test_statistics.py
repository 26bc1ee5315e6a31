"""Statistics collectors: hand-computed trajectories and known answers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.des.statistics import (
    BatchMeans,
    TallyStatistic,
    TimeWeightedStatistic,
    confidence_interval,
    mser_truncation_point,
)


class TestTimeWeighted:
    def test_piecewise_constant_average(self):
        # value 2 on [0,1), 4 on [1,3) -> mean = (2*1 + 4*2)/3
        s = TimeWeightedStatistic(2.0)
        s.update(1.0, 4.0)
        assert s.time_average(3.0) == pytest.approx((2.0 + 8.0) / 3.0)

    def test_finalize_closes_last_segment(self):
        s = TimeWeightedStatistic(1.0)
        s.update(2.0, 3.0)
        assert s.finalize(4.0) == pytest.approx((1.0 * 2.0 + 3.0 * 2.0) / 4.0)

    def test_start_time_offsets_window(self):
        s = TimeWeightedStatistic(5.0, start_time=10.0)
        s.update(12.0, 0.0)
        assert s.time_average(14.0) == pytest.approx(10.0 / 4.0)

    def test_time_variance_of_indicator(self):
        # indicator on half the window: variance = p(1-p) = 0.25
        s = TimeWeightedStatistic(1.0)
        s.update(5.0, 0.0)
        assert s.time_variance(10.0) == pytest.approx(0.25)

    def test_backwards_time_rejected(self):
        s = TimeWeightedStatistic(0.0)
        s.update(2.0, 1.0)
        with pytest.raises(ValueError):
            s.update(1.0, 2.0)

    def test_min_max_tracking(self):
        s = TimeWeightedStatistic(3.0)
        s.update(1.0, -2.0)
        s.update(2.0, 7.0)
        assert s.minimum() == -2.0
        assert s.maximum() == 7.0

    def test_zero_length_window(self):
        s = TimeWeightedStatistic(42.0)
        assert s.time_average() == 42.0

    def test_repeated_updates_same_time(self):
        s = TimeWeightedStatistic(1.0)
        s.update(1.0, 2.0)
        s.update(1.0, 3.0)  # zero-width segment contributes nothing
        assert s.time_average(2.0) == pytest.approx((1.0 + 3.0) / 2.0)


class TestTally:
    def test_mean_and_variance_match_numpy(self, rng):
        data = rng.normal(5.0, 2.0, size=500)
        t = TallyStatistic()
        t.record_many(data)
        assert t.mean == pytest.approx(float(np.mean(data)))
        assert t.variance == pytest.approx(float(np.var(data, ddof=1)))
        assert t.count == 500

    def test_empty_tally_is_nan(self):
        t = TallyStatistic()
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)

    def test_single_observation(self):
        t = TallyStatistic()
        t.record(3.0)
        assert t.mean == 3.0
        assert math.isnan(t.variance)

    def test_merge_equals_combined(self, rng):
        a_data = rng.normal(size=300)
        b_data = rng.normal(loc=2.0, size=200)
        a, b, c = TallyStatistic(), TallyStatistic(), TallyStatistic()
        a.record_many(a_data)
        b.record_many(b_data)
        c.record_many(np.concatenate([a_data, b_data]))
        merged = a.merge(b)
        assert merged.mean == pytest.approx(c.mean)
        assert merged.variance == pytest.approx(c.variance)
        assert merged.count == 500

    def test_merge_with_empty(self):
        a = TallyStatistic()
        a.record(1.0)
        merged = a.merge(TallyStatistic())
        assert merged.mean == 1.0
        assert merged.count == 1

    def test_extrema(self):
        t = TallyStatistic()
        t.record_many([3.0, -1.0, 7.0])
        assert t.minimum == -1.0
        assert t.maximum == 7.0


class TestConfidenceInterval:
    def test_contains_true_mean_usually(self, rng):
        # coverage check: ~95% of intervals should contain the true mean
        hits = 0
        trials = 300
        for i in range(trials):
            data = np.random.default_rng(i).normal(10.0, 3.0, size=30)
            lo, hi = confidence_interval(data, 0.95)
            hits += lo <= 10.0 <= hi
        assert hits / trials > 0.90

    def test_single_sample_degenerate(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_empty_is_nan(self):
        lo, hi = confidence_interval([])
        assert math.isnan(lo) and math.isnan(hi)

    def test_zero_variance(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.5)

    def test_width_shrinks_with_n(self, rng):
        small = rng.normal(size=20)
        big = rng.normal(size=2000)
        w_small = np.diff(confidence_interval(small))[0]
        w_big = np.diff(confidence_interval(big))[0]
        assert w_big < w_small


class TestBatchMeans:
    def test_batches_formed_correctly(self):
        bm = BatchMeans(batch_size=3)
        for x in [1, 2, 3, 4, 5, 6, 7]:
            bm.record(float(x))
        assert bm.batch_count == 2
        assert list(bm.batch_means) == [2.0, 5.0]

    def test_mean_over_batches(self):
        bm = BatchMeans(2)
        for x in [1.0, 3.0, 5.0, 7.0]:
            bm.record(x)
        assert bm.mean() == pytest.approx(4.0)

    def test_ci_reasonable(self, rng):
        bm = BatchMeans(50)
        for x in rng.normal(1.0, 1.0, size=5000):
            bm.record(float(x))
        lo, hi = bm.confidence_interval()
        assert lo < 1.0 < hi

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchMeans(0)


class TestMSER:
    def test_detects_initial_transient(self, rng):
        # biased start: first 100 samples high, then stationary around 0
        transient = np.linspace(10.0, 0.0, 100)
        stationary = rng.normal(0.0, 1.0, size=900)
        series = np.concatenate([transient, stationary])
        cut = mser_truncation_point(series, batch=5)
        assert 40 <= cut <= 200

    def test_stationary_series_keeps_everything(self, rng):
        series = rng.normal(size=1000)
        cut = mser_truncation_point(series, batch=5)
        assert cut < 250  # no large truncation for stationary data

    def test_short_series_returns_zero(self):
        assert mser_truncation_point([1.0, 2.0, 3.0], batch=5) == 0


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the package's import time; only
    # confidence_interval needs it, and it imports it on first use
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, repro.experiments.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        "from repro.des.statistics import confidence_interval\n"
        "lo, hi = confidence_interval([1.0, 2.0, 3.0])\n"
        "assert lo < 2.0 < hi and 'scipy.stats' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
