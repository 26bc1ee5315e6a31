"""Queueing closed forms: textbook identities and cross-family limits."""

import math

import numpy as np
import pytest

from repro.markov.ctmc import CTMC, DENSE_MAX_STATES
from repro.markov.queueing import (
    MD1Queue,
    MG1Queue,
    MM1KQueue,
    MM1Queue,
    MMcQueue,
    little_l,
    little_w,
)


class TestMM1:
    def test_utilization(self):
        assert MM1Queue(1.0, 4.0).utilization == 0.25

    def test_mean_number_geometric(self):
        q = MM1Queue(1.0, 2.0)
        assert q.mean_number_in_system() == pytest.approx(1.0)
        assert q.mean_number_in_queue() == pytest.approx(0.5)

    def test_latency_and_little(self):
        q = MM1Queue(2.0, 5.0)
        assert q.mean_latency() == pytest.approx(1.0 / 3.0)
        assert little_l(2.0, q.mean_latency()) == pytest.approx(
            q.mean_number_in_system()
        )
        assert little_w(q.mean_number_in_system(), 2.0) == pytest.approx(
            q.mean_latency()
        )

    def test_state_probabilities_sum(self):
        q = MM1Queue(1.0, 3.0)
        assert sum(q.p_n(n) for n in range(200)) == pytest.approx(1.0)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            MM1Queue(2.0, 2.0)

    def test_p0_is_idle_probability(self):
        q = MM1Queue(1.0, 4.0)
        assert q.p_n(0) == pytest.approx(1.0 - q.utilization)


class TestMM1K:
    def test_limits_to_mm1_for_large_k(self):
        lam, mu = 1.0, 2.0
        finite = MM1KQueue(lam, mu, 80)
        infinite = MM1Queue(lam, mu)
        assert finite.mean_number_in_system() == pytest.approx(
            infinite.mean_number_in_system(), rel=1e-6
        )
        assert finite.blocking_probability() < 1e-20

    def test_rho_equal_one_uniform(self):
        q = MM1KQueue(1.0, 1.0, 4)
        assert q.p_n(2) == pytest.approx(0.2)
        assert q.mean_number_in_system() == pytest.approx(2.0)

    def test_probabilities_sum_to_one(self):
        q = MM1KQueue(2.0, 1.0, 6)  # overloaded is fine for finite K
        assert sum(q.p_n(n) for n in range(7)) == pytest.approx(1.0)

    def test_effective_rate_below_offered(self):
        q = MM1KQueue(3.0, 1.0, 3)
        assert q.effective_arrival_rate() < 3.0

    def test_latency_consistent_with_little(self):
        q = MM1KQueue(1.0, 2.0, 5)
        assert q.mean_latency() == pytest.approx(
            q.mean_number_in_system() / q.effective_arrival_rate()
        )

    @pytest.mark.parametrize("a", [1.05, 1.5, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("K", [1, 5, 40, 200])
    def test_overloaded_matches_direct_powers(self, a, K):
        """Where ``a ** (K + 1)`` is finite, the powers-of-``1/a`` forms
        agree with the textbook ones."""
        q = MM1KQueue(a, 1.0, K)
        direct = [(1.0 - a) * a**n / (1.0 - a ** (K + 1)) for n in range(K + 1)]
        np.testing.assert_allclose(
            [q.p_n(n) for n in range(K + 1)], direct, rtol=1e-12, atol=0
        )
        mean = a / (1.0 - a) - (K + 1) * a ** (K + 1) / (1.0 - a ** (K + 1))
        assert q.mean_number_in_system() == pytest.approx(mean, rel=1e-12)

    def test_overloaded_large_capacity_is_finite(self):
        K, a = 1000, 4.0
        q = MM1KQueue(8.0, 2.0, K)
        assert q.mean_number_in_system() == pytest.approx(
            K - 1.0 / (a - 1.0), rel=1e-12
        )
        assert q.blocking_probability() == pytest.approx(1.0 - 1.0 / a)
        assert q.p_n(0) == 0.0  # (1/4) ** 1001 underflows, as it should
        assert sum(q.p_n(n) for n in range(K + 1)) == pytest.approx(1.0)

    def test_out_of_range_n(self):
        q = MM1KQueue(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            q.p_n(4)


def _mm1k_chain(lam: float, mu: float, K: int) -> CTMC:
    rates = {}
    for n in range(K):
        rates[(n, n + 1)] = lam
        rates[(n + 1, n)] = mu
    return CTMC.from_rates(rates, labels=list(range(K + 1)))


class TestMM1KSolvedChain:
    """The solved M/M/1/K chain against its closed form, at 1e-12 relative.

    Past a few hundred states the tail of a stable queue holds entries far
    below 1e-13 whose sum, weighted by the queue length, moves the mean by
    more than 1e-12; the steady-state solve must keep them, and must not
    add round-off of its own there.  Up to ``DENSE_MAX_STATES`` states the
    chain solves by dense LU, above by GMRES.
    """

    @pytest.mark.parametrize("K", [100, 250, 499, 600, 1000, 2000])
    @pytest.mark.parametrize("rho", [0.5, 0.6, 0.8, 0.9, 0.95, 0.99])
    def test_mean_and_utilization(self, rho, K):
        mu = 2.0
        lam = rho * mu
        chain = _mm1k_chain(lam, mu, K)
        assert chain.resolve_method() == ("lu" if K < DENSE_MAX_STATES else "gmres")
        pi = chain.steady_state()
        q = MM1KQueue(lam, mu, K)
        assert float(np.arange(K + 1) @ pi) == pytest.approx(
            q.mean_number_in_system(), rel=1e-12, abs=0.0
        )
        assert 1.0 - pi[0] == pytest.approx(q.utilization(), rel=1e-12, abs=0.0)


class TestMMc:
    def test_c1_reduces_to_mm1(self):
        lam, mu = 1.0, 3.0
        mmc = MMcQueue(lam, mu, 1)
        mm1 = MM1Queue(lam, mu)
        assert mmc.erlang_c() == pytest.approx(mm1.utilization)
        assert mmc.mean_number_in_system() == pytest.approx(
            mm1.mean_number_in_system()
        )
        assert mmc.mean_latency() == pytest.approx(mm1.mean_latency())

    def test_more_servers_less_waiting(self):
        lam, mu = 3.0, 1.0
        w4 = MMcQueue(lam, mu, 4).mean_waiting_time()
        w8 = MMcQueue(lam, mu, 8).mean_waiting_time()
        assert w8 < w4

    def test_erlang_c_in_unit_interval(self):
        q = MMcQueue(5.0, 1.0, 7)
        assert 0.0 < q.erlang_c() < 1.0

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            MMcQueue(4.0, 1.0, 4)


class TestMG1:
    def test_exponential_service_recovers_mm1(self):
        lam, mu = 1.0, 2.5
        mg1 = MG1Queue(lam, 1.0 / mu, 1.0)  # cv^2 = 1
        mm1 = MM1Queue(lam, mu)
        assert mg1.mean_waiting_time() == pytest.approx(mm1.mean_waiting_time())
        assert mg1.mean_number_in_system() == pytest.approx(
            mm1.mean_number_in_system()
        )

    def test_md1_half_the_mm1_wait(self):
        lam, mu = 1.0, 2.0
        md1 = MD1Queue(lam, 1.0 / mu)
        mm1 = MM1Queue(lam, mu)
        assert md1.mean_waiting_time() == pytest.approx(
            mm1.mean_waiting_time() / 2.0
        )

    def test_variability_hurts(self):
        base = MG1Queue(1.0, 0.4, 0.0)
        bursty = MG1Queue(1.0, 0.4, 4.0)
        assert bursty.mean_waiting_time() > base.mean_waiting_time()

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            MG1Queue(2.0, 0.5, 1.0)

    def test_negative_cv2_rejected(self):
        with pytest.raises(ValueError):
            MG1Queue(1.0, 0.5, -0.1)


class TestLittlesLaw:
    def test_roundtrip(self):
        assert little_w(little_l(2.0, 3.0), 2.0) == pytest.approx(3.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            little_w(1.0, 0.0)
