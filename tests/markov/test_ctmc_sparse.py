"""Sparse CTMC backend: construction, solver parity, caching, rewards."""

import numpy as np
import pytest
from scipy import sparse

from repro.markov.ctmc import CTMC, DENSE_MAX_STATES
from tests.markov.reference_solvers import sparse_steady_state


def random_generator(n: int, seed: int = 0, density: float = 0.3) -> np.ndarray:
    """A dense random irreducible-ish generator (cycle + random extras)."""
    rng = np.random.default_rng(seed)
    M = rng.random((n, n)) * (rng.random((n, n)) < density)
    for i in range(n):  # a cycle guarantees a single recurrent class
        M[i, (i + 1) % n] += 0.5
    np.fill_diagonal(M, 0.0)
    Q = M.copy()
    np.fill_diagonal(Q, -M.sum(axis=1))
    return Q


def mm1k_generator(lam: float, mu: float, K: int) -> dict:
    rates = {}
    for n in range(K):
        rates[(n, n + 1)] = lam
        rates[(n + 1, n)] = mu
    return rates


class TestConstruction:
    def test_sparse_input_selects_sparse_backend(self):
        Q = sparse.csr_matrix(random_generator(8))
        c = CTMC(Q)
        assert c.backend == "sparse"

    def test_dense_input_small_selects_dense_backend(self):
        c = CTMC(random_generator(8))
        assert c.backend == "dense"

    def test_explicit_backend_overrides_auto(self):
        Q = random_generator(8)
        assert CTMC(Q, backend="sparse").backend == "sparse"
        assert CTMC(sparse.csr_matrix(Q), backend="dense").backend == "dense"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CTMC(random_generator(4), backend="gpu")

    def test_sparse_negative_offdiagonal_rejected(self):
        Q = sparse.csr_matrix(
            np.array([[0.5, -0.5], [1.0, -1.0]])
        )
        with pytest.raises(ValueError, match="off-diagonal"):
            CTMC(Q)

    def test_sparse_rows_must_sum_to_zero(self):
        Q = sparse.csr_matrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))
        with pytest.raises(ValueError, match="sum to zero"):
            CTMC(Q)

    def test_dense_property_roundtrip(self):
        Qd = random_generator(6, seed=3)
        c = CTMC(sparse.csr_matrix(Qd), backend="sparse")
        assert np.allclose(c.Q, Qd)
        assert np.allclose(c.Q_sparse.toarray(), Qd)

    def test_from_rates_sparse_backend(self):
        c = CTMC.from_rates(mm1k_generator(1.0, 2.0, 10), backend="sparse")
        assert c.backend == "sparse"
        d = CTMC.from_rates(mm1k_generator(1.0, 2.0, 10), backend="dense")
        assert np.allclose(c.Q, d.Q)


class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steady_state_agrees(self, seed):
        Q = random_generator(12, seed=seed)
        pi_dense = CTMC(Q, backend="dense").steady_state()
        pi_sparse = CTMC(sparse.csr_matrix(Q), backend="sparse").steady_state()
        assert np.max(np.abs(pi_dense - pi_sparse)) < 1e-9

    def test_steady_state_agrees_mm1k(self):
        rates = mm1k_generator(1.0, 2.0, 30)
        pi_d = CTMC.from_rates(rates, backend="dense").steady_state()
        pi_s = CTMC.from_rates(rates, backend="sparse").steady_state()
        assert np.max(np.abs(pi_d - pi_s)) < 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 25.0])
    def test_transient_agrees(self, t):
        Q = random_generator(10, seed=7)
        p0 = np.zeros(10)
        p0[0] = 1.0
        got_d = CTMC(Q, backend="dense").transient(p0, t)
        got_s = CTMC(Q, backend="sparse").transient(p0, t)
        assert np.max(np.abs(got_d - got_s)) < 1e-9

    def test_transient_matches_expm_sparse(self):
        from scipy.linalg import expm

        Q = random_generator(6, seed=5)
        c = CTMC(Q, backend="sparse")
        p0 = np.zeros(6)
        p0[0] = 1.0
        want = p0 @ expm(Q * 1.7)
        assert np.allclose(c.transient(p0, 1.7), want, atol=1e-8)

    def test_holding_rate_and_embedded_dtmc_sparse(self):
        Q = random_generator(5, seed=11)
        cd = CTMC(Q, backend="dense")
        cs = CTMC(Q, backend="sparse")
        for s in range(5):
            assert cs.holding_rate(s) == pytest.approx(cd.holding_rate(s))
        assert np.allclose(cs.embedded_dtmc(), cd.embedded_dtmc())


class TestSingularNormalisation:
    """Both backends must raise ValueError on reducible/singular chains."""

    @staticmethod
    def disconnected_generator() -> np.ndarray:
        # two disjoint 2-state chains: the balance system is singular
        Q = np.zeros((4, 4))
        Q[0, 1] = Q[1, 0] = 1.0
        Q[2, 3] = Q[3, 2] = 1.0
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q

    def test_dense_branch_raises(self):
        c = CTMC(self.disconnected_generator(), backend="dense")
        with pytest.raises(ValueError):
            c.steady_state()

    def test_sparse_branch_raises(self):
        c = CTMC(self.disconnected_generator(), backend="sparse")
        with pytest.raises(ValueError):
            c.steady_state()


class TestSteadyStateCache:
    def test_cached_equals_fresh(self):
        c = CTMC.from_rates(mm1k_generator(1.0, 2.0, 8))
        first = c.steady_state()
        second = c.steady_state()
        assert np.array_equal(first, second)

    def test_solved_once(self, monkeypatch):
        c = CTMC.from_rates(mm1k_generator(1.0, 2.0, 8))
        calls = {"n": 0}
        original = CTMC._solve_steady_state

        def counting(self, *args):
            calls["n"] += 1
            return original(self, *args)

        monkeypatch.setattr(CTMC, "_solve_steady_state", counting)
        c.steady_state()
        c.steady_state()
        c.expected_reward_rate(np.ones(c.n))
        assert calls["n"] == 1

    def test_mutating_returned_vector_does_not_corrupt_cache(self):
        c = CTMC.from_rates(mm1k_generator(1.0, 2.0, 8))
        pi = c.steady_state()
        pi[:] = -1.0
        again = c.steady_state()
        assert again.sum() == pytest.approx(1.0)
        assert np.all(again >= 0.0)


class TestAccumulatedReward:
    """The incremental-stepping integrator keeps its accuracy contract."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matches_analytic_integral(self, backend):
        a = b = 1.0
        c = CTMC.from_rates(
            {("off", "on"): a, ("on", "off"): b}, backend=backend
        )
        t = 2.0
        acc = c.accumulated_reward(
            {"off": 1.0}, {"on": 1.0, "off": 0.0}, t, steps=512
        )
        want = 0.5 * t - 0.25 * (1.0 - np.exp(-2.0 * t))
        assert acc == pytest.approx(want, rel=1e-6)

    def test_long_horizon_linear_in_steady_state(self):
        # over a long horizon the accumulated reward approaches pi.r * t
        c = CTMC.from_rates({("off", "on"): 2.0, ("on", "off"): 1.0})
        r = {"on": 9.0, "off": 3.0}
        t = 500.0
        acc = c.accumulated_reward({"off": 1.0}, r, t, steps=128)
        assert acc == pytest.approx(c.expected_reward_rate(r) * t, rel=1e-2)

    def test_backends_agree(self):
        Q = random_generator(9, seed=13)
        p0 = np.zeros(9)
        p0[0] = 1.0
        r = np.linspace(0.0, 5.0, 9)
        acc_d = CTMC(Q, backend="dense").accumulated_reward(p0, r, 4.0)
        acc_s = CTMC(Q, backend="sparse").accumulated_reward(p0, r, 4.0)
        assert acc_d == pytest.approx(acc_s, abs=1e-9)


class TestSharedFactorisation:
    """The reference sparse LU reuses one symbolic analysis across a
    pattern family; the production GMRES path shares its state ordering
    (and nothing else) through ``factor_cache``."""

    def test_perm_reuse_matches_fresh_solve(self):
        Q1 = sparse.csr_matrix(random_generator(40, seed=1))
        pi1, perm = sparse_steady_state(Q1)
        assert perm.shape == (40,)
        # same sparsity pattern, different rates
        Q2 = sparse.csr_matrix(random_generator(40, seed=1))
        Q2.data = Q2.data * 1.7
        Q2 = Q2 - sparse.diags(np.asarray(Q2.sum(axis=1)).ravel())
        pi_reused, perm2 = sparse_steady_state(Q2, perm)
        pi_fresh, _ = sparse_steady_state(Q2)
        np.testing.assert_allclose(pi_reused, pi_fresh, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(perm2, perm)

    def test_wrong_length_perm_rejected(self):
        Q = sparse.csr_matrix(random_generator(10))
        with pytest.raises(ValueError, match="perm_c"):
            sparse_steady_state(Q, np.arange(5))

    def test_factor_cache_threads_through_ctmc(self):
        cache = {}
        Q = random_generator(DENSE_MAX_STATES + 20, seed=3, density=0.01)
        c1 = CTMC(Q, backend="sparse", factor_cache=cache)
        pi1 = c1.steady_state()
        assert set(cache) == {"rcm_perm", "residual_history"}
        c2 = CTMC(Q * 2.0, backend="sparse", factor_cache=cache)
        pi2 = c2.steady_state()
        # scaling a generator leaves its stationary distribution unchanged
        np.testing.assert_allclose(pi1, pi2, atol=1e-12)
        no_cache = CTMC(Q * 2.0, backend="sparse").steady_state()
        np.testing.assert_allclose(pi2, no_cache, atol=1e-12)

    def test_stale_cache_size_is_ignored_not_fatal(self):
        n = DENSE_MAX_STATES + 20
        cache = {"rcm_perm": np.arange(3)}
        c = CTMC(random_generator(n, seed=5, density=0.01), factor_cache=cache)
        pi = c.steady_state()
        assert pi.sum() == pytest.approx(1.0)
        assert cache["rcm_perm"].shape == (n,)
