"""The steady-state size rule (dense LU, then GMRES), GMRES itself, and
the power-iteration reference it is cross-checked against."""

import pickle

import numpy as np
import pytest
from scipy import sparse

import repro.markov.ctmc as ctmc_mod
from repro.markov.ctmc import (
    CTMC,
    DENSE_MAX_STATES,
    ConvergenceError,
    gmres_steady_state,
    resolve_steady_state_method,
)
from tests.markov.reference_solvers import (
    power_steady_state,
    sparse_steady_state,
)


def _cyclic_chain(n=6, fast=5.0, slow=0.01):
    """An irreducible ring with one slow link (mixes slowly)."""
    rates = {}
    for i in range(n):
        rates[(i, (i + 1) % n)] = slow if i == 0 else fast
        rates[(i, (i - 1) % n)] = fast
    return CTMC.from_rates(rates)


def _birth_death(n, lam=1.0, mu=2.0):
    """An *n*-state birth-death chain, stored sparse (GMRES past the rule)."""
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = lam
        rates[(i + 1, i)] = mu
    return CTMC.from_rates(rates, labels=list(range(n)), backend="sparse")


class TestMethodAgreement:
    def test_all_methods_agree_small_dense(self):
        Q = [[-1.0, 0.6, 0.4], [0.5, -1.5, 1.0], [0.2, 0.3, -0.5]]
        pi_lu = CTMC(Q).steady_state()
        np.testing.assert_allclose(gmres_steady_state(Q), pi_lu, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            power_steady_state(Q, tol=1e-13), pi_lu, rtol=0, atol=1e-8
        )

    def test_all_methods_agree_sparse_backend(self):
        chain = _cyclic_chain()
        pi_lu = CTMC(chain.Q_sparse, backend="sparse").steady_state()
        np.testing.assert_allclose(
            pi_lu, sparse_steady_state(chain.Q_sparse)[0], rtol=0, atol=1e-12
        )
        pi_gmres = gmres_steady_state(chain.Q_sparse)
        pi_power = power_steady_state(chain.Q_sparse, tol=1e-13)
        np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-9)
        np.testing.assert_allclose(pi_power, pi_lu, rtol=0, atol=1e-7)

    def test_results_cached_per_method(self):
        """A chain has one solver, so its one solution is cached."""
        chain = _birth_death(DENSE_MAX_STATES + 1)
        a = chain.steady_state()
        b = chain.steady_state()
        np.testing.assert_array_equal(a, b)
        b[0] = 123.0  # a copy is returned: mutating it must not poison
        np.testing.assert_array_equal(a, chain.steady_state())

    def test_module_level_solvers_accept_dense_arrays(self):
        Q = np.array([[-2.0, 2.0], [1.0, -1.0]])
        expect = np.array([1.0 / 3.0, 2.0 / 3.0])
        np.testing.assert_allclose(gmres_steady_state(Q), expect, atol=1e-9)
        np.testing.assert_allclose(CTMC(Q).steady_state(), expect, atol=1e-15)
        np.testing.assert_allclose(
            power_steady_state(Q, tol=1e-14), expect, atol=1e-9
        )


class TestAutoPolicy:
    def test_resolution_is_deterministic_in_state_count(self):
        assert resolve_steady_state_method(1) == "lu"
        assert resolve_steady_state_method(DENSE_MAX_STATES) == "lu"
        assert resolve_steady_state_method(DENSE_MAX_STATES + 1) == "gmres"

    def test_unknown_method_raises_with_menu(self):
        """No solver is selectable any more: every knob is a TypeError."""
        chain = CTMC([[-1.0, 1.0], [1.0, -1.0]])
        for knob in ({"method": "cholesky"}, {"method": "lu"}, {"tol": 1e-8}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                chain.steady_state(**knob)

    def test_methods_tuple_is_documented_set(self):
        """The rule's whole range is the documented pair."""
        sizes = (1, DENSE_MAX_STATES, DENSE_MAX_STATES + 1, 10**7)
        assert {resolve_steady_state_method(n) for n in sizes} == {"lu", "gmres"}

    def test_ctmc_resolve_method_uses_own_size(self):
        assert CTMC([[-1.0, 1.0], [1.0, -1.0]]).resolve_method() == "lu"
        assert _birth_death(DENSE_MAX_STATES).resolve_method() == "lu"
        assert _birth_death(DENSE_MAX_STATES + 1).resolve_method() == "gmres"


class TestConvergenceError:
    def test_power_stall_raises_with_diagnostics(self):
        chain = _cyclic_chain()
        with pytest.raises(ConvergenceError) as exc_info:
            power_steady_state(chain.Q_sparse, max_iter=2, tol=1e-15)
        err = exc_info.value
        assert err.method == "power"
        assert err.iterations == 2
        assert err.residual > err.tol
        message = str(err)
        assert "2 iterations" in message
        assert f"{err.residual:.3e}" in message

    def test_gmres_stall_raises_with_diagnostics(self, monkeypatch):
        # unpreconditioned with a 2-iteration budget on a 40-state ring:
        # cannot converge, must raise rather than return the junk vector
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 2)
        monkeypatch.setattr(ctmc_mod, "ILU_SETTINGS", ())  # no preconditioner
        chain = _cyclic_chain(n=40)
        with pytest.raises(ConvergenceError) as exc_info:
            gmres_steady_state(chain.Q_sparse)
        err = exc_info.value
        assert err.method == "gmres"
        assert err.iterations >= 1
        assert err.residual > err.tol == ctmc_mod.GMRES_TOL
        assert f"{err.iterations} iterations" in str(err)

    def test_stalled_solve_is_not_cached(self, monkeypatch):
        chain = _birth_death(DENSE_MAX_STATES + 1, lam=1.0, mu=1.01)
        with monkeypatch.context() as patch:
            patch.setattr(ctmc_mod, "GMRES_MAX_ITER", 1)
            patch.setattr(ctmc_mod, "ILU_SETTINGS", ((1.0, 1),))  # near-useless ILU
            with pytest.raises(ConvergenceError):
                chain.steady_state()
        pi = chain.steady_state()  # fresh solve
        np.testing.assert_allclose(
            pi, sparse_steady_state(chain.Q_sparse)[0], rtol=0, atol=1e-12
        )

    def test_bad_max_iter_rejected(self):
        """The iteration budget is a module constant, not an argument."""
        with pytest.raises(TypeError, match="max_iter"):
            _cyclic_chain().steady_state(max_iter=0)
        with pytest.raises(TypeError, match="max_iter"):
            gmres_steady_state(_cyclic_chain().Q_sparse, max_iter=0)

    def test_power_rejects_all_absorbing(self):
        with pytest.raises(ValueError, match="absorbing"):
            power_steady_state(np.zeros((3, 3)))


class TestWarmStartCache:
    """A solve's inputs besides ``Q``: an explicit start vector, and the
    per-template cache, which carries only the state ordering into a
    solve."""

    def test_wrong_size_cache_entries_ignored(self):
        cache = {"rcm_perm": np.arange(3)}
        chain = _cyclic_chain(n=8)
        pi = gmres_steady_state(chain.Q_sparse, cache=cache)
        np.testing.assert_allclose(pi, chain.steady_state(), atol=1e-8)

    def test_explicit_x0_wins_over_cache(self):
        chain = _cyclic_chain()
        pi_lu = chain.steady_state()
        pi = gmres_steady_state(
            chain.Q_sparse, x0=np.full(chain.n, 1.0 / chain.n)
        )
        np.testing.assert_allclose(pi, pi_lu, atol=1e-8)

    def test_ctmc_factor_cache_shared_by_iterative_methods(self):
        cache = {}
        big = _birth_death(DENSE_MAX_STATES + 1)
        CTMC(big.Q_sparse, factor_cache=cache).steady_state()
        assert "rcm_perm" in cache
        small = {}  # dense LU has nothing to share
        CTMC(_cyclic_chain().Q_sparse, factor_cache=small).steady_state()
        assert not small

    def test_power_updates_warm_start(self):
        cache = {}
        chain = _cyclic_chain()
        pi = power_steady_state(chain.Q_sparse, tol=1e-13, cache=cache)
        np.testing.assert_allclose(cache["pi0"], pi, atol=1e-12)


class TestSeededSteadyState:
    def test_seed_serves_every_method(self):
        for chain in (_cyclic_chain(), _birth_death(DENSE_MAX_STATES + 1)):
            seeded = np.full(chain.n, 1.0 / chain.n)
            chain.seed_steady_state(seeded)
            np.testing.assert_array_equal(chain.steady_state(), seeded)

    def test_seed_shape_checked(self):
        chain = _cyclic_chain()
        with pytest.raises(ValueError, match="shape"):
            chain.seed_steady_state(np.ones(2))


class TestLargerChainSanity:
    def test_gmres_on_block_tridiagonal_chain(self):
        # a 900-state lattice random walk: past the rule, so GMRES; the
        # reference sparse LU must agree
        n = 30
        rng = np.random.default_rng(7)
        rows, cols, data = [], [], []
        for i in range(n):
            for j in range(n):
                s = i * n + j
                for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < n and 0 <= nj < n:
                        rows.append(s)
                        cols.append(ni * n + nj)
                        data.append(rng.uniform(0.5, 2.0))
        off = sparse.coo_matrix((data, (rows, cols)), shape=(n * n, n * n))
        Q = (off - sparse.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()
        chain = CTMC(Q, backend="sparse")
        assert chain.resolve_method() == "gmres"
        np.testing.assert_allclose(
            chain.steady_state(),
            sparse_steady_state(Q)[0],
            rtol=1e-10,
            atol=0,
        )


class TestReviewRegressions:
    def test_convergence_error_survives_pickling(self):
        err = ConvergenceError("gmres", 42, 1e-3, 1e-10)
        revived = pickle.loads(pickle.dumps(err))
        assert isinstance(revived, ConvergenceError)
        assert (revived.method, revived.iterations) == ("gmres", 42)
        assert (revived.residual, revived.tol) == (1e-3, 1e-10)
        assert "42 iterations" in str(revived)

    def test_stall_under_weak_ilu_retries_strong(self, monkeypatch):
        from scipy.sparse import linalg as sparse_linalg

        class Useless:
            def solve(self, v):
                return v

        def weak_is_useless(A, drop_tol, fill_factor):
            if drop_tol == ctmc_mod.ILU_SETTINGS[0][0]:
                return Useless()
            return sparse_linalg.spilu(A, drop_tol=drop_tol, fill_factor=fill_factor)

        monkeypatch.setattr(ctmc_mod, "spilu", weak_is_useless)
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 20)
        chain = _birth_death(DENSE_MAX_STATES + 1)
        pi = gmres_steady_state(chain.Q_sparse)
        np.testing.assert_allclose(
            pi, sparse_steady_state(chain.Q_sparse)[0], rtol=0, atol=1e-12
        )
        # a solve that stalls under every strength raises the last stall
        monkeypatch.setattr(ctmc_mod, "spilu", lambda A, **kw: Useless())
        with pytest.raises(ConvergenceError):
            gmres_steady_state(chain.Q_sparse)

    def test_zero_pivot_in_weak_ilu_retries_strong(self, monkeypatch):
        from scipy.sparse import linalg as sparse_linalg

        tried = []

        def weak_fails(A, drop_tol, fill_factor):
            tried.append(drop_tol)
            if drop_tol == ctmc_mod.ILU_SETTINGS[0][0]:
                raise RuntimeError("Factor is exactly singular")
            return sparse_linalg.spilu(A, drop_tol=drop_tol, fill_factor=fill_factor)

        monkeypatch.setattr(ctmc_mod, "spilu", weak_fails)
        chain = _birth_death(DENSE_MAX_STATES + 1)
        pi = gmres_steady_state(chain.Q_sparse)
        assert tried == [setting[0] for setting in ctmc_mod.ILU_SETTINGS]
        np.testing.assert_allclose(
            pi, sparse_steady_state(chain.Q_sparse)[0], rtol=0, atol=1e-12
        )
