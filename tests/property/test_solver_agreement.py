"""Property tests: dense LU, GMRES and the reference solvers agree on
ergodic chains, and the size rule that picks between dense LU and GMRES
is a deterministic function of the state count."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.markov.ctmc import (
    CTMC,
    DENSE_MAX_STATES,
    GMRES_TOL,
    gmres_steady_state,
    resolve_steady_state_method,
)
from tests.markov.reference_solvers import (
    power_steady_state,
    sparse_steady_state,
)

rate_values = st.floats(min_value=0.1, max_value=5.0)


@st.composite
def ergodic_generators(draw):
    """Random dense generators with strictly positive off-diagonals.

    Every state reaches every other in one jump, so the chain is
    irreducible (hence ergodic: finite + irreducible) by construction.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    flat = draw(
        st.lists(rate_values, min_size=n * (n - 1), max_size=n * (n - 1))
    )
    Q = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                Q[i, j] = flat[k]
                k += 1
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


@st.composite
def large_ergodic_generators(draw):
    """Sparse generators just past :data:`DENSE_MAX_STATES`: a ring in
    both directions (irreducible) plus random chords."""
    n = draw(st.integers(DENSE_MAX_STATES + 1, DENSE_MAX_STATES + 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    states = np.arange(n)
    rows = np.concatenate([states, states, rng.integers(0, n, 2 * n)])
    cols = np.concatenate(
        [(states + 1) % n, (states - 1) % n, rng.integers(0, n, 2 * n)]
    )
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    rates = rng.uniform(0.1, 5.0, rows.size)
    off = sparse.csr_matrix((rates, (rows, cols)), shape=(n, n))
    return (off - sparse.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()


class TestSolverAgreement:
    @settings(max_examples=40, deadline=None)
    @given(ergodic_generators())
    def test_all_methods_agree_on_random_ergodic_chains(self, Q):
        pi_lu = CTMC(Q).steady_state()
        pi_gmres = gmres_steady_state(Q)
        pi_power = power_steady_state(Q, tol=1e-13)
        np.testing.assert_allclose(
            sparse_steady_state(Q)[0], pi_lu, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-8)
        np.testing.assert_allclose(pi_power, pi_lu, rtol=0, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(ergodic_generators())
    def test_solutions_are_distributions(self, Q):
        for solve in (
            lambda Q: CTMC(Q).steady_state(),
            gmres_steady_state,
            power_steady_state,
        ):
            pi = solve(Q)
            assert np.all(pi >= 0.0)
            assert abs(pi.sum() - 1.0) < 1e-9
            # stationarity: pi Q = 0 up to solver precision
            assert np.abs(pi @ Q).max() < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(ergodic_generators())
    def test_warm_start_from_lu_answer_converges_immediately(self, Q):
        pi_lu = CTMC(Q).steady_state()
        pi_warm = gmres_steady_state(Q, x0=pi_lu)
        np.testing.assert_allclose(pi_warm, pi_lu, rtol=0, atol=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(large_ergodic_generators())
    def test_gmres_past_the_constant_matches_sparse_lu(self, Q):
        chain = CTMC(Q)
        assert chain.resolve_method() == "gmres"
        np.testing.assert_allclose(
            chain.steady_state(), sparse_steady_state(Q)[0], rtol=0, atol=1e-13
        )


class TestAutoPolicyDeterminism:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**7))
    def test_auto_is_a_pure_threshold_function_of_n(self, n):
        # the rule documented in docs/solvers.md: dense LU up to the
        # constant, GMRES strictly above it — nothing else ever
        expected = "lu" if n <= DENSE_MAX_STATES else "gmres"
        assert resolve_steady_state_method(n) == expected
        # repeated calls agree (no hidden state)
        assert resolve_steady_state_method(n) == resolve_steady_state_method(n)

    def test_documented_thresholds(self):
        # the numbers cited in docs/solvers.md and measured by
        # benchmarks/bench_gspn_solvers.py; a change here must update both
        assert DENSE_MAX_STATES == 500
        assert GMRES_TOL == 5e-15
