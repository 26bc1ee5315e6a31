"""The exact level recursion of the stage-expanded CPU chain.

:func:`stage_chain_stationary` replaces a sparse linear solve with an
``O(states)`` recursion, so it is held to the solvers it replaced: the
stationary vector must match a sparse LU of the same generator to 1e-10
and leave a tiny ``‖πQ‖∞`` residual, including overload (where the
truncated top level carries real mass), long idle timers (standby
underflows) and tiny power-up delays.  Row ``k`` of a stacked call must
be bitwise independent of the rest of the stack, and a row the kernel
cannot represent fails alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.params import CPUModelParams
from repro.core.phase_type import (
    PhaseTypeModel,
    build_stage_lattice,
    build_stage_structure,
    stage_chain_stationary,
)
from repro.markov.ctmc import NumericalSolveError, _finalize_pi
from repro.sweep import PhaseTypeBackend
from repro.sweep.backends.phase_type import _finalize_pi_stack
from tests.markov.reference_solvers import sparse_steady_state


def generator(k_d, k_t, n_max, rate_row, has_powerup=True, has_idle=True):
    """The sparse generator of the stage chain bound to *rate_row*."""
    states, _, rows, cols, rate_ids = build_stage_structure(
        k_d, k_t, n_max, has_powerup, has_idle
    )
    n = len(states)
    off = sparse.csr_matrix(
        (np.asarray(rate_row)[rate_ids], (rows, cols)), shape=(n, n)
    )
    return (off - sparse.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()


def check_against_lu(k_d, k_t, n_max, rate_row, **flags):
    lattice = build_stage_lattice(k_d, k_t, n_max, **flags)
    pi = stage_chain_stationary(lattice, np.asarray([rate_row]))[0]
    assert np.all(np.isfinite(pi))
    Q = generator(k_d, k_t, n_max, rate_row, **flags)
    reference, _ = sparse_steady_state(Q)
    np.testing.assert_allclose(pi, reference, rtol=0.0, atol=1e-10)
    # the residual of a balance solution scales with the rates it balances
    residual = np.abs(pi @ Q).max()
    assert residual <= 1e-14 * max(1.0, np.abs(Q.data).max())
    return pi


stage_counts = st.integers(min_value=1, max_value=24)
levels = st.integers(min_value=2, max_value=48)


@st.composite
def rate_rows(draw):
    """``[λ, μ, ν, τ]`` for random λ, μ, T, D and distinct k_d, k_t."""
    k_d = draw(stage_counts)
    k_t = draw(stage_counts.filter(lambda k: k != k_d))
    n_max = draw(levels)
    lam = draw(st.floats(0.05, 50.0))
    # ρ up to 3: overload, where the truncated top level is heavy
    rho = draw(st.floats(0.01, 3.0))
    # λT up to 1e3: the idle timer nearly never expires
    lam_t = draw(st.floats(1e-3, 1e3))
    # D down to 1e-6 s: power-up stages of rate ~1e7
    D = draw(st.floats(1e-6, 20.0))
    row = [lam, lam / rho, k_d / D, k_t * lam / lam_t]
    return k_d, k_t, n_max, row


class TestAgainstSparseLU:
    @settings(max_examples=120, deadline=None)
    @given(rate_rows())
    def test_matches_lu_of_the_generator(self, case):
        k_d, k_t, n_max, row = case
        check_against_lu(k_d, k_t, n_max, row)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.01, 5.0),
        st.floats(1e-4, 2.0),
        stage_counts,
        stage_counts,
        levels,
    )
    def test_matches_phase_type_backend_lu(self, rho, T, D, k_d, k_t, n_max):
        params = CPUModelParams(
            arrival_rate=10.0 * rho,
            service_rate=10.0,
            power_down_threshold=T,
            power_up_delay=D,
        )
        kwargs = dict(stages_powerup=k_d, stages_idle=k_t, n_max=n_max)
        auto = PhaseTypeBackend(params, **kwargs).solve({})
        lu_pi, _ = sparse_steady_state(auto.Q)
        np.testing.assert_allclose(auto.pi, lu_pi, rtol=0.0, atol=1e-10)

    def test_overload_carries_truncation_mass(self):
        pi = check_against_lu(8, 5, 30, [2.0, 1.0, 80.0, 50.0])
        assert pi[build_stage_lattice(8, 5, 30).busy][-1] > 0.4

    def test_long_timer_underflows_standby_to_zero(self):
        # λT = 1e3 over 2000 stages: idle(k_t) = (2/3)^1999 ~ 1e-352
        pi = check_against_lu(4, 2000, 20, [1.0, 10.0, 40.0, 2.0])
        assert pi[0] == 0.0

    @pytest.mark.parametrize(
        "T, D", [(0.3, 0.0), (0.0, 0.3), (0.0, 0.0)], ids=["D=0", "T=0", "both"]
    )
    def test_degenerate_structures(self, T, D):
        params = CPUModelParams.paper_defaults(T=T, D=D)
        model = PhaseTypeModel(params, stages_powerup=7, stages_idle=5)
        states, Q = model.build_generator()
        reference, _ = sparse_steady_state(Q)
        lattice = build_stage_lattice(
            7, 5, model.n_max, has_powerup=D > 0, has_idle=T > 0
        )
        assert lattice.n_states == len(states)
        pi = stage_chain_stationary(lattice, model.rate_vector()[None, :])[0]
        np.testing.assert_allclose(pi, reference, rtol=0.0, atol=1e-10)
        sol = model.solve()
        kinds = np.array([s[0] for s in states])
        assert sol.fractions.standby == pytest.approx(
            reference[kinds == "standby"].sum(), abs=1e-10
        )
        assert sol.fractions.active == pytest.approx(
            reference[kinds == "busy"].sum(), abs=1e-10
        )
        assert sol.fractions.idle == pytest.approx(
            reference[kinds == "idle"].sum(), abs=1e-10
        )
        jobs = np.array([s[-1] if s[0] in ("powerup", "busy") else 0 for s in states])
        assert sol.mean_jobs == pytest.approx(reference @ jobs, abs=1e-9)


class TestRowIndependence:
    """Row ``k`` of the output depends on row ``k`` of the input alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda b: st.tuples(
                st.lists(
                    st.tuples(
                        st.floats(0.05, 50.0),
                        st.floats(0.01, 3.0),
                        st.floats(1e-6, 20.0),
                        st.floats(1e-3, 1e3),
                    ),
                    min_size=b,
                    max_size=b,
                ),
                st.permutations(range(b)),
                st.integers(0, b),
            )
        ),
        st.integers(1, 16),
        st.integers(1, 16),
        levels,
    )
    def test_split_permute_pad_are_bit_invisible(self, case, k_d, k_t, n_max):
        draws, perm, cut = case
        stack = np.array(
            [[lam, lam / rho, k_d / D, k_t * lam / lam_t]
             for lam, rho, D, lam_t in draws]
        )
        lattice = build_stage_lattice(k_d, k_t, n_max)
        whole = stage_chain_stationary(lattice, stack)
        for k, row in enumerate(stack):
            np.testing.assert_array_equal(
                stage_chain_stationary(lattice, row[None, :])[0], whole[k]
            )
        np.testing.assert_array_equal(
            stage_chain_stationary(lattice, stack[list(perm)]),
            whole[list(perm)],
        )
        parts = [stack[:cut], stack[cut:]]
        split = np.concatenate(
            [stage_chain_stationary(lattice, p) for p in parts if len(p)]
        )
        np.testing.assert_array_equal(split, whole)
        padded = np.vstack([stack[::-1], stack, np.full((3, 4), 7.0)])
        np.testing.assert_array_equal(
            stage_chain_stationary(lattice, padded)[len(stack):-3], whole
        )


class TestFailures:
    @pytest.mark.parametrize(
        "bad",
        [[0.0, 10.0, 40.0, 20.0], [1.0, 0.0, 40.0, 20.0], [np.nan] * 4],
        ids=["lambda=0", "mu=0", "nan"],
    )
    def test_bad_row_fails_alone(self, bad):
        lattice = build_stage_lattice(4, 6, 12)
        good = np.array([[1.0, 10.0, 40.0, 20.0], [2.0, 10.0, 4.0, 2.0]])
        stack = np.vstack([good[0], bad, good[1]])
        out = _finalize_pi_stack(stage_chain_stationary(lattice, stack))
        assert isinstance(out[1], NumericalSolveError)
        for k, row in ((0, good[0]), (2, good[1])):
            np.testing.assert_array_equal(
                out[k],
                _finalize_pi(stage_chain_stationary(lattice, row[None, :])[0]),
            )
        with pytest.raises(NumericalSolveError):
            _finalize_pi(stage_chain_stationary(lattice, np.array([bad]))[0])

    def test_rejects_bad_shapes(self):
        lattice = build_stage_lattice(2, 2, 4)
        with pytest.raises(ValueError, match="rate_stack"):
            stage_chain_stationary(lattice, np.ones(4))
        with pytest.raises(ValueError, match="rate_stack"):
            stage_chain_stationary(lattice, np.ones((3, 5)))

    @pytest.mark.parametrize("k_d, k_t, n_max", [(0, 2, 4), (2, 0, 4), (2, 2, 1)])
    def test_lattice_rejects_bad_sizes(self, k_d, k_t, n_max):
        with pytest.raises(ValueError, match="need"):
            build_stage_lattice(k_d, k_t, n_max)


def test_lattice_table_is_the_path_count():
    lattice = build_stage_lattice(6, 3, 9)
    for j in range(1, 7):
        for n in range(1, 9):
            assert math.exp(lattice.log_binom[j - 1, n - 1]) == pytest.approx(
                math.comb(n + j - 2, j - 1), rel=1e-12
            )
