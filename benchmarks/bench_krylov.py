"""Krylov steady-state benchmarks: GMRES past the LU wall.

The subject is the large-chain path of :mod:`repro.markov.ctmc`
(``CTMC(Q).steady_state()``, which solves any chain past
``DENSE_MAX_STATES`` by ILU-GMRES), driven on the generators of
stage-expanded deterministic-delay chains — the phase-type backend's
``PhaseTypeSweepSolution.Q``, whose stationary vector the backend itself
gets from its exact level recursion.  The LU baseline is the reference
SuperLU solve in ``tests/markov/reference_solvers.py`` (run from the
repo root).  Two claims are measured and *asserted*, not just timed:

1. **Scale**: ILU-preconditioned GMRES solves a chain >= 10x larger than
   the LU demo size (the deep-buffer scenario the direct factorisation
   cannot comfortably hold), and the solution is a genuine distribution
   with negligible truncation mass.
2. **Parity**: where both run, GMRES matches the direct LU solve to 1e-8.
   (The power-iteration cross-check lives in the tier-1 tests.)

Every GMRES solve starts cold from its own ILU, so a sweep costs its
points' solves; ``docs/solvers.md`` records sweep timings.
"""

import time
from dataclasses import replace

import numpy as np

from repro.core.params import CPUModelParams
from repro.markov.ctmc import CTMC
from repro.sweep import PhaseTypeBackend
from tests.markov.reference_solvers import sparse_steady_state

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)
STAGES = 32

#: the LU baseline's demo size (states = 1 + STAGES*n_max + n_max + STAGES)
LU_DEMO_N_MAX = 250  # -> 8_283 states
#: the iterative-path demo size: >= 10x the LU baseline
BIG_N_MAX = 3_000  # -> 99_033 states


def best_of(fn, rounds=3):
    best, value = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def generator(n_max):
    """The stage chain's generator and its level-recursion solution."""
    solution = PhaseTypeBackend(PARAMS, stages=STAGES, n_max=n_max).solve({})
    return solution.Q, solution


def steady_state(Q, method):
    """A fresh solve, nothing cached from an earlier call: ``"lu"`` is the
    reference SuperLU, ``"gmres"`` the production path."""
    if method == "lu":
        return sparse_steady_state(Q)[0]
    chain = CTMC(Q, backend="sparse")
    assert chain.resolve_method() == "gmres"
    return chain.steady_state()


def test_gmres_solves_10x_beyond_lu_demo(benchmark):
    """The iterative path must handle >= 10x the LU demo's state count."""
    Q_lu, _ = generator(LU_DEMO_N_MAX)
    t_lu, _ = best_of(lambda: steady_state(Q_lu, "lu"), rounds=1)

    Q_big, big_solution = generator(BIG_N_MAX)
    pi_big = benchmark(lambda: steady_state(Q_big, "gmres"))
    t_big, _ = best_of(lambda: steady_state(Q_big, "gmres"), rounds=1)

    n_lu, n_big = Q_lu.shape[0], Q_big.shape[0]
    assert n_big >= 10 * n_lu, (
        f"big chain {n_big} states is not >= 10x the LU demo's {n_lu}"
    )
    # the big solve returns a genuine, usable distribution
    np.testing.assert_allclose(pi_big.sum(), 1.0, rtol=0, atol=1e-12)
    gmres_solution = replace(big_solution, pi=pi_big)
    assert gmres_solution.truncation_mass() < 1e-9
    assert np.isfinite(gmres_solution.power_mw())
    print(
        f"\nLU demo: {n_lu} states in {t_lu * 1e3:.1f} ms; GMRES: {n_big} "
        f"states ({n_big / n_lu:.1f}x) in {t_big * 1e3:.1f} ms; "
        f"{float(np.abs(pi_big - big_solution.pi).max()):.1e} from the "
        "level recursion"
    )


def test_gmres_matches_lu_to_1e8(benchmark):
    """Where both solvers run, the stationary vectors agree to 1e-8."""
    Q, _ = generator(LU_DEMO_N_MAX)
    pi_lu = steady_state(Q, "lu")
    pi_gmres = benchmark(lambda: steady_state(Q, "gmres"))
    gap = float(np.abs(pi_lu - pi_gmres).max())
    print(f"\nmax |pi_lu - pi_gmres| over {len(pi_lu)} states: {gap:.2e}")
    np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-8)
