"""Sweep-subsystem benchmarks: batched rate rebinding vs. naive reduction.

Two claims are measured and *asserted*, not just timed:

1. A >= 20-point rate sweep through :class:`repro.sweep.SweepRunner`
   (explore once, re-bind rates per point) beats the naive loop that calls
   :func:`repro.petri.ctmc_export.ctmc_from_net` per point by >= 5x, while
   producing identical numbers.
2. The sparse and dense CTMC storage backends agree to 1e-9 on
   steady-state and transient distributions for the repo's seed GSPNs
   (M/M/1/K, the staged variant with vanishing markings, the
   weighted-split net, and the exponentialised Figure 3 CPU net).
"""

import time

import numpy as np
import pytest

from repro.des.distributions import Exponential
from repro.markov.ctmc import CTMC
from repro.petri.ctmc_export import GSPNSolver, ctmc_from_net
from repro.petri.net import PetriNet
from repro.sweep import SweepGrid, SweepRunner, build_cpu_gspn_net, build_mm1k_net

SWEEP_RATES = tuple(0.2 + 0.12 * i for i in range(24))  # 24-point grid


def staged_mm1k_net(lam: float = 1.3, mu: float = 2.2, K: int = 5) -> PetriNet:
    """M/M/1/K with arrivals routed through an immediate stage (vanishing)."""
    net = PetriNet("staged")
    net.add_place("free", initial=K)
    net.add_place("staging")
    net.add_place("queue")
    net.add_timed_transition("arrive", Exponential(lam))
    net.add_input_arc("free", "arrive")
    net.add_output_arc("arrive", "staging")
    net.add_immediate_transition("route")
    net.add_input_arc("staging", "route")
    net.add_output_arc("route", "queue")
    net.add_timed_transition("serve", Exponential(mu))
    net.add_input_arc("queue", "serve")
    net.add_output_arc("serve", "free")
    return net


def split_net(lam: float = 1.0, mu: float = 5.0) -> PetriNet:
    """Arrivals split 3:1 between two queues by immediate weights."""
    net = PetriNet("split")
    net.add_place("gen", initial=1)
    net.add_place("staging")
    net.add_place("qa", capacity=30)
    net.add_place("qb", capacity=30)
    net.add_timed_transition("arrive", Exponential(lam))
    net.add_input_arc("gen", "arrive")
    net.add_output_arc("arrive", "staging")
    net.add_immediate_transition("to_a", weight=3.0)
    net.add_input_arc("staging", "to_a")
    net.add_output_arc("to_a", "qa")
    net.add_output_arc("to_a", "gen")
    net.add_immediate_transition("to_b", weight=1.0)
    net.add_input_arc("staging", "to_b")
    net.add_output_arc("to_b", "qb")
    net.add_output_arc("to_b", "gen")
    net.add_timed_transition("serve_a", Exponential(mu))
    net.add_input_arc("qa", "serve_a")
    net.add_timed_transition("serve_b", Exponential(mu))
    net.add_input_arc("qb", "serve_b")
    return net


SEED_NETS = {
    "mm1k": build_mm1k_net,
    "staged-mm1k": staged_mm1k_net,
    "split": split_net,
    "cpu-gspn": build_cpu_gspn_net,
}


def test_sweep_speedup_vs_pointwise(benchmark):
    """24-point arrival-rate sweep: batched must be >= 5x the naive loop."""
    grid = SweepGrid({"AR": SWEEP_RATES})

    def naive():
        return [
            ctmc_from_net(_cpu_net_with_arrival(r)).mean_tokens("Active")
            for r in SWEEP_RATES
        ]

    def batched():
        runner = SweepRunner(build_cpu_gspn_net(), ["mean_tokens:Active"])
        return runner.run(grid).column("mean_tokens:Active")

    def best_of(fn, rounds=3):
        best, value = float("inf"), None
        for _ in range(rounds):
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        return best, value

    t_naive, naive_vals = best_of(naive)
    batched_vals = benchmark(batched)
    t_batched, _ = best_of(batched)

    np.testing.assert_allclose(batched_vals, naive_vals, rtol=1e-9, atol=1e-12)
    speedup = t_naive / t_batched
    print(
        f"\nsweep of {len(SWEEP_RATES)} points: naive {t_naive * 1e3:.1f} ms, "
        f"batched {t_batched * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"batched sweep only {speedup:.1f}x faster"


def _cpu_net_with_arrival(rate: float) -> PetriNet:
    """Naive path: rebuild the CPU net from scratch for one arrival rate."""
    from repro.core.params import CPUModelParams

    return build_cpu_gspn_net(
        CPUModelParams(
            arrival_rate=rate,
            service_rate=10.0,
            power_down_threshold=0.3,
            power_up_delay=0.001,
        )
    )


@pytest.mark.parametrize("name", sorted(SEED_NETS))
def test_sparse_dense_agreement(benchmark, name):
    """Both backends agree to 1e-9 on steady state and transients."""
    net_factory = SEED_NETS[name]

    def solve_both():
        solver = GSPNSolver(net_factory())
        Q = solver.assemble_generator()
        dense, sparse = CTMC(Q.toarray(), backend="dense"), CTMC(Q, backend="sparse")
        return solver, dense, sparse, dense.steady_state(), sparse.steady_state()

    solver, dense, sparse, pi_d, pi_s = benchmark(solve_both)
    assert (dense.backend, sparse.backend) == ("dense", "sparse")
    assert np.max(np.abs(pi_d - pi_s)) < 1e-9

    p0 = solver.solve().initial_distribution
    for t in (0.1, 1.0, 10.0):
        trans_d = dense.transient(p0, t)
        trans_s = sparse.transient(p0, t)
        assert np.max(np.abs(trans_d - trans_s)) < 1e-9
    print(f"\n{name}: {dense.n} states, sparse == dense to 1e-9")
