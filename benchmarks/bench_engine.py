"""Engine microbenchmarks: the cost drivers behind the paper experiments.

These time the building blocks (DES event loop, Petri token game, CTMC
solve, closed-form evaluation, vectorised job scan) so regressions in the
substrates are visible independently of the experiment harness.
"""

import time

import numpy as np

from repro.core.markov_supplementary import MarkovSupplementaryModel
from repro.core.params import CPUModelParams
from repro.core.petri_cpu import PetriCPUModel, build_cpu_net
from repro.core.phase_type import PhaseTypeModel
from repro.core.simulation_cpu import CPUEventSimulator, simulate_job_scan
from repro.des.engine import Simulator
from repro.markov.ctmc import CTMC
from repro.petri.simulator import PetriNetSimulator
from tests.core.reference_cpu_simulator import reference_cpu_run
from tests.petri.reference_simulator import reference_run


def test_des_engine_event_throughput(benchmark):
    """Raw event loop: schedule-and-run chains of 20k events."""

    def run_chain():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run_chain)
    assert events == 20_001


def test_petri_token_game_throughput(benchmark):
    """The Figure 3 net for 500 simulated seconds (~3.5k firings)."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)
    net = build_cpu_net(params)

    def run():
        return PetriNetSimulator(net, seed=1).run(horizon=500.0)

    result = benchmark(run)
    assert result.firing_counts["AR"] > 300


def test_token_game_speedup_vs_full_rescan():
    """The generated token-game kernel must be >= 7x the full-rescan reference loop
    on the Figure 3 net (T = 0.3, D = 0.001, 2000 s), with bitwise-identical
    results.  Interleaved rounds, best of 3 each."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)

    def simulator():
        return PetriCPUModel(params, seed=1)._make_simulator()

    best = {"incremental": float("inf"), "reference": float("inf")}
    results = {}
    for _ in range(3):
        for name, run in (
            ("incremental", lambda sim: sim.run(horizon=2_000.0)),
            ("reference", lambda sim: reference_run(sim, horizon=2_000.0)),
        ):
            sim = simulator()
            t0 = time.perf_counter()
            results[name] = run(sim)
            best[name] = min(best[name], time.perf_counter() - t0)

    got, want = results["incremental"], results["reference"]
    assert got.mean_tokens_vector.tobytes() == want.mean_tokens_vector.tobytes()
    assert got.watcher_means == want.watcher_means
    assert got.firing_counts == want.firing_counts
    assert got.final_marking == want.final_marking
    assert (got.events_executed, got.immediate_firings) == (
        want.events_executed,
        want.immediate_firings,
    )
    speedup = best["reference"] / best["incremental"]
    firings = got.events_executed + got.immediate_firings
    print(
        f"\ntoken game, {firings} firings: reference "
        f"{best['reference'] * 1e3:.1f} ms, incremental "
        f"{best['incremental'] * 1e3:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 7.0, f"incremental token game only {speedup:.2f}x faster"


def test_cpu_event_simulator_throughput(benchmark):
    """The benchmark simulator for 2000 simulated seconds."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)

    def run():
        return CPUEventSimulator(params, seed=2).run(horizon=2_000.0)

    result = benchmark(run)
    assert result.jobs_served > 1_500


def test_cpu_event_simulator_speedup_vs_reference():
    """The run-local-heap event simulator must be >= 3.5x the closure-and-monitor
    reference on the Figure 3 parameters (T = 0.3, D = 0.001, 20 000 s), with
    bitwise-identical results.  Seven rounds, each timing one run of both
    back to back; the gate is the median of the per-round ratios, so a
    slow spell of a shared machine has to cover most rounds to move it."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)

    ratios = []
    results = {}
    for _ in range(7):
        seconds = {}
        for name, run in (
            ("flat", lambda sim: sim.run(horizon=20_000.0)),
            ("reference", lambda sim: reference_cpu_run(sim, horizon=20_000.0)),
        ):
            sim = CPUEventSimulator(params, seed=2)
            t0 = time.perf_counter()
            results[name] = run(sim)
            seconds[name] = time.perf_counter() - t0
        ratios.append(seconds["reference"] / seconds["flat"])

    got, want = results["flat"], results["reference"]
    assert got.fractions.as_dict() == want.fractions.as_dict()
    assert (got.jobs_arrived, got.jobs_served, got.horizon) == (
        want.jobs_arrived,
        want.jobs_served,
        want.horizon,
    )
    assert got.mean_latency.hex() == want.mean_latency.hex()
    assert got.mean_jobs_in_system.hex() == want.mean_jobs_in_system.hex()
    speedup = float(np.median(ratios))
    print(
        f"\nCPU event simulator, {got.jobs_arrived} jobs: per-round "
        f"ratios {min(ratios):.2f}-{max(ratios):.2f}x, speedup {speedup:.2f}x"
    )
    assert speedup >= 3.5, f"flat CPU event simulator only {speedup:.2f}x faster"


def test_job_scan_throughput(benchmark):
    """The vectorised-input job scan: 50k jobs per call."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)
    rng = np.random.default_rng(3)

    result = benchmark(lambda: simulate_job_scan(params, 50_000, rng))
    assert result.jobs_served == 50_000


def test_markov_closed_form_evaluation(benchmark):
    """One full closed-form solve (the paper's eqs. 11-24)."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.3)

    st = benchmark(lambda: MarkovSupplementaryModel(params).solve())
    assert 0.0 < st.p_standby < 1.0


def test_phase_type_solve(benchmark):
    """Erlang-16 sparse CTMC assembly + solve at D = 0.3."""
    params = CPUModelParams.paper_defaults(T=0.3, D=0.3)

    sol = benchmark(lambda: PhaseTypeModel(params, stages=16).solve())
    assert sol.truncation_mass < 1e-6


def test_ctmc_steady_state_solve(benchmark):
    """Dense 200-state birth-death steady state."""
    n = 200
    Q = np.zeros((n, n))
    for i in range(n - 1):
        Q[i, i + 1] = 1.0
        Q[i + 1, i] = 2.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    chain = CTMC(Q)

    pi = benchmark(chain.steady_state)
    assert abs(pi.sum() - 1.0) < 1e-9
