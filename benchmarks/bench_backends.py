"""Model-backend benchmarks: batched phase-type sweeps vs. fresh solves.

Three claims are measured and *asserted*, not just timed:

1. A >= 20-point Figure 4/5-style threshold sweep through the phase-type
   backend — stage structure, CSC pattern, and symbolic LU analysis built
   once, per-point solves numeric-only — beats the naive loop that builds
   a fresh template per point by >= 3x.
2. The batched sweep matches pointwise :class:`repro.core.phase_type`
   solves to 1e-9 (the subsystem adds speed, never error).
3. The exact-renewal backend agrees with the phase-type backend across the
   same grid to the Erlang approximation error (a free cross-check that
   both new backends solve the same model).
4. A cold :class:`~repro.petri.ctmc_export.GSPNSolver` on the CPU GSPN at
   buffer 40 — tuple-marking exploration on the generated token-game
   kernels, sparse-LU vanishing elimination — is >= 3x the array-walking
   explorer, dense elimination and template of
   ``tests/petri/reference_reachability.py``, on an equal graph (run from
   the repo root: it imports ``tests.petri``).
"""

import time

import numpy as np

from repro.core.params import CPUModelParams
from repro.core.phase_type import PhaseTypeModel
from repro.petri.ctmc_export import GSPNSolver
from repro.sweep import (
    PhaseTypeBackend,
    RenewalBackend,
    SweepGrid,
    SweepRunner,
    build_cpu_gspn_net,
)
from tests.petri.reference_reachability import reference_template

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)
THRESHOLDS = tuple(0.08 + 0.08 * i for i in range(24))  # 24-point grid
STAGES = 16
N_MAX = 40
METRICS = ("fraction:standby", "fraction:idle", "fraction:powerup", "power")


def best_of(fn, rounds=3):
    best, value = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _pointwise_reference() -> np.ndarray:
    """Fresh repro.core.phase_type solve per point (the 1e-9 oracle)."""
    rows = []
    for T in THRESHOLDS:
        sol = PhaseTypeModel(
            PARAMS.with_threshold(T), stages=STAGES, n_max=N_MAX
        ).solve()
        rows.append(
            (
                sol.fractions.standby,
                sol.fractions.idle,
                sol.fractions.powerup,
                PARAMS.profile.average_power_mw(sol.fractions),
            )
        )
    return np.asarray(rows)


def test_phase_type_sweep_speedup_vs_fresh_templates(benchmark):
    """24-point threshold sweep: shared template must be >= 3x fresh."""
    grid = SweepGrid({"T": THRESHOLDS})

    def fresh():
        # what the sweep amortises: a fresh backend (recursion lattice
        # and collapse vectors) per point — the phase-type analogue of
        # bench_sweep's ctmc_from_net-per-point naive loop
        rows = []
        for T in THRESHOLDS:
            backend = PhaseTypeBackend(
                PARAMS.with_threshold(T), stages=STAGES, n_max=N_MAX
            )
            sol = backend.solve({"T": T})
            rows.append([backend.evaluate(sol, m) for m in METRICS])
        return np.asarray(rows)

    def batched():
        backend = PhaseTypeBackend(PARAMS, stages=STAGES, n_max=N_MAX)
        result = SweepRunner(backend, list(METRICS)).run(grid)
        return np.column_stack([result.column(m) for m in METRICS])

    t_fresh, fresh_vals = best_of(fresh)
    batched_vals = benchmark(batched)
    t_batched, _ = best_of(batched)

    np.testing.assert_allclose(batched_vals, fresh_vals, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        batched_vals, _pointwise_reference(), rtol=0, atol=1e-9
    )
    speedup = t_fresh / t_batched
    print(
        f"\nphase-type sweep of {len(THRESHOLDS)} points "
        f"({1 + STAGES * N_MAX + N_MAX + STAGES} states): "
        f"fresh {t_fresh * 1e3:.1f} ms, batched {t_batched * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"batched phase-type sweep only {speedup:.1f}x faster"


def test_renewal_cross_checks_phase_type(benchmark):
    """Closed form vs. stage expansion across the grid: Erlang-error close."""
    grid = SweepGrid({"T": THRESHOLDS})

    def both():
        approx = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=64, n_max=N_MAX),
            ["fraction:standby"],
        ).run(grid)
        exact = SweepRunner(RenewalBackend(PARAMS), ["fraction:standby"]).run(
            grid
        )
        return approx, exact

    approx, exact = benchmark(both)
    gap = np.max(
        np.abs(
            approx.column("fraction:standby") - exact.column("fraction:standby")
        )
    )
    print(f"\nmax |phase-type(k=64) - renewal| over the grid: {gap:.2e}")
    assert gap < 5e-3, f"cross-check gap {gap:.2e}"


def test_cold_gspn_build_speedup_vs_reference():
    """Cold template of the CPU GSPN at buffer 40 (1068 markings, 92%
    vanishing): GSPNSolver must be >= 3x the reference explore + dense
    elimination + template, on an equal graph.  Interleaved rounds, best
    of 3 each; every round builds a fresh net, so nothing is cached."""
    best = {"solver": float("inf"), "reference": float("inf")}
    built = {}
    for _ in range(3):
        for name, build in (("solver", GSPNSolver), ("reference", reference_template)):
            net = build_cpu_gspn_net(buffer_capacity=40)
            t0 = time.perf_counter()
            built[name] = build(net)
            best[name] = min(best[name], time.perf_counter() - t0)

    got, want = built["solver"], built["reference"]
    assert got.graph.markings == want.graph.markings
    assert got.graph.tangible == want.graph.tangible
    assert got.graph.edges_out == want.graph.edges_out
    np.testing.assert_array_equal(got._rows, want.rows)
    np.testing.assert_allclose(got._coeff, want.coeff, rtol=0, atol=1e-12)
    speedup = best["reference"] / best["solver"]
    print(
        f"\ncold CPU GSPN template, buffer 40 ({got.graph.n_markings} markings, "
        f"{got.n} tangible): reference {best['reference'] * 1e3:.1f} ms, "
        f"solver {best['solver'] * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"cold GSPN build only {speedup:.1f}x faster"
