"""Batched phase-type sweeps: parity, chunking, isolation.

The phase-type backend always batches, and batching must be *invisible*
in the results: its one level-recursion call per batch agrees with the
generic sparse LU and GMRES solves of each point's generator to 1e-9 or
better and with a one-point-at-a-time loop bit for bit, chunk boundaries
never change a point's result, and a bad point fails alone — whether it dies at parameter binding, in
the kernel, or at normalisation time.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core.params import CPUModelParams
from repro.markov.ctmc import NumericalSolveError, gmres_steady_state
from repro.sweep import (
    BatchedPhaseTypeBackend,
    PhaseTypeBackend,
    RenewalBackend,
    SweepGrid,
    SweepRunner,
    make_backend,
)
from repro.sweep.backends import phase_type as phase_type_module
from repro.sweep.backends.phase_type import (
    BATCH_MEMORY_BUDGET,
    WORKING_SET_COPIES,
    _finalize_pi_stack,
)
from tests.markov.reference_solvers import sparse_steady_state

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)
METRICS = ["power", "fraction:standby", "mean_jobs", "truncation_mass"]
GRID_24 = SweepGrid.from_specs(["T=0.05:2.0:24"])
GRID_200 = SweepGrid.from_specs(["T=0.05:2.0:200"])


def metric_matrix(result, metrics=METRICS):
    return np.array([[row[m] for m in metrics] for row in result.rows()])


def reference_matrix(grid, method="lu", metrics=METRICS, **kwargs):
    """*metrics* over *grid* from the generic solvers: each point's
    stationary vector is re-solved from its own generator, by the
    reference sparse LU or by GMRES."""
    backend = PhaseTypeBackend(PARAMS, **kwargs)
    rows = []
    for point in grid.points():
        solution = backend.solve(point)
        if method == "lu":
            pi, _ = sparse_steady_state(solution.Q)
        else:
            pi = gmres_steady_state(solution.Q)
        reference = replace(solution, pi=pi, _ctmc=None)
        rows.append([backend.evaluate(reference, m) for m in metrics])
    return np.array(rows)


class PinnedBatchBackend(PhaseTypeBackend):
    """A phase-type backend whose batch size is pinned instead of budgeted.

    ``batch=1`` drives the runner's one-point-at-a-time path (a real
    per-point ``solve`` loop); larger values move the batch boundaries.
    """

    def __init__(self, *args, batch=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch = batch

    def resolve_batch_size(self, n_points):
        return max(1, min(self.batch, n_points))


class TestBatchedParity:
    """Acceptance: batched rows == pointwise rows == the generic solvers'
    rows (to 1e-9)."""

    @pytest.mark.parametrize("grid", [GRID_24, GRID_200], ids=["24pt", "200pt"])
    def test_dense_regime_parity(self, grid):
        """stages=2/n_max=10 -> n=33, a size small enough for dense LAPACK:
        the batched recursion equals the pointwise one bit for bit and the
        sparse LU of each point's generator to 1e-9."""
        kwargs = dict(stages=2, n_max=10)
        pointwise = SweepRunner(
            PinnedBatchBackend(PARAMS, batch=1, **kwargs), METRICS
        ).run(grid)
        batched = SweepRunner(
            PhaseTypeBackend(PARAMS, **kwargs), METRICS
        ).run(grid)
        assert batched.n_failed == pointwise.n_failed == 0
        np.testing.assert_array_equal(
            metric_matrix(batched), metric_matrix(pointwise)
        )
        np.testing.assert_allclose(
            metric_matrix(batched), reference_matrix(grid, **kwargs), atol=1e-9
        )

    def test_sparse_lu_regime_parity(self):
        """stages=8/n_max=30 -> n=279: the recursion against the sparse
        LU of the same chain."""
        kwargs = dict(stages=8, n_max=30)
        batched = SweepRunner(
            PhaseTypeBackend(PARAMS, **kwargs), METRICS
        ).run(GRID_24)
        np.testing.assert_allclose(
            metric_matrix(batched), reference_matrix(GRID_24, **kwargs),
            atol=1e-9,
        )

    def test_gmres_regime_parity(self):
        """The recursion against generic GMRES on the same chain."""
        kwargs = dict(stages=8, n_max=30)
        batched = SweepRunner(
            PhaseTypeBackend(PARAMS, **kwargs), METRICS
        ).run(GRID_24)
        np.testing.assert_allclose(
            metric_matrix(batched),
            reference_matrix(GRID_24, method="gmres", **kwargs),
            atol=1e-9,
        )

    def test_pool_path_matches_serial_bitwise(self):
        serial = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=2, n_max=10), METRICS
        ).run(GRID_24)
        pooled = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=2, n_max=10),
            METRICS,
            n_workers=2,
        ).run(GRID_24)
        np.testing.assert_array_equal(
            metric_matrix(pooled), metric_matrix(serial)
        )


class TestBatchSizing:
    """Batch chunking: boundaries shift, results don't."""

    @pytest.mark.parametrize("batch_size", [5, 7, 24, 1000])
    def test_chunk_boundaries_are_bit_invisible(self, batch_size):
        """24 points under uneven/oversized batches == auto, bit for bit."""
        auto = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=2, n_max=10), METRICS
        ).run(GRID_24)
        chunked = SweepRunner(
            PinnedBatchBackend(PARAMS, stages=2, n_max=10, batch=batch_size),
            METRICS,
        ).run(GRID_24)
        np.testing.assert_array_equal(
            metric_matrix(chunked), metric_matrix(auto)
        )

    def test_batch_size_one_is_the_pointwise_path(self):
        """One-point batches take the runner's per-point ``solve`` path,
        bit-identical to the batched sweep — and ``solve`` itself equals
        its row of a stacked ``solve_batch``."""
        batched_backend = PhaseTypeBackend(PARAMS, stages=2, n_max=10)
        batched = SweepRunner(batched_backend, METRICS).run(GRID_24)
        with obs.tracing() as trace:
            single = SweepRunner(
                PinnedBatchBackend(PARAMS, stages=2, n_max=10, batch=1),
                METRICS,
            ).run(GRID_24)
        assert "sweep.batch" not in {s.name for s in trace.spans}
        np.testing.assert_array_equal(
            metric_matrix(single), metric_matrix(batched)
        )
        points = GRID_24.points()
        stacked = batched_backend.solve_batch(points)
        for point, solution in zip(points, stacked):
            np.testing.assert_array_equal(
                batched_backend.solve(point).pi, solution.pi
            )

    def test_auto_policy_is_memory_budgeted(self):
        backend = PhaseTypeBackend(PARAMS, stages=8, n_max=30)
        tpl = backend.prepare()
        per_point = 8 * WORKING_SET_COPIES * (tpl.n_states + 8 * 30)
        expected = BATCH_MEMORY_BUDGET // per_point
        assert backend.resolve_batch_size(10**9) == expected
        # a small grid is never padded, a huge template never starves
        assert backend.resolve_batch_size(24) == 24
        deep = PhaseTypeBackend(PARAMS, stages=64, n_max=4000)
        assert 1 <= deep.resolve_batch_size(10**9) < expected

    def test_auto_policy_accounts_for_dense_cube(self):
        """The budget counts the dense (B, k_d, n_max) power-up cube the
        kernel fills, not just its (B, n_states) output."""
        narrow = PhaseTypeBackend(
            PARAMS, stages_powerup=2, stages_idle=40, n_max=30
        )
        wide = PhaseTypeBackend(
            PARAMS, stages_powerup=40, stages_idle=2, n_max=30
        )
        for backend in (narrow, wide):
            per_point = (
                8
                * WORKING_SET_COPIES
                * (backend.n_states + backend.k_d * backend.n_max)
            )
            assert backend.resolve_batch_size(10**9) == (
                BATCH_MEMORY_BUDGET // per_point
            )
        assert wide.resolve_batch_size(10**9) < narrow.resolve_batch_size(
            10**9
        )

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "huge"])
    def test_bad_batch_size_rejected_at_construction(self, bad):
        """Batch size is no constructor knob any more: every value is
        rejected, under both spellings of the backend."""
        with pytest.raises(TypeError, match="batch_size"):
            PhaseTypeBackend(PARAMS, batch_size=bad)
        with pytest.raises(TypeError, match="batch_size"):
            make_backend("phase-type-batched", params=PARAMS, batch_size=bad)

    def test_base_backend_defaults_to_pointwise(self):
        backend = RenewalBackend(PARAMS)
        assert not backend.batch_capable
        assert backend.resolve_batch_size(500) == 1
        with pytest.raises(NotImplementedError):
            backend.solve_batch([{"T": 0.3}])
        assert PhaseTypeBackend.batch_capable


class _NaNRateBackend(PhaseTypeBackend):
    """Poisons the rate vector of chosen thresholds: the row enters the
    stack, and must fail *alone* at normalisation time."""

    def __init__(self, *args, poison=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.poison = tuple(poison)

    def _point_params(self, point):
        params = super()._point_params(point)
        self._last_T = float(point.get("T", params.power_down_threshold))
        return params

    def _rate_vector(self, params):
        vec = super()._rate_vector(params)
        if self._last_T in self.poison:
            vec = np.full_like(vec, np.nan)
        return vec


class TestFailureIsolation:
    """One bad point in a batch: NaN row + record, neighbours solve."""

    def test_binding_failures_never_enter_the_stack(self):
        """Zero rates / zero delays fail at parameter binding, alone."""
        points = [{"AR": 2.0}, {"AR": 0.0}, {"AR": 3.0}, {"T": 0.0}]
        result = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=2, n_max=10),
            ["power"],
            preflight=False,
        ).run(points)
        assert result.failed_indices() == [1, 3]
        rows = result.rows()
        assert np.isnan(rows[1]["power"]) and np.isnan(rows[3]["power"])
        assert np.isfinite(rows[0]["power"])
        assert np.isfinite(rows[2]["power"])
        by_index = {e.index: e for e in result.errors}
        assert by_index[1].stage == "solve"
        assert by_index[1].error_type == "ValueError"
        assert "arrival_rate" in by_index[1].message
        assert "power_up_delay" in by_index[3].message

    def test_nan_block_fails_alone_in_the_stack(self):
        """A non-finite rate row inside the kernel call poisons only its
        own row; ``_finalize_pi_stack`` isolates it row by row."""
        grid = SweepGrid({"T": [0.2, 0.5, 0.8, 1.1]})
        backend = _NaNRateBackend(
            PARAMS, stages=2, n_max=10, poison=(0.5,)
        )
        result = SweepRunner(backend, ["power"]).run(grid)
        assert result.failed_indices() == [1]
        assert result.errors[0].stage == "solve"
        rows = result.rows()
        assert np.isnan(rows[1]["power"])
        clean = SweepRunner(
            PhaseTypeBackend(PARAMS, stages=2, n_max=10), ["power"]
        ).run(grid)
        for i in (0, 2, 3):
            assert rows[i]["power"] == clean.rows()[i]["power"]

    def test_stack_solver_crash_falls_back_to_pointwise(self, monkeypatch):
        """If the stacked kernel call itself raises, every point is
        retried pointwise and the sweep still completes clean."""
        backend = PhaseTypeBackend(PARAMS, stages=2, n_max=10)
        clean = SweepRunner(
            PinnedBatchBackend(PARAMS, stages=2, n_max=10, batch=1), ["power"]
        ).run(GRID_24)
        kernel = phase_type_module.stage_chain_stationary

        def boom(lattice, rate_stack):
            if len(rate_stack) > 1:
                raise NumericalSolveError("stacked kernel call exploded")
            return kernel(lattice, rate_stack)

        monkeypatch.setattr(phase_type_module, "stage_chain_stationary", boom)
        with obs.tracing() as trace:
            result = SweepRunner(backend, ["power"]).run(GRID_24)
        assert result.n_failed == 0
        assert trace.counters["solver.batch.isolation_fallbacks"] >= 1
        assert "solver.batch.points" not in trace.counters
        np.testing.assert_array_equal(
            metric_matrix(result, ["power"]),
            metric_matrix(clean, ["power"]),
        )

    def test_finalize_pi_stack_fast_and_slow_paths(self):
        good = np.array([[0.25, 0.75], [0.5, 1.5]])
        out = _finalize_pi_stack(good)
        np.testing.assert_allclose(out[0], [0.25, 0.75])
        np.testing.assert_allclose(out[1], [0.25, 0.75])
        mixed = np.array([[0.25, 0.75], [np.nan, 1.0], [-0.5, 1.0]])
        out = _finalize_pi_stack(mixed)
        np.testing.assert_allclose(out[0], [0.25, 0.75])
        assert isinstance(out[1], Exception)
        assert isinstance(out[2], Exception)


class TestRunnerIntegration:
    """Spans, counters, registry, pickling: the batch path is observable
    and interchangeable."""

    def test_trace_invariant_one_point_span_per_point(self):
        with obs.tracing() as trace:
            SweepRunner(
                PinnedBatchBackend(PARAMS, stages=2, n_max=10, batch=7),
                ["power"],
            ).run(GRID_24)
        names = [s.name for s in trace.spans]
        assert names.count("sweep.point") == 24
        assert names.count("sweep.batch") == 4  # ceil(24 / 7)
        kernel = [s for s in trace.spans if s.name == "solve.stage_recursion"]
        assert [s.attrs["points"] for s in kernel] == [7, 7, 7, 3]
        assert {s.attrs["n"] for s in kernel} == {33}
        assert trace.counters["solver.batch.points"] == 24

    def test_registry_and_describe(self):
        """The old batched spellings are aliases of the one backend."""
        assert BatchedPhaseTypeBackend is PhaseTypeBackend
        backend = make_backend(
            "phase-type-batched", params=PARAMS, stages=2, n_max=10
        )
        assert type(backend) is PhaseTypeBackend
        assert backend.name == "phase-type"
        assert "in one call per batch" in backend.describe()

    def test_backend_survives_pickling_with_warm_cache(self):
        backend = PhaseTypeBackend(PARAMS, stages=2, n_max=10)
        SweepRunner(backend, ["power"]).run(SweepGrid({"T": [0.2, 0.4]}))
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == "phase-type"
        result = SweepRunner(clone, ["power"]).run(
            SweepGrid({"T": [0.2, 0.4]})
        )
        assert result.n_failed == 0


class TestBatchedCLI:
    def test_batched_sweep_runs(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "sweep", "--model", "phase-type", "--batched",
            "--rate", "T=0.2,0.4,0.6", "--stages", "2", "--n-max", "8",
            "--metric", "power",
        ]) == 0
        out = capsys.readouterr().out
        assert "exact level-recursion steady state" in out

    def test_batched_rejected_off_phase_type(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "sweep", "--model", "renewal", "--batched",
            "--rate", "T=0.2,0.4",
        ]) == 2
        err = capsys.readouterr().err
        assert "--batched" in err and "renewal" in err
