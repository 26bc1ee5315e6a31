"""Per-point failure isolation and chunked fan-out in the sweep runner.

One stiff grid point must never abort a sweep: its row goes NaN, an
error record lands on the result, and the rest of the grid keeps
solving — identically in the serial and pool paths.  The pool hands out
contiguous, axis-ordered chunks and a broken pool resumes serially from
the unfinished points only.
"""

import math
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import List, Mapping

import numpy as np
import pytest

import repro.markov.ctmc as ctmc_mod
from repro.markov.ctmc import ConvergenceError
from repro.sweep import (
    PointFailure,
    SweepGrid,
    SweepResult,
    SweepRunner,
    build_wsn_cluster_net,
    contiguous_chunks,
    solve_point_row,
)
from repro.sweep.backends import GSPNBackend
from repro.sweep.backends.base import MetricSpec, SweepBackend


class FlakyBackend(SweepBackend):
    """Doubles the ``x`` axis; configurable per-point failures.

    Module-level (hence picklable) so the pool path can ship it.
    """

    name = "flaky"
    steady_kinds = ("value",)

    def __init__(self, fail_at=(), exception="convergence"):
        self.fail_at = tuple(float(v) for v in fail_at)
        self.exception = exception
        self.solved: List[float] = []  # meaningful in-process only

    def _prepare(self):
        return "template"

    def axis_names(self):
        return ["x"]

    def solve(self, point: Mapping[str, float]):
        x = float(point["x"])
        if x in self.fail_at:
            if self.exception == "convergence":
                raise ConvergenceError("gmres", 17, 0.5, 1e-10)
            if self.exception == "singular":
                raise ValueError("steady-state solve produced non-finite entries")
            raise KeyError("configuration bug")
        self.solved.append(x)
        return x

    def _steady_metric(self, solution, spec: MetricSpec) -> float:
        return float(solution) * 2.0


def metric_boom(solution):
    """Callable metric that dies on one specific solution value."""
    if solution == 3.0:
        raise ZeroDivisionError("reward 1/0")
    return float(solution)


class TestSolvePointRow:
    def test_success(self):
        row, failure = solve_point_row(FlakyBackend(), ["value"], {"x": 2.0}, 0)
        assert row == [4.0]
        assert failure is None

    @pytest.mark.parametrize("exception, error_type", [
        ("convergence", "ConvergenceError"),
        ("singular", "ValueError"),
    ])
    def test_solve_failures_isolated(self, exception, error_type):
        model = FlakyBackend(fail_at=[2.0], exception=exception)
        row, failure = solve_point_row(model, ["value"], {"x": 2.0}, 7)
        assert math.isnan(row[0])
        assert failure is not None
        assert failure.index == 7
        assert failure.stage == "solve"
        assert failure.error_type == error_type
        assert failure.point == {"x": 2.0}

    def test_configuration_errors_propagate(self):
        model = FlakyBackend(fail_at=[2.0], exception="config")
        with pytest.raises(KeyError, match="configuration bug"):
            solve_point_row(model, ["value"], {"x": 2.0}, 0)

    def test_metric_failure_isolated_with_metric_name(self):
        row, failure = solve_point_row(
            FlakyBackend(), [metric_boom], {"x": 3.0}, 4
        )
        assert math.isnan(row[0])
        assert failure.stage == "metric"
        assert failure.metric == "metric_boom"
        assert failure.error_type == "ZeroDivisionError"

    def test_metric_grammar_error_still_raises(self):
        with pytest.raises(ValueError, match="supports"):
            solve_point_row(FlakyBackend(), ["bogus:spec"], {"x": 1.0}, 0)


class TestRunnerIsolation:
    GRID = SweepGrid({"x": [1.0, 2.0, 3.0, 4.0, 5.0]})

    def expected(self):
        return [2.0, 4.0, math.nan, 8.0, 10.0]

    def check(self, result: SweepResult):
        got = result.column("value")
        assert np.isnan(got[2])
        np.testing.assert_allclose(np.delete(got, 2), [2.0, 4.0, 8.0, 10.0])
        assert result.n_failed == 1
        assert result.failed_indices() == [2]
        (failure,) = result.errors
        assert failure.error_type == "ConvergenceError"
        assert "did not converge" in failure.message

    def test_serial_keeps_solving(self):
        runner = SweepRunner(FlakyBackend(fail_at=[3.0]), ["value"])
        self.check(runner.run(self.GRID))

    def test_pool_keeps_solving(self):
        runner = SweepRunner(FlakyBackend(fail_at=[3.0]), ["value"], n_workers=2)
        self.check(runner.run(self.GRID))

    def test_render_footers_failures(self):
        runner = SweepRunner(FlakyBackend(fail_at=[3.0]), ["value"])
        text = runner.run(self.GRID).render(title="flaky")
        assert "1 of 5 point(s) failed" in text
        assert "ConvergenceError" in text

    def test_gspn_reducible_chain_is_isolated(self):
        """GSPN steady states solve lazily at metric time; a reducible
        chain (two absorbing components) surfaces there as a
        NumericalSolveError and must be a NaN row, not an abort.

        ``preflight=False``: with the default preflight on, this chain
        never reaches the solver — it is rejected up front with CH001/
        CH002 diagnostics (tests/sweep/test_preflight.py); this test
        covers the opt-out path where the failure surfaces per point."""
        from repro.des.distributions import Exponential
        from repro.petri.net import PetriNet

        net = PetriNet("forked-absorbing")
        net.add_place("start", initial=1)
        net.add_place("left")
        net.add_place("right")
        net.add_timed_transition("go_left", Exponential(1.0))
        net.add_input_arc("start", "go_left")
        net.add_output_arc("go_left", "left")
        net.add_timed_transition("go_right", Exponential(1.0))
        net.add_input_arc("start", "go_right")
        net.add_output_arc("go_right", "right")

        runner = SweepRunner(net, ["mean_tokens:left"], preflight=False)
        result = runner.run(SweepGrid({"go_left": [0.5, 1.5]}))
        assert np.all(np.isnan(result.column("mean_tokens:left")))
        assert result.failed_indices() == [0, 1]
        assert all(e.error_type == "NumericalSolveError" for e in result.errors)
        assert all(e.stage == "metric" for e in result.errors)

    def test_phase_type_stiff_corner_is_isolated(self, monkeypatch):
        """A real backend: an impossible iteration budget stalls GMRES on
        every point — the sweep still returns, all rows NaN + errors.
        (The phase-type recursion has no iteration to stall; a GSPN
        chain past the dense-LU size carries the check.)"""
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(ctmc_mod, "ILU_SETTINGS", ((1.0, 1),))
        backend = GSPNBackend(build_wsn_cluster_net(n_nodes=2, buffer_capacity=15))
        assert backend.steady_method == "gmres"
        runner = SweepRunner(backend, ["mean_tokens:buf0"])
        result = runner.run(SweepGrid({"arr0": [0.5, 1.5]}))
        assert np.all(np.isnan(result.column("mean_tokens:buf0")))
        assert result.failed_indices() == [0, 1]
        assert {e.error_type for e in result.errors} == {"ConvergenceError"}


class TestContiguousChunks:
    @pytest.mark.parametrize("n, k", [(1, 1), (5, 2), (10, 3), (7, 7), (3, 9), (64, 16)])
    def test_cover_disjoint_ordered_balanced(self, n, k):
        spans = contiguous_chunks(n, k)
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0  # contiguous, ordered, disjoint
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1
        assert len(spans) == min(n, k)

    def test_empty(self):
        assert contiguous_chunks(0, 4) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            contiguous_chunks(-1, 4)


class _OneChunkThenBroken:
    """Stand-in pool: first chunk succeeds, the rest break the pool."""

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, start, chunk_points):
        future: Future = Future()
        if start == 0:
            future.set_result(fn(start, chunk_points))
        else:
            future.set_exception(BrokenProcessPool("a worker died abruptly"))
        return future


class TestBrokenPoolResume:
    def test_resume_solves_only_unfinished_points(self, monkeypatch, caplog):
        """After the pool breaks, the serial fallback must pick up from the
        unfinished points — completed chunks are never re-solved."""
        import repro.sweep.runner as runner_module

        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", _OneChunkThenBroken
        )
        model = FlakyBackend()
        runner = SweepRunner(model, ["value"], n_workers=2)
        grid = SweepGrid({"x": [float(i) for i in range(1, 17)]})
        with caplog.at_level("WARNING", logger="repro.sweep.runner"):
            result = runner.run(grid)
        np.testing.assert_allclose(
            result.column("value"), [2.0 * i for i in range(1, 17)]
        )
        # the fake pool shares this process, so `model.solved` saw both the
        # pool half and the serial resume: every point exactly once
        assert sorted(model.solved) == [float(i) for i in range(1, 17)]
        assert "resuming" in caplog.text
        n_first_chunk = len(contiguous_chunks(16, 8)[0])
        assert f"resuming {16 - n_first_chunk} of 16 points" in caplog.text


class TestResultErrors:
    def test_assemble_fills_missing_rows_with_nan(self):
        points = [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]
        result = SweepResult.assemble(
            ["x"], ["m"], points, rows={0: [5.0], 2: [7.0]}
        )
        assert math.isnan(result.values[1]["m"])
        (failure,) = result.errors
        assert failure.index == 1 and failure.stage == "merge"
        np.testing.assert_allclose(result.column("x"), [1.0, 2.0, 3.0])

    def test_assemble_complete_has_no_errors(self):
        result = SweepResult.assemble(
            ["x"], ["m"], [{"x": 1.0}], rows={0: [2.0]}
        )
        assert result.errors == []

    def test_assemble_row_width_checked(self):
        with pytest.raises(ValueError, match="2 values for 1 metrics"):
            SweepResult.assemble(["x"], ["m"], [{"x": 1.0}], rows={0: [1.0, 2.0]})

    def test_error_index_out_of_range_rejected(self):
        failure = PointFailure(5, {"x": 1.0}, "solve", "E", "boom")
        with pytest.raises(ValueError, match="outside the table"):
            SweepResult(["x"], ["m"], [{"x": 1.0}], [{"m": 1.0}], [failure])

    def test_best_skips_nan_rows(self):
        result = SweepResult.assemble(
            ["x"], ["m"], [{"x": 1.0}, {"x": 2.0}], rows={0: [4.0]}
        )
        assert result.best("m")["x"] == 1.0

    def test_point_failure_dict_round_trip(self):
        failure = PointFailure(
            3, {"x": 0.5}, "metric", "ZeroDivisionError", "1/0", metric="m"
        )
        assert PointFailure.from_dict(failure.to_dict()) == failure

    def test_errors_survive_pickling(self):
        failure = PointFailure(0, {"x": 1.0}, "solve", "E", "boom")
        assert pickle.loads(pickle.dumps(failure)) == failure
