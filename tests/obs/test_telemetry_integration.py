"""Telemetry end to end: sweeps (serial/pool/distributed), solver residual
histories, and the CLI flags."""

import collections
import json
import math
import pickle

import numpy as np
import pytest

from repro import obs
from repro.experiments.cli import main as cli_main
import repro.markov.ctmc as ctmc_mod
from repro.markov.ctmc import (
    DENSE_MAX_STATES,
    ConvergenceError,
    gmres_steady_state,
)
from repro.obs import Trace
from repro.sweep import SweepGrid, SweepRunner, build_mm1k_net
from repro.sweep.distributed import DistributedSweepRunner
from tests.markov.reference_solvers import (
    RESIDUAL_HISTORY_LIMIT,
    power_steady_state,
)

GRID = SweepGrid({"arrive": [0.2 * i + 0.2 for i in range(8)]})


def point_span_indices(trace: Trace) -> collections.Counter:
    return collections.Counter(
        sp.attrs["index"] for sp in trace.spans if sp.name == "sweep.point"
    )


def mm1k_generator(K: int = 40, lam: float = 1.0, mu: float = 1.4) -> np.ndarray:
    Q = np.zeros((K + 1, K + 1))
    for i in range(K):
        Q[i, i + 1] = lam
        Q[i + 1, i] = mu
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


class TestSerialSweepTelemetry:
    def test_result_carries_trace_with_per_point_spans(self):
        with obs.tracing("sweep") as trace:
            result = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"]).run(GRID)
        assert result.telemetry is trace
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(len(GRID.points())))
        assert all(n == 1 for n in counts.values())
        assert trace.counters["sweep.rows.completed"] == len(result)
        names = {sp.name for sp in trace.spans}
        assert {"sweep.preflight", "sweep.run", "sweep.solve"} <= names

    def test_no_trace_means_no_telemetry(self):
        result = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"]).run(GRID)
        assert result.telemetry is None

    def test_failed_point_span_records_error(self, monkeypatch):
        # a one-iteration budget stalls GMRES: the point fails, the sweep
        # survives, and the span records the stage/error
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(ctmc_mod, "ILU_SETTINGS", ((1.0, 1),))
        with obs.tracing("sweep") as trace:
            result = SweepRunner(
                build_mm1k_net(K=DENSE_MAX_STATES + 99),
                ["mean_tokens:queue"],
                preflight=False,
            ).run(SweepGrid({"arrive": [0.5]}))
        assert result.n_failed == 1
        (span,) = [sp for sp in trace.spans if sp.name == "sweep.point"]
        # the CTMC solve runs lazily at metric-evaluation time, so the
        # failure is attributed to whichever stage actually triggered it
        assert span.attrs.get("stage") in ("solve", "metric")
        assert span.attrs.get("error") == "ConvergenceError"
        assert trace.counters["sweep.rows.failed"] == 1


class TestPoolSweepTelemetry:
    def test_pool_merge_covers_every_point_once(self):
        with obs.tracing("sweep") as trace:
            result = SweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_workers=2
            ).run(GRID)
        assert result.telemetry is trace
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(8))
        assert all(n == 1 for n in counts.values())
        assert trace.counters["sweep.rows.completed"] == 8
        # worker spans really came from other processes
        workers = {
            sp.worker for sp in trace.spans if sp.name == "sweep.point"
        }
        assert workers and trace.worker not in workers

    def test_pool_worker_spans_monotonic_per_worker(self):
        with obs.tracing("sweep") as trace:
            SweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_workers=2
            ).run(GRID)
        by_worker = collections.defaultdict(list)
        for sp in trace.spans:
            if sp.worker != trace.worker:
                by_worker[sp.worker].append(sp.t0)
        assert by_worker
        for t0s in by_worker.values():
            assert t0s == sorted(t0s)


class TestDistributedSweepTelemetry:
    def test_inline_merge_covers_every_point_once(self):
        with obs.tracing("sweep") as trace:
            result = DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
                worker_mode="inline",
            ).run(GRID)
        assert result.telemetry is trace
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(8))
        assert all(n == 1 for n in counts.values())
        names = collections.Counter(sp.name for sp in trace.spans)
        assert names["dist.worker"] == 2
        assert names["dist.chunk"] == trace.counters["dist.chunks.dispatched"]
        assert trace.counters["sweep.rows.completed"] == 8

    def test_worker_death_and_poison_keep_exactly_once_coverage(self):
        grid = SweepGrid({"arrive": [0.1 * i + 0.1 for i in range(16)]})
        with obs.tracing("sweep") as trace:
            result = DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
                worker_mode="inline", max_requeues=0, n_chunks=2,
                _fault_injection={"die_worker": -1, "die_at_index": 9},
            ).run(grid)
        assert math.isnan(result.column("mean_tokens:queue")[9])
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(16))
        assert all(n == 1 for n in counts.values())
        (poisoned,) = [
            sp for sp in trace.spans
            if sp.name == "sweep.point" and sp.attrs.get("poisoned")
        ]
        assert poisoned.attrs["index"] == 9
        assert trace.counters["dist.points.poisoned"] == 1
        assert trace.counters["dist.requeues"] >= 1
        assert trace.counters["sweep.rows.failed"] == 1

    def test_process_workers_ship_segments(self):
        with obs.tracing("sweep") as trace:
            DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
                worker_mode="process",
            ).run(GRID)
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(8))
        assert all(n == 1 for n in counts.values())
        # shipped spans kept their worker identity and per-worker order
        shipped = collections.defaultdict(list)
        for sp in trace.spans:
            if sp.worker != trace.worker:
                shipped[sp.worker].append(sp.t0)
        assert shipped
        for t0s in shipped.values():
            assert t0s == sorted(t0s)

    def test_checkpoint_resume_seeds_completed_counter(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        grid = SweepGrid({"arrive": [0.1 * i + 0.1 for i in range(16)]})

        def attempt():
            with obs.tracing("sweep") as trace:
                DistributedSweepRunner(
                    build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
                    worker_mode="inline", checkpoint=path,
                    _fault_injection={"die_worker": -1, "die_after_rows": 6},
                ).run(grid)
            return trace

        from repro.sweep.distributed import DistributedSweepError

        with pytest.raises(DistributedSweepError):
            attempt()
        with obs.tracing("resume") as trace:
            DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
                worker_mode="inline", checkpoint=path,
            ).run(grid)
        assert trace.counters["sweep.rows.completed"] == 16
        # only the un-checkpointed points were re-solved (and traced)
        assert len(point_span_indices(trace)) < 16


class TestResidualHistory:
    def test_gmres_success_stores_history_in_cache(self):
        cache = {}
        pi = gmres_steady_state(mm1k_generator(), cache=cache)
        assert pi.sum() == pytest.approx(1.0)
        history = cache["residual_history"]
        assert isinstance(history, tuple) and history
        # the ILU preconditioner is near-exact on this tridiagonal chain,
        # so the history can be a single (tiny) entry — just require decay
        assert history[-1] <= history[0]

    def test_gmres_stall_carries_history_on_error(self, monkeypatch):
        monkeypatch.setattr(ctmc_mod, "GMRES_TOL", 1e-300)
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as excinfo:
            gmres_steady_state(mm1k_generator(200))
        err = excinfo.value
        assert err.residual_history
        assert err.iterations == len(err.residual_history)

    def test_convergence_error_pickle_round_trip(self):
        err = ConvergenceError("gmres", 7, 1e-3, 1e-10, (0.5, 0.1, 1e-3))
        back = pickle.loads(pickle.dumps(err))
        assert back.method == "gmres"
        assert back.iterations == 7
        assert back.residual_history == (0.5, 0.1, 1e-3)
        plain = pickle.loads(pickle.dumps(ConvergenceError("power", 1, 1.0, 0.1)))
        assert plain.residual_history is None

    def test_power_history_capped(self):
        with pytest.raises(ConvergenceError) as excinfo:
            power_steady_state(
                mm1k_generator(8, lam=1.0, mu=1.01),
                tol=1e-300,
                max_iter=RESIDUAL_HISTORY_LIMIT + 500,
            )
        history = excinfo.value.residual_history
        assert len(history) == RESIDUAL_HISTORY_LIMIT

    def test_power_success_stores_history(self):
        cache = {}
        pi = power_steady_state(mm1k_generator(10), cache=cache)
        assert pi.sum() == pytest.approx(1.0)
        assert cache["residual_history"]

    def test_solver_cache_pickle_drops_history_safely(self):
        # a GSPN template ships its cache to pool and wire workers: it
        # must pickle, and holds no process-local ILU handle to lose
        cache = {}
        gmres_steady_state(mm1k_generator(), cache=cache)
        back = pickle.loads(pickle.dumps(cache))
        assert "ilu" not in back
        assert isinstance(back.get("residual_history", ()), tuple)


class TestCLITelemetry:
    SWEEP = [
        "sweep", "--model", "phase-type", "--rate", "T=0.2:1.0:4",
        "--metric", "power",
    ]

    def test_sweep_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.trace.jsonl"
        assert cli_main([*self.SWEEP, "--trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"[wrote trace {path}]" in captured.err
        trace = Trace.read_jsonl(str(path))
        assert point_span_indices(trace)
        assert trace.counters["sweep.rows.completed"] == 4

    def test_sweep_profile_flag_prints_breakdown(self, capsys):
        assert cli_main([*self.SWEEP, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "sweep profile" in err
        assert "sweep.point" in err
        assert "attributed to named phases" in err

    def test_sweep_profile_attribution_is_high(self, capsys):
        # acceptance bound: >= 95% of wall-clock attributed to named phases
        assert cli_main([*self.SWEEP, "--profile"]) == 0
        err = capsys.readouterr().err
        (line,) = [
            ln for ln in err.splitlines() if ln.startswith("attributed")
        ]
        pct = float(line.rsplit(" ", 1)[1].rstrip("%"))
        assert pct >= 95.0

    def test_sweep_without_flags_prints_no_progress(self, capsys):
        # stderr is not a tty under pytest: no progress line, no trace noise
        assert cli_main([*self.SWEEP]) == 0
        assert capsys.readouterr().err == ""

    def test_quiet_flag_accepted(self, capsys):
        assert cli_main([*self.SWEEP, "--quiet"]) == 0

    def test_distributed_sweep_trace_merges_workers(self, tmp_path, capsys):
        path = tmp_path / "dist.trace.jsonl"
        args = [
            "sweep", "--net", "mm1k", "--rate", "arrive=0.2:1.2:6",
            "--metric", "mean_tokens:queue", "--distributed", "--shards", "2",
            "--trace", str(path),
        ]
        assert cli_main(args) == 0
        trace = Trace.read_jsonl(str(path))
        counts = point_span_indices(trace)
        assert sorted(counts) == list(range(6))
        assert all(n == 1 for n in counts.values())
        assert {sp.name for sp in trace.spans} >= {"dist.chunk", "dist.worker"}

    def test_steady_profile_flag(self, capsys):
        # 600 states: past the size rule, so the solve is GMRES
        args = ["steady", "--net", "mm1k", "--buffer", "599", "--profile"]
        assert cli_main(args) == 0
        captured = capsys.readouterr()
        assert "steady profile" in captured.err
        assert "solver.gmres.iterations" in captured.err
        assert "steady.solve" in captured.err

    def test_steady_trace_file(self, tmp_path, capsys):
        path = tmp_path / "steady.trace.jsonl"
        args = ["steady", "--model", "phase-type", "--trace", str(path)]
        assert cli_main(args) == 0
        trace = Trace.read_jsonl(str(path))
        assert {sp.name for sp in trace.spans} >= {
            "cli.steady", "steady.prepare", "steady.solve", "steady.metrics",
        }

    def test_worker_accepts_trace_flag(self, tmp_path, capsys, monkeypatch):
        # no coordinator: the worker fails to connect, but the flag parses
        # and the (empty) trace file is still written
        from repro.sweep.distributed import worker

        monkeypatch.setattr(worker, "CONNECT_DEADLINE_S", 0.2)
        path = tmp_path / "worker.trace.jsonl"
        args = [
            "worker", "--connect", "127.0.0.1:1", "--trace", str(path),
        ]
        rc = cli_main(args)
        assert rc == 2
        assert path.exists()


class TestTraceJSONShape:
    def test_written_records_are_flat_json(self, tmp_path):
        with obs.tracing("sweep") as trace:
            SweepRunner(build_mm1k_net(), ["mean_tokens:queue"]).run(
                SweepGrid({"arrive": [0.5, 1.0]})
            )
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(str(path))
        kinds = collections.Counter(
            json.loads(line)["type"] for line in path.read_text().splitlines()
        )
        assert kinds["meta"] == 1
        assert kinds["span"] == len(trace.spans)
        assert kinds["counter"] == len(trace.counters)
