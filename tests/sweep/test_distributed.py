"""The distributed fan-out: coordinator/worker protocol, faults, resume.

Inline workers (asyncio tasks inside the test process) exercise the full
TCP wire protocol deterministically; a handful of process-mode tests
cover real fork/kill behaviour.  Parity is asserted bit-for-bit against
the serial ``SweepRunner``: every point's solve depends on that point
alone, so sharding never shows in the rows.
"""

import asyncio
import json
import math
import socket
import time

import numpy as np
import pytest

from repro.sweep import (
    SweepGrid,
    SweepRunner,
    build_mm1k_net,
    build_wsn_cluster_net,
)
from repro.sweep.backends import PhaseTypeBackend
from repro.sweep.distributed import (
    CheckpointMismatchError,
    DistributedSweepError,
    DistributedSweepRunner,
    SweepCheckpoint,
    sweep_fingerprint,
    worker,
)
from tests.sweep.test_failure_isolation import FlakyBackend

MM1K_GRID = SweepGrid({"arrive": [0.1 * i for i in range(1, 17)]})
MM1K_METRICS = ["mean_tokens:queue", "throughput:serve"]


def serial_mm1k():
    return SweepRunner(build_mm1k_net(), MM1K_METRICS).run(MM1K_GRID)


def assert_bitwise_equal(result, reference):
    assert result.points == reference.points
    assert result.metric_names == reference.metric_names
    for name in reference.metric_names:
        assert np.array_equal(result.column(name), reference.column(name)), name


class TestInlineParity:
    def test_mm1k_bitwise_parity(self):
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2, worker_mode="inline"
        ).run(MM1K_GRID)
        assert_bitwise_equal(result, serial_mm1k())
        assert result.errors == []

    def test_wsn_cluster_bitwise_parity(self):
        """The ordering-parity check the issue asks for, on wsn-cluster."""
        grid = SweepGrid({"arr0": [0.4, 0.7, 1.0, 1.3], "snd0": [1.5, 2.5]})
        metrics = ["mean_tokens:buf0", "throughput:snd0"]
        net = lambda: build_wsn_cluster_net(n_nodes=2, buffer_capacity=3)  # noqa: E731
        reference = SweepRunner(net(), metrics).run(grid)
        result = DistributedSweepRunner(
            net(), metrics, n_shards=3, worker_mode="inline"
        ).run(grid)
        assert_bitwise_equal(result, reference)

    def test_phase_type_ordering_parity(self):
        """The phase-type backend: same ordering, same bits."""
        grid = SweepGrid({"T": [0.2, 0.5, 0.8, 1.1, 1.4, 1.7]})
        metrics = ["fraction:standby", "power"]
        reference = SweepRunner(PhaseTypeBackend(stages=4), metrics).run(grid)
        result = DistributedSweepRunner(
            PhaseTypeBackend(stages=4), metrics, n_shards=2,
            worker_mode="inline",
        ).run(grid)
        assert result.points == reference.points
        for name in metrics:
            np.testing.assert_array_equal(
                result.column(name), reference.column(name)
            )

    def test_single_point_grid(self):
        result = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
            worker_mode="inline",
        ).run(SweepGrid({"arrive": [0.8]}))
        assert len(result) == 1

    def test_per_point_failures_cross_the_wire(self):
        """A NaN row + error record produced inside a worker arrives
        intact on the merged result."""
        result = DistributedSweepRunner(
            FlakyBackend(fail_at=[3.0]), ["value"], n_shards=2,
            worker_mode="inline",
        ).run(SweepGrid({"x": [1.0, 2.0, 3.0, 4.0]}))
        got = result.column("value")
        assert math.isnan(got[2])
        np.testing.assert_allclose(np.delete(got, 2), [2.0, 4.0, 8.0])
        (failure,) = result.errors
        assert failure.index == 2
        assert failure.error_type == "ConvergenceError"

    def test_unpicklable_template_falls_back_to_serial(self, caplog):
        unpicklable = lambda solution: solution.mean_tokens("queue")  # noqa: E731
        runner = DistributedSweepRunner(
            build_mm1k_net(), [unpicklable], n_shards=2, worker_mode="inline"
        )
        with caplog.at_level("WARNING", logger="repro.sweep.distributed.runner"):
            result = runner.run(SweepGrid({"arrive": [0.5, 1.0]}))
        assert "not picklable" in caplog.text
        want = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"]).run(
            SweepGrid({"arrive": [0.5, 1.0]})
        )
        np.testing.assert_allclose(
            result.column(result.metric_names[0]),
            want.column("mean_tokens:queue"),
        )


class TestFaultTolerance:
    def test_inline_worker_death_requeues_to_survivor(self):
        """Worker 0 aborts its connection before point 9; worker 1 must
        finish the sweep with full bit parity and no error records."""
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2, worker_mode="inline",
            _fault_injection={"die_worker": 0, "die_at_index": 9},
        ).run(MM1K_GRID)
        assert_bitwise_equal(result, serial_mm1k())
        assert result.errors == []

    def test_process_worker_hard_exit_mid_sweep(self):
        """A forked worker hard-exits (os._exit) after 3 rows; the sweep
        completes with parity."""
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2,
            _fault_injection={"die_after_rows": 3},
        ).run(MM1K_GRID)
        assert_bitwise_equal(result, serial_mm1k())
        assert result.errors == []

    def test_process_worker_sigkill_mid_sweep(self):
        """A real SIGKILL once 4 rows are in; survivors complete."""
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2,
            _fault_injection={"kill_worker_after_rows": 4},
        ).run(MM1K_GRID)
        assert_bitwise_equal(result, serial_mm1k())
        assert result.errors == []

    def test_poison_point_after_requeue_budget(self):
        """With max_requeues=0 a point that killed one worker is not
        retried: NaN row, stage='worker' record, everything else solved.
        Only the killer point is blamed — the healthy tail of its chunk
        (n_chunks=2 puts indices 10..15 behind it) must not be poisoned
        wholesale."""
        result = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=2,
            worker_mode="inline", max_requeues=0, n_chunks=2,
            _fault_injection={"die_worker": -1, "die_at_index": 9},
        ).run(MM1K_GRID)
        reference = serial_mm1k()
        got = result.column("mean_tokens:queue")
        want = reference.column("mean_tokens:queue")
        assert math.isnan(got[9])
        mask = np.arange(len(got)) != 9
        assert np.array_equal(got[mask], want[mask])
        (failure,) = result.errors
        assert failure.index == 9
        assert failure.stage == "worker"
        assert "died on this point" in failure.message

    def test_configuration_error_aborts_with_diagnosis(self):
        """An unknown place would fail on every point of every worker:
        the sweep must abort carrying the real diagnosis, not a generic
        'all workers exited'."""
        runner = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:nosuchplace"], n_shards=2,
            worker_mode="inline",
        )
        with pytest.raises(DistributedSweepError, match="nosuchplace"):
            runner.run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))

    def test_all_workers_dead_raises(self):
        runner = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
            worker_mode="inline",
            _fault_injection={"die_worker": 0, "die_at_index": 4},
        )
        with pytest.raises(DistributedSweepError, match="unfinished"):
            runner.run(MM1K_GRID)


class TestCheckpoint:
    def test_interrupt_then_resume_bitwise(self, tmp_path):
        """Kill the only worker mid-sweep; the second run resumes from the
        journal and the merged table is bit-identical to serial."""
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(DistributedSweepError):
            DistributedSweepRunner(
                build_mm1k_net(), MM1K_METRICS, n_shards=1,
                worker_mode="inline", checkpoint=path,
                _fault_injection={"die_worker": 0, "die_after_rows": 5},
            ).run(MM1K_GRID)
        journalled = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert journalled[0]["kind"] == "header"
        assert len([r for r in journalled if r["kind"] == "row"]) == 5

        resumed = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2,
            worker_mode="inline", checkpoint=path,
        ).run(MM1K_GRID)
        assert_bitwise_equal(resumed, serial_mm1k())
        # the journal now holds every row exactly once (plus the blame
        # record for the point the dying worker was solving)
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ][1:]
        rows = [r for r in records if r["kind"] == "row"]
        assert sorted(r["index"] for r in rows) == list(range(len(MM1K_GRID)))

    def test_completed_checkpoint_skips_solving(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        first = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=2, worker_mode="inline",
            checkpoint=path,
        ).run(MM1K_GRID)
        # resume with a model whose every solve would fail: nothing left
        # to solve, so the result comes straight from the journal
        again = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=0, checkpoint=path
        ).run(MM1K_GRID)
        assert_bitwise_equal(again, first)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
            worker_mode="inline", checkpoint=path,
        ).run(SweepGrid({"arrive": [0.5, 1.0]}))
        other = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
            worker_mode="inline", checkpoint=path,
        )
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            other.run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))

    def test_deterministic_killer_point_converges_across_resumes(self, tmp_path):
        """A point that kills every worker each run must not loop
        forever: journalled blame counts make the next resume poison it
        and finish the sweep."""
        path = tmp_path / "sweep.ckpt"

        def attempt():
            return DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
                worker_mode="inline", checkpoint=path, max_requeues=0,
                _fault_injection={"die_worker": -1, "die_at_index": 9},
            ).run(MM1K_GRID)

        with pytest.raises(DistributedSweepError):
            attempt()  # run 1: the only worker dies on point 9
        result = attempt()  # run 2: count 9 > budget -> poisoned, completes
        assert math.isnan(result.column("mean_tokens:queue")[9])
        (failure,) = result.errors
        assert failure.index == 9 and failure.stage == "worker"
        reference = serial_mm1k().column("mean_tokens:queue")
        got = result.column("mean_tokens:queue")
        mask = np.arange(len(got)) != 9
        assert np.array_equal(got[mask], reference[mask])

    def test_requeue_only_journal_survives_resume(self, tmp_path):
        """A run that dies on its very first point journals a blame
        count and zero rows; the resume must append to that journal —
        truncating it would reset poison convergence forever."""
        path = tmp_path / "sweep.ckpt"

        def attempt():
            return DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=1,
                worker_mode="inline", checkpoint=path, max_requeues=0,
                _fault_injection={"die_worker": -1, "die_at_index": 0},
            ).run(MM1K_GRID)

        with pytest.raises(DistributedSweepError):
            attempt()  # dies before producing any row
        records = [json.loads(x) for x in path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["header", "requeue"]

        result = attempt()  # blame count loaded -> point 0 poisoned
        assert math.isnan(result.column("mean_tokens:queue")[0])
        (failure,) = result.errors
        assert failure.index == 0 and failure.stage == "worker"

    def test_different_model_rejected(self, tmp_path):
        """Same grid, different model (K=5 vs K=40 buffer): the
        fingerprint must refuse the resume."""
        path = tmp_path / "sweep.ckpt"
        grid = SweepGrid({"arrive": [0.5, 1.0]})
        DistributedSweepRunner(
            build_mm1k_net(K=5), ["mean_tokens:queue"], n_shards=1,
            worker_mode="inline", checkpoint=path,
        ).run(grid)
        other = DistributedSweepRunner(
            build_mm1k_net(K=40), ["mean_tokens:queue"], n_shards=1,
            worker_mode="inline", checkpoint=path,
        )
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            other.run(grid)

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        points = MM1K_GRID.points()
        checkpoint = SweepCheckpoint(path)
        checkpoint.open_for_append(
            MM1K_GRID.names, MM1K_METRICS, points, has_state=False
        )
        checkpoint.append_row(0, [1.0, 2.0])
        checkpoint.close()
        with path.open("a") as fh:
            fh.write('{"kind": "row", "index": 1, "val')  # torn write
        rows, errors, requeues = SweepCheckpoint(path).load(
            MM1K_GRID.names, MM1K_METRICS, points
        )
        assert rows == {0: [1.0, 2.0]}
        assert errors == {} and requeues == {}

    def test_append_after_torn_line_does_not_corrupt(self, tmp_path):
        """Resuming must truncate the torn tail first — otherwise the next
        append welds two records into one corrupt mid-file line."""
        path = tmp_path / "sweep.ckpt"
        points = MM1K_GRID.points()
        checkpoint = SweepCheckpoint(path)
        checkpoint.open_for_append(
            MM1K_GRID.names, MM1K_METRICS, points, has_state=False
        )
        checkpoint.append_row(0, [1.0, 2.0])
        checkpoint.close()
        with path.open("a") as fh:
            fh.write('{"kind": "row", "index": 1, "val')  # torn write
        resumed = SweepCheckpoint(path)
        resumed.open_for_append(
            MM1K_GRID.names, MM1K_METRICS, points, has_state=True
        )
        resumed.append_row(2, [3.0, 4.0])
        resumed.close()
        rows, _, _ = SweepCheckpoint(path).load(
            MM1K_GRID.names, MM1K_METRICS, points
        )
        assert rows == {0: [1.0, 2.0], 2: [3.0, 4.0]}

    def test_unpicklable_fallback_still_journals(self, tmp_path):
        """The serial fallback must honour --checkpoint: rows land in the
        journal and a later resume skips them."""
        path = tmp_path / "sweep.ckpt"
        unpicklable = lambda solution: solution.mean_tokens("queue")  # noqa: E731
        DistributedSweepRunner(
            build_mm1k_net(), [unpicklable], n_shards=2, worker_mode="inline",
            checkpoint=path,
        ).run(SweepGrid({"arrive": [0.5, 1.0]}))
        journalled = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len([r for r in journalled if r["kind"] == "row"]) == 2

    def test_torn_header_treated_as_empty(self, tmp_path):
        """A journal killed mid-write of its very first line holds no
        state: load as empty (and let the next run rewrite it), don't
        demand the user delete the file."""
        path = tmp_path / "sweep.ckpt"
        path.write_text('{"kind": "head')  # torn header, no newline
        rows, errors, requeues = SweepCheckpoint(path).load(
            MM1K_GRID.names, MM1K_METRICS, MM1K_GRID.points()
        )
        assert rows == {} and errors == {} and requeues == {}
        result = DistributedSweepRunner(
            build_mm1k_net(), MM1K_METRICS, n_shards=1, worker_mode="inline",
            checkpoint=path,
        ).run(MM1K_GRID)
        assert_bitwise_equal(result, serial_mm1k())

    def test_dispatch_failure_blames_nobody(self):
        """A partition that never reached its worker (send to a dead
        socket) must be requeued without incrementing any blame count."""
        from repro.sweep.distributed.coordinator import Job

        points = [{"x": 1.0}, {"x": 2.0}]
        job = Job(None, ["m"], points, n_partitions=1)
        partition = job.pop_live()
        job.requeue(
            partition, set(), ConnectionError("dead socket"), blame=False
        )
        assert job.requeues == {}
        assert len(job.pending) == 1

    def test_fingerprint_sensitive_to_grid_and_metrics(self):
        points = [{"x": 1.0}, {"x": 2.0}]
        base = sweep_fingerprint(["x"], ["m"], points)
        assert base == sweep_fingerprint(["x"], ["m"], points)
        assert base != sweep_fingerprint(["x"], ["m2"], points)
        assert base != sweep_fingerprint(["x"], ["m"], points[:1])
        assert base != sweep_fingerprint(["x"], ["m"], [{"x": 1.0}, {"x": 2.5}])


class TestJobQueue:
    def test_concurrent_jobs_share_workers_exactly_once(self):
        """Jobs of two model families on one queue, pulled by more inline
        workers than cores: each job gets exactly its own rows,
        bit-identical to serial, and every template ships on demand."""
        from repro.sweep.backends import GSPNBackend
        from repro.sweep.distributed import Job, JobQueue, launch_local_workers

        cpu_grid = SweepGrid({"T": [0.1 * i for i in range(1, 13)]})
        cpu_metrics = ["power", "fraction:standby"]
        shifted = SweepGrid({"arrive": [0.05 + 0.1 * i for i in range(16)]})
        cases = [
            (lambda: GSPNBackend(build_mm1k_net()), MM1K_METRICS, MM1K_GRID),
            (lambda: PhaseTypeBackend(stages=2), cpu_metrics, cpu_grid),
            (lambda: GSPNBackend(build_mm1k_net()), MM1K_METRICS, shifted),
        ]

        async def scenario():
            queue = JobQueue()
            server = await asyncio.start_server(
                queue.handle_worker, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            workers = launch_local_workers(4, host, port, mode="inline")
            jobs = [
                Job(make(), metrics, grid.points(), n_partitions=8)
                for make, metrics, grid in cases
            ]
            try:
                for job in jobs:
                    await queue.submit(job)
                await asyncio.wait_for(
                    asyncio.gather(*(queue.wait_job(job) for job in jobs)),
                    60,
                )
                await queue.close()
                await queue.drain()
                return jobs, await asyncio.gather(*workers)
            finally:
                server.close()
                await server.wait_closed()

        jobs, rows_solved = asyncio.run(scenario())
        assert sum(rows_solved) == sum(len(g.points()) for _, _, g in cases)
        for job, (make, metrics, grid) in zip(jobs, cases):
            want = SweepRunner(make(), metrics).run(grid)
            assert job.errors == {}
            for column, name in enumerate(metrics):
                got = [job.rows[i][column] for i in range(len(grid.points()))]
                assert np.array_equal(got, want.column(name)), name


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestConnectBackoff:
    """A worker dials with capped exponential backoff under one deadline."""

    def test_listener_opening_late_is_still_reached(self):
        port = _free_port()

        async def scenario():
            async def hang_up(reader, writer):
                writer.close()

            async def listen_late():
                await asyncio.sleep(0.3)
                return await asyncio.start_server(hang_up, "127.0.0.1", port)

            listening = asyncio.create_task(listen_late())
            start = time.monotonic()
            _, writer = await worker._connect("127.0.0.1", port)
            elapsed = time.monotonic() - start
            writer.close()
            server = await listening
            server.close()
            await server.wait_closed()
            return elapsed

        elapsed = asyncio.run(scenario())
        assert 0.3 <= elapsed < 2.0

    def test_deadline_bounds_the_retries(self, monkeypatch):
        monkeypatch.setattr(worker, "CONNECT_DEADLINE_S", 0.3)
        start = time.monotonic()
        with pytest.raises(ConnectionError, match="within 0.3 s"):
            asyncio.run(worker._connect("127.0.0.1", _free_port()))
        assert time.monotonic() - start < 2.0


class TestRunnerValidation:
    def test_bad_worker_mode_rejected(self):
        with pytest.raises(ValueError, match="worker_mode"):
            DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], worker_mode="thread"
            )

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            DistributedSweepRunner(
                build_mm1k_net(), ["mean_tokens:queue"], n_shards=-1
            )

    def test_address_is_bound_before_run(self):
        runner = DistributedSweepRunner(
            build_mm1k_net(), ["mean_tokens:queue"], n_shards=0
        )
        host, port = runner.address
        assert host == "127.0.0.1"
        assert port > 0


class TestCLI:
    def test_distributed_sweep_subcommand(self, capsys):
        from repro.experiments.cli import main

        rc = main(
            [
                "sweep", "--net", "mm1k", "--rate", "arrive=0.4:1.2:6",
                "--metric", "mean_tokens:queue",
                "--distributed", "--shards", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean_tokens:queue" in out
        assert "2 local process worker(s)" in out

    def test_bind_in_use_is_a_clean_error(self, capsys):
        import socket

        from repro.experiments.cli import main

        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(
                [
                    "sweep", "--rate", "AR=1", "--distributed",
                    "--bind", f"127.0.0.1:{port}",
                ]
            )
        finally:
            blocker.close()
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["sweep", "--rate", "AR=1", "--shards", "2"],
             "--shards requires --distributed"),
            (["sweep", "--rate", "AR=1", "--checkpoint", "x.ckpt"],
             "--checkpoint requires --distributed"),
            (["sweep", "--rate", "AR=1", "--distributed", "--jobs", "2"],
             "--jobs does not apply with --distributed"),
            (["sweep", "--rate", "AR=1", "--distributed", "--bind", "nope"],
             "--bind must look like HOST:PORT"),
            (["sweep", "--rate", "AR=1", "--distributed", "--bind",
              "127.0.0.1:http"], "port 'http'"),
        ],
    )
    def test_flag_validation(self, capsys, argv, needle):
        from repro.experiments.cli import main

        rc = main(argv)
        assert rc == 2
        assert needle in capsys.readouterr().err
