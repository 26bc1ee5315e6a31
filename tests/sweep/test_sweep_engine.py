"""The unified execution engine: plans, partitions, batched wire framing.

The engine package must be a *refactor* for the serial and pool paths
(their behaviour is pinned by test_sweep/test_batched) and a new
capability for the wire paths: a batch-capable backend ships whole
stacked batches as ``rows`` frames, survives worker death by blame-free
requeue + pointwise downgrade, and stays bit-identical to the serial
batched runner in the dense/LU regimes.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core.params import CPUModelParams
from repro.sweep import PhaseTypeBackend, SweepGrid, SweepRunner
from repro.sweep.distributed import (
    DistributedSweepError,
    DistributedSweepRunner,
)
from repro.sweep.engine import (
    build_plan,
    partition_indices,
    plan_fingerprint,
)
from tests.sweep.test_batched import PinnedBatchBackend

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)
METRICS = ["power", "fraction:standby"]
GRID_24 = SweepGrid.from_specs(["T=0.05:2.0:24"])


def batched_backend(batch_size=None, **kwargs):
    """The phase-type backend; *batch_size* pins its batches."""
    kwargs.setdefault("stages", 2)
    kwargs.setdefault("n_max", 10)
    if batch_size is None:
        return PhaseTypeBackend(PARAMS, **kwargs)
    return PinnedBatchBackend(PARAMS, batch=batch_size, **kwargs)


def metric_matrix(result, metrics=METRICS):
    return np.array([[row[m] for m in metrics] for row in result.rows()])


def serial_batched(grid=GRID_24, **kwargs):
    return SweepRunner(batched_backend(**kwargs), METRICS).run(grid)


def assert_bitwise_equal(result, reference):
    assert result.points == reference.points
    np.testing.assert_array_equal(
        metric_matrix(result), metric_matrix(reference)
    )


class TestPlan:
    def test_partitions_align_to_batch_size(self):
        assert partition_indices(list(range(10)), 3, align=4) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]

    def test_partitions_may_span_resume_gaps(self):
        """Checkpoint-resumed grids have holes; every row carries its own
        index and a point's solve depends on that point alone, so a
        partition simply runs across one."""
        assert partition_indices([0, 1, 2, 3, 4, 6, 7], 2) == [
            [0, 1, 2, 3],
            [4, 6, 7],
        ]
        assert partition_indices([0, 1, 5, 6, 7, 9], 2, align=2) == [
            [0, 1, 5, 6],
            [7, 9],
        ]

    def test_build_plan_aligns_and_skips_done(self):
        model = batched_backend(batch_size=4)
        points = [{"T": 0.1 * (i + 1)} for i in range(12)]
        plan = build_plan(model, METRICS, points, n_partitions=3)
        assert plan.batch_size == 4
        assert [p.indices for p in plan.partitions] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9, 10, 11],
        ]
        resumed = build_plan(
            model, METRICS, points, n_partitions=3, done={0, 1, 2, 3}
        )
        assert resumed.n_pending == 8
        assert all(
            i >= 4 for part in resumed.partitions for i in part.indices
        )

    def test_fingerprint_tracks_shape_not_values(self):
        model = batched_backend()
        points = [{"T": 0.5}, {"T": 1.0}]
        base = plan_fingerprint(model, METRICS, points)
        assert base == plan_fingerprint(model, METRICS, points)
        assert base != plan_fingerprint(model, ["power"], points)
        assert base != plan_fingerprint(model, METRICS, points[:1])


class TestBatchedOverTheWire:
    """Distributed phase-type sweeps: stacked solves ship as ``rows``
    frames."""

    def test_bitwise_parity_with_serial_batched(self):
        result = DistributedSweepRunner(
            batched_backend(), METRICS, n_shards=2, worker_mode="inline"
        ).run(GRID_24)
        assert_bitwise_equal(result, serial_batched())
        assert result.errors == []

    def test_process_mode_bitwise_parity(self):
        result = DistributedSweepRunner(
            batched_backend(), METRICS, n_shards=2
        ).run(GRID_24)
        assert_bitwise_equal(result, serial_batched())

    def test_wire_batching_off_is_bitwise_identical(self):
        """The benchmark baseline (pointwise framing) must agree bit for
        bit in the dense regime — batching is a wire/perf concern, never
        a results concern."""
        result = DistributedSweepRunner(
            batched_backend(),
            METRICS,
            n_shards=2,
            worker_mode="inline",
            wire_batching=False,
        ).run(GRID_24)
        assert_bitwise_equal(result, serial_batched())

    def test_exactly_once_telemetry_across_rows_frames(self):
        """One sweep.point span per grid point and exact completed
        counters, however the rows were framed."""
        with obs.tracing() as trace:
            DistributedSweepRunner(
                batched_backend(batch_size=7),
                METRICS,
                n_shards=2,
                worker_mode="inline",
            ).run(GRID_24)
        names = [s.name for s in trace.spans]
        assert names.count("sweep.point") == 24
        assert trace.counters["sweep.rows.completed"] == 24
        assert trace.counters.get("sweep.rows.failed", 0) == 0

    def test_sigkill_mid_partition_requeues_bit_identically(self):
        """A real SIGKILL while batched frames are in flight: the whole
        unfinished partition is requeued and the merged table still
        matches serial bit for bit."""
        result = DistributedSweepRunner(
            batched_backend(),
            METRICS,
            n_shards=2,
            _fault_injection={"kill_worker_after_rows": 4},
        ).run(GRID_24)
        assert_bitwise_equal(result, serial_batched())
        assert result.errors == []

    def test_poison_in_batch_converges_to_pointwise_isolation(self):
        """A point that kills every worker holding its *batch* must be
        isolated by the pointwise downgrade: with max_requeues=0, only
        the killer is poisoned — its batch-mates never inherit blame."""
        grid = SweepGrid.from_specs(["T=0.1:1.2:12"])
        result = DistributedSweepRunner(
            batched_backend(batch_size=4),
            METRICS,
            n_shards=3,
            worker_mode="inline",
            n_chunks=1,
            max_requeues=0,
            _fault_injection={"die_worker": -1, "die_at_index": 9},
        ).run(grid)
        reference = SweepRunner(batched_backend(batch_size=4), METRICS).run(
            grid
        )
        got = metric_matrix(result)
        want = metric_matrix(reference)
        assert all(math.isnan(v) for v in got[9])
        mask = np.arange(len(got)) != 9
        np.testing.assert_array_equal(got[mask], want[mask])
        (failure,) = result.errors
        assert failure.index == 9
        assert failure.stage == "worker"

    def test_checkpoint_resume_across_partition_boundary(self, tmp_path):
        """Kill the fleet mid-sweep (whole batches journalled), resume
        with a fresh one: the journal holds each row exactly once and
        the merged table is bit-identical to serial."""
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(DistributedSweepError):
            DistributedSweepRunner(
                batched_backend(batch_size=4),
                METRICS,
                n_shards=1,
                worker_mode="inline",
                checkpoint=path,
                _fault_injection={"die_worker": 0, "die_after_rows": 5},
            ).run(GRID_24)
        journalled = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        done = [r for r in journalled if r["kind"] == "row"]
        assert 0 < len(done) < 24  # a genuine mid-sweep interruption
        resumed = DistributedSweepRunner(
            batched_backend(batch_size=4),
            METRICS,
            n_shards=2,
            worker_mode="inline",
            checkpoint=path,
        ).run(GRID_24)
        assert_bitwise_equal(resumed, serial_batched(batch_size=4))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        rows = [r for r in records if r["kind"] == "row"]
        assert sorted(r["index"] for r in rows) == list(range(24))


class TestHandshake:
    def test_v1_worker_rejected_with_capability_diagnosis(self):
        """An old worker gets a reject naming both versions and this
        side's capabilities, not a dropped connection."""
        import asyncio

        from repro.sweep.distributed.coordinator import SweepCoordinator
        from repro.sweep.distributed.protocol import (
            recv_message,
            send_message,
        )

        async def scenario():
            coordinator = SweepCoordinator(
                None, ["m"], [{"x": 1.0}], n_chunks=1
            )
            server = await asyncio.start_server(
                coordinator.handle_worker, host="127.0.0.1", port=0
            )
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await send_message(
                    writer,
                    {"kind": "hello", "version": 1, "worker": "old"},
                )
                return await recv_message(reader)
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        reply = asyncio.run(scenario())
        assert reply["kind"] == "reject"
        assert "capabilities: rows" in reply["message"]
        assert "coordinator 3" in reply["message"]
        assert "worker 1" in reply["message"]
