"""Distributed sweep fan-out: shard one grid across workers over TCP.

The paper's experiments are dense parameter sweeps (the Figure 4/5
threshold and delay grids); this package scales them past one machine.
A :class:`~repro.sweep.distributed.runner.DistributedSweepRunner` submits
a :class:`~repro.sweep.grid.SweepGrid` as one
:class:`~repro.sweep.distributed.coordinator.Job` — axis-ordered
partitions of the grid — to a
:class:`~repro.sweep.distributed.coordinator.JobQueue`, which hands the
partitions to whichever workers connect — forked local processes,
in-process asyncio tasks, or ``repro-experiments worker --connect``
processes on other machines — and streams the result rows back into a
:class:`~repro.sweep.results.SweepResult` ordered exactly like the
serial runner's and bit-identical to it.

The layer is fault-tolerant at three granularities: a point that fails
numerically yields a NaN row plus an error record; a worker that dies
mid-partition gets its unfinished points requeued to the survivors; an
interrupted sweep resumes from a row-level
:class:`~repro.sweep.distributed.checkpoint.SweepCheckpoint` instead of
restarting.  The service's worker pool (``serve --workers``) submits one
job per request to the same queue.  See ``docs/distributed.md`` for
topology, failure semantics, and the checkpoint format.
"""

from repro.sweep.distributed.checkpoint import (
    CheckpointMismatchError,
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.sweep.distributed.coordinator import (
    DistributedSweepError,
    Job,
    JobQueue,
    SweepCoordinator,
)
from repro.sweep.distributed.protocol import PROTOCOL_VERSION, ProtocolError
from repro.sweep.distributed.runner import DistributedSweepRunner
from repro.sweep.distributed.worker import (
    launch_local_workers,
    run_worker,
    worker_main,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CheckpointMismatchError",
    "DistributedSweepError",
    "DistributedSweepRunner",
    "Job",
    "JobQueue",
    "ProtocolError",
    "SweepCheckpoint",
    "SweepCoordinator",
    "launch_local_workers",
    "run_worker",
    "sweep_fingerprint",
    "worker_main",
]
