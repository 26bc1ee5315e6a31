"""Distributed fan-out benchmarks: speedup, parity, fault tolerance.

Three claims are measured and *asserted*, not just timed:

1. **Speedup** — a 256-point wsn-cluster sweep (2 916-state chains)
   through
   :class:`~repro.sweep.distributed.DistributedSweepRunner` with 4 local
   worker processes beats the serial :class:`~repro.sweep.SweepRunner`
   by >= 3x wall-clock.  (Requires >= 4 usable cores — four workers on
   one core time-slice, they do not parallelise — so the assertion is
   skipped below that; CI runs it.)
2. **Parity** — the distributed result table matches the serial
   runner's bit for bit.  Chains past 500 states solve by GMRES, and
   each point's solve starts cold from its own ILU preconditioner — the
   template shares only its state ordering — so how the grid is sharded
   cannot perturb a single bit.
3. **Fault tolerance** — a worker killed mid-sweep (hard ``os._exit``
   after a few rows, connection reset mid-chunk) costs nothing but time:
   the survivors absorb the requeued points and the rows stay
   *bit-for-bit* identical to the serial runner's (its 500-state chains
   solve by dense LU).  This one runs everywhere, single core included.
"""

import os
import time

import numpy as np
import pytest

from repro.sweep import SweepGrid, SweepRunner, build_wsn_cluster_net
from repro.sweep.backends import GSPNBackend
from repro.sweep.distributed import DistributedSweepRunner

N_WORKERS = 4
METRICS = ["mean_tokens:buf0", "mean_tokens:buf0@20"]

#: 64 x 4 = 256 grid points of ~60 ms each.
SPEEDUP_GRID = SweepGrid(
    {
        "arr0": [0.3 + 0.0225 * i for i in range(64)],
        "snd0": [1.6, 2.0, 2.4, 2.8],
    }
)

#: wsn-cluster buffer capacity of the speedup sweep: 3 nodes x buffer 8
#: is 2 916 states, solved by GMRES
SPEEDUP_BUFFER = 8

#: ... and of the fault check: 3 nodes x buffer 4 is 500 states, the
#: largest size solved by dense LU
FAULT_BUFFER = 4

#: A smaller grid for the everywhere-run fault-injection check.
FAULT_GRID = SweepGrid({"arr0": [0.25 + 0.07 * i for i in range(24)]})


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _backend(buffer_capacity: int) -> GSPNBackend:
    return GSPNBackend(build_wsn_cluster_net(buffer_capacity=buffer_capacity))


def _assert_parity(result, reference) -> None:
    """Rows equal bit for bit."""
    assert result.points == reference.points
    assert not result.errors and not reference.errors
    for name in reference.metric_names:
        np.testing.assert_array_equal(
            result.column(name), reference.column(name),
            err_msg=f"{name}: distributed differs from serial",
        )


@pytest.mark.skipif(
    _usable_cpus() < N_WORKERS,
    reason=(
        f"the >= 3x speedup assertion needs >= {N_WORKERS} cores "
        f"(have {_usable_cpus()}); CI runs it"
    ),
)
def test_distributed_speedup_and_exact_parity(benchmark):
    """256-point sweep, 4 local workers: >= 3x serial, bitwise rows."""
    assert len(SPEEDUP_GRID) >= 64

    t0 = time.perf_counter()
    serial = SweepRunner(_backend(SPEEDUP_BUFFER), METRICS).run(SPEEDUP_GRID)
    t_serial = time.perf_counter() - t0

    def distributed():
        return DistributedSweepRunner(
            _backend(SPEEDUP_BUFFER), METRICS, n_shards=N_WORKERS
        ).run(SPEEDUP_GRID)

    t0 = time.perf_counter()
    result = distributed()
    t_distributed = time.perf_counter() - t0
    benchmark.extra_info["serial_s"] = t_serial
    benchmark.extra_info["distributed_s"] = t_distributed
    benchmark(lambda: None)  # timings above; keep the JSON record

    _assert_parity(result, serial)
    speedup = t_serial / t_distributed
    print(
        f"\n{len(SPEEDUP_GRID)}-point sweep: serial {t_serial:.2f} s, "
        f"{N_WORKERS} workers {t_distributed:.2f} s, speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"distributed sweep only {speedup:.2f}x faster with "
        f"{N_WORKERS} workers"
    )


def test_worker_killed_mid_sweep_still_exact(benchmark):
    """Hard-kill one of the workers after 5 rows: completion + parity."""
    serial = SweepRunner(_backend(FAULT_BUFFER), METRICS).run(FAULT_GRID)

    def faulty_distributed():
        return DistributedSweepRunner(
            _backend(FAULT_BUFFER),
            METRICS,
            n_shards=2,
            _fault_injection={"die_after_rows": 5},
        ).run(FAULT_GRID)

    result = benchmark.pedantic(faulty_distributed, rounds=1, iterations=1)
    _assert_parity(result, serial)
    print(
        f"\nworker killed after 5 of {len(FAULT_GRID)} rows: sweep completed "
        "with bit-for-bit parity"
    )
