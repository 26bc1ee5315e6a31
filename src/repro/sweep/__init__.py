"""Batched parameter sweeps over GSPN energy models.

The paper's headline results are all *sweeps* — duty cycles, arrival and
service rates, thresholds — evaluated over the same net structure.  This
package makes those sweeps cheap:

- :class:`~repro.sweep.grid.SweepGrid` — cartesian grids of named rate
  axes, buildable from compact CLI specs (``AR=0.1:2.0:10``);
- :class:`~repro.sweep.runner.SweepRunner` — builds a model backend's
  rate-independent template **once** (reachability graph for GSPNs, stage
  structure + shared symbolic LU for the phase-type expansion), then
  re-binds parameters and re-solves per grid point, optionally fanning
  points out over a process pool;
- :mod:`~repro.sweep.backends` — the model families the runner can drive:
  ``gspn`` (rate rebinding), ``phase-type`` (deterministic-delay CPU
  model, Figure 4/5-style threshold sweeps), ``renewal`` (exact closed
  form), plus the transient metric grammar (``energy@t``,
  ``fraction:active@t``, ``time_to_threshold:0.01``);
- :class:`~repro.sweep.results.SweepResult` — a row-per-point table with
  ASCII rendering, CSV export, argmin/argmax queries, and per-point
  error records (failed points get NaN rows, not aborted sweeps);
- :mod:`~repro.sweep.distributed` — the coordinator/worker layer that
  shards one grid across processes or hosts over an asyncio TCP job
  queue, with requeue-on-worker-death and checkpoint/resume;
- :mod:`~repro.sweep.nets` — demo nets (M/M/1/K, the exponentialised
  Figure 3 CPU) wired into ``repro-experiments sweep``.

Quick example::

    from repro.sweep import SweepGrid, SweepRunner
    from repro.sweep.nets import build_mm1k_net

    runner = SweepRunner(build_mm1k_net(), ["mean_tokens:queue"])
    result = runner.run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))
    print(result.render(title="M/M/1/K arrival-rate sweep"))

Importing the package does not import scipy: the runner and the
``gspn``/``phase-type`` backends are resolved on first access, so the
CLI reads ``BACKEND_NAMES`` and ``DEMO_NETS`` without loading them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.sweep.backends import (
    BACKEND_NAMES,
    RenewalBackend,
    SweepBackend,
    make_backend,
)
from repro.sweep.backends.base import Metric, metric_name
from repro.sweep.grid import SweepGrid, parse_axis
from repro.sweep.nets import (
    DEMO_NETS,
    build_cpu_gspn_net,
    build_mm1k_net,
    build_wsn_cluster_net,
)
from repro.sweep.results import PointFailure, SweepResult

__all__ = [
    "BACKEND_NAMES",
    "BatchedPhaseTypeBackend",
    "DEMO_NETS",
    "GSPNBackend",
    "Metric",
    "PhaseTypeBackend",
    "PointFailure",
    "RenewalBackend",
    "SweepBackend",
    "SweepGrid",
    "SweepResult",
    "SweepRunner",
    "build_cpu_gspn_net",
    "build_mm1k_net",
    "build_wsn_cluster_net",
    "contiguous_chunks",
    "evaluate_metric",
    "iter_point_rows",
    "make_backend",
    "metric_name",
    "parse_axis",
    "solve_point_row",
]

if TYPE_CHECKING:
    from repro.sweep.backends.gspn import GSPNBackend
    from repro.sweep.backends.phase_type import (
        BatchedPhaseTypeBackend,
        PhaseTypeBackend,
    )
    from repro.sweep.runner import (
        SweepRunner,
        contiguous_chunks,
        evaluate_metric,
        iter_point_rows,
        solve_point_row,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sweep.backends.gspn": ("GSPNBackend",),
    "repro.sweep.backends.phase_type": (
        "BatchedPhaseTypeBackend",
        "PhaseTypeBackend",
    ),
    "repro.sweep.runner": (
        "SweepRunner",
        "contiguous_chunks",
        "evaluate_metric",
        "iter_point_rows",
        "solve_point_row",
    ),
})
