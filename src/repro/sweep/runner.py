"""Batched parameter sweeps over model backends.

:class:`SweepRunner` amortises the expensive, rate-independent half of a
model family across every point of a grid.  The family is described by a
:class:`~repro.sweep.backends.base.SweepBackend`: its template (reachability
graph, stage structure, sparsity pattern, symbolic LU analysis…) is built
once, and each grid point costs only a re-assembly plus the solve.  Three
backends ship (see :mod:`repro.sweep.backends`):

- ``gspn`` — exponential-only Petri nets via ``GSPNSolver`` rate rebinding
  (passing a :class:`~repro.petri.net.PetriNet` directly still works and
  wraps it in this backend);
- ``phase-type`` — the deterministic-delay CPU model, stage-expanded so
  Figure 4/5-style threshold/delay sweeps run batched;
- ``renewal`` — the exact closed form, for cross-checks.

Metrics are callables ``solution -> float`` or compact strings in the
backend's grammar — steady-state (``mean_tokens:<place>``,
``fraction:standby``, ``power``, …) or transient (``energy@5``,
``fraction:active@0.5``, ``time_to_threshold:0.01``); see
:mod:`repro.sweep.backends.base`.

**The engine.**  Execution itself lives in :mod:`repro.sweep.engine`:
the runner builds an :class:`~repro.sweep.engine.plan.ExecutionPlan`
(contiguous point partitions, batch sizing, retry budgets) and hands it
to an :class:`~repro.sweep.engine.executor.Executor` — the serial loop
or the in-machine process pool here, the distributed coordinator in
:mod:`repro.sweep.distributed`, the always-on daemon in
:mod:`repro.sweep.service`.  This module keeps the historical public
API (``iter_point_rows``, ``solve_point_row``, ``contiguous_chunks``…)
as thin re-exports.

**Preflight.**  Before solving anything, the runner verifies the sweep
configuration (:func:`repro.verify.preflight_sweep`): the chain structure
is classified from the already-built template (absorbing deadlocks and
fragmented stationary structure become named diagnostics instead of
``singular generator`` failures on every point), grid values are vetted,
and truncation monitoring is cross-checked.  Error-severity findings
abort in milliseconds with :class:`~repro.verify.PreflightError` —
before any point is solved and before any distributed fan-out; pass
``preflight=False`` to opt out.

**Failure isolation.**  A grid point whose *solve* raises a numerical
error (``ConvergenceError`` on a stiff corner, a singular chain at a
degenerate rate) does not abort the sweep: the point gets an all-NaN row
plus a :class:`~repro.sweep.results.PointFailure` record on the result,
and the remaining points keep solving — identically in the serial, pool,
and distributed paths.  Configuration errors (unknown axes, malformed
metric specs, unknown places) still raise immediately; they would fail
on every point.

**Fan-out.**  ``n_workers > 1`` distributes *contiguous, axis-ordered
partitions* of the grid over a process pool (the backend template ships
to each worker once via the pool initializer).  Every point's solve
depends on that point alone — a GMRES solve starts cold and builds its
own preconditioner — so results are ordered like, and bit-identical to,
the serial path.  When the template cannot be pickled
(e.g. a metric closure) the runner logs a warning and falls back to
serial execution; if the pool itself breaks mid-run, the fallback
resumes serially *from the unfinished points only* instead of re-solving
the whole grid.  For sharding a grid across hosts, see
:mod:`repro.sweep.distributed`.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (monkeypatch seam)
from typing import (
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.petri.analysis import ReachabilityOptions
from repro.petri.net import PetriNet
from repro.sweep.backends import GSPNBackend, SweepBackend, evaluate_gspn_metric
from repro.sweep.backends.base import Metric, metric_name
from repro.sweep.engine.executor import PoolExecutor, SerialExecutor
from repro.sweep.engine.plan import (
    PARTITIONS_PER_WORKER,
    build_plan,
    contiguous_chunks,
)
from repro.sweep.engine.points import (
    METRIC_FAILURE_TYPES,
    SOLVE_FAILURE_TYPES,
    iter_partition_rows,
    metrics_row as _metrics_row,  # noqa: F401  (historical private name)
    solve_missing_rows,
    solve_point_row,
)
from repro.sweep.grid import SweepGrid
from repro.sweep.results import PointFailure, SweepResult

__all__ = [
    "METRIC_FAILURE_TYPES",
    "Metric",
    "SOLVE_FAILURE_TYPES",
    "SweepRunner",
    "contiguous_chunks",
    "evaluate_metric",
    "iter_point_rows",
    "metric_name",
    "solve_missing_rows",
    "solve_point_row",
]

logger = logging.getLogger(__name__)

#: Back-compat alias: the GSPN steady-state metric evaluator this module
#: historically exported.
evaluate_metric = evaluate_gspn_metric

#: Back-compat alias: partitions handed out per pool worker
#: (oversubscription for load balance; see
#: :data:`repro.sweep.engine.plan.PARTITIONS_PER_WORKER`).
CHUNKS_PER_WORKER = PARTITIONS_PER_WORKER


def iter_point_rows(
    model: SweepBackend,
    metrics: Sequence[Metric],
    points: Sequence[Mapping[str, float]],
    start: int = 0,
):
    """Yield ``(index, row, failure)`` for *points*, batching when the
    backend can.

    The historical public spelling of
    :func:`repro.sweep.engine.points.iter_partition_rows`: the shared
    inner loop of the serial runner and the pool workers.  A
    batch-capable backend gets the points in stacked batches of its
    preferred size under ``sweep.batch`` spans; everything downstream is
    unchanged — one ``sweep.point`` span, one row, and per-point failure
    isolation per grid point.  Indices are offset by *start* (a pool
    partition's base).
    """
    yield from iter_partition_rows(model, metrics, points, start)


class SweepRunner:
    """Solve one model family across a parameter grid.

    Parameters
    ----------
    model:
        A :class:`~repro.sweep.backends.base.SweepBackend`, or an
        exponential-only :class:`~repro.petri.net.PetriNet` (wrapped in a
        :class:`~repro.sweep.backends.GSPNBackend`, preserving the
        original net-first API).
    metrics:
        Metric specs (strings or callables); one result column each.
    options:
        Reachability exploration limits (GSPN nets only; ignored when a
        backend instance is passed).
    n_workers:
        ``None``/``0``/``1`` solves serially; ``>= 2`` fans contiguous
        partitions of points out over a process pool of that size.
    preflight:
        Verify the sweep configuration before solving anything (default
        ``True``): :func:`repro.verify.preflight_sweep` classifies the
        chain (absorbing deadlocks, fragmented stationary structure —
        free, the template already exists), vets grid values, and checks
        truncation monitoring.  Error-severity findings abort the run
        with :class:`~repro.verify.PreflightError` in milliseconds —
        before any point is solved and, in the distributed runner,
        before any worker receives a template; warnings are logged.
        Pass ``False`` (CLI: ``--no-preflight``) to run a flagged
        configuration anyway, e.g. a transient study of an absorbing
        chain evaluated through callable metrics.
    """

    def __init__(
        self,
        model: Union[PetriNet, SweepBackend],
        metrics: Sequence[Metric],
        options: ReachabilityOptions = ReachabilityOptions(),
        n_workers: Optional[int] = None,
        preflight: bool = True,
    ) -> None:
        if not metrics:
            raise ValueError("at least one metric is required")
        if isinstance(model, PetriNet):
            self.model: SweepBackend = GSPNBackend(model, options)
        elif isinstance(model, SweepBackend):
            self.model = model
        else:
            raise TypeError(
                f"model must be a PetriNet or a SweepBackend, got "
                f"{type(model).__name__}"
            )
        # back-compat: the GSPN template solver used to be a public attribute
        self.solver = getattr(self.model, "solver", None)
        self.metrics = list(metrics)
        self.metric_names = [metric_name(m, i) for i, m in enumerate(self.metrics)]
        if len(set(self.metric_names)) != len(self.metric_names):
            raise ValueError(f"duplicate metric names: {self.metric_names}")
        self.n_workers = n_workers
        self.preflight = preflight

    def run(
        self, grid: Union[SweepGrid, Iterable[Mapping[str, float]]]
    ) -> SweepResult:
        """Solve every grid point and tabulate the metrics."""
        if isinstance(grid, SweepGrid):
            axis_names = grid.names
            points = grid.points()
        else:
            points = [dict(p) for p in grid]
            axis_names = list(points[0]) if points else []
        if not points:
            raise ValueError("empty sweep grid")
        self.model.check_axes(axis_names)
        if self.preflight:
            with obs.span("sweep.preflight", points=len(points)):
                self._run_preflight(points)

        with obs.span("sweep.run", points=len(points)):
            values, errors = self._execute(axis_names, points)
        return SweepResult(
            axis_names=axis_names,
            metric_names=list(self.metric_names),
            points=[{k: float(v) for k, v in p.items()} for p in points],
            values=[dict(zip(self.metric_names, row)) for row in values],
            errors=errors,
            telemetry=obs.current_trace(),
        )

    def solve_point(self, point: Mapping[str, float]):
        """Solve a single grid point (for ad-hoc inspection)."""
        return self.model.solve(point)

    def _run_preflight(self, points: Sequence[Mapping[str, float]]) -> None:
        """Verify the configuration; abort on errors, log the rest.

        Runs in the base :meth:`run` — *before* ``_execute`` — so the
        distributed runner inherits the gate and a doomed sweep aborts
        before any fan-out (pool startup, worker handshakes, template
        shipping) happens.
        """
        from repro.verify import preflight_sweep, raise_on_errors

        report = preflight_sweep(self.model, points, self.metrics)
        for diagnostic in report.warnings:
            logger.warning("sweep preflight: %s", diagnostic.render())
        raise_on_errors(report)

    # ------------------------------------------------------------------ #
    # execution strategies (the distributed runner overrides _execute)
    # ------------------------------------------------------------------ #
    def _execute(
        self, axis_names: Sequence[str], points: Sequence[Mapping[str, float]]
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        if self.n_workers and self.n_workers > 1 and len(points) > 1:
            return self._run_parallel(points)
        return self._run_serial(points)

    def _run_serial(
        self, points: Sequence[Mapping[str, float]]
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        plan = build_plan(self.model, self.metrics, points)
        return SerialExecutor().run(plan, self.model, self.metrics, points)

    def _template_ships(self) -> bool:
        """Pre-flight: can the template reach workers (pool or wire)?

        Probed before paying for pool/coordinator startup so closures
        degrade deterministically on every start method; shared by the
        in-machine pool and the distributed runner.
        """
        try:
            pickle.dumps((self.model, self.metrics))
            return True
        except Exception as exc:
            logger.warning("sweep template is not picklable (%s)", exc)
            return False

    def _run_parallel(
        self, points: Sequence[Mapping[str, float]]
    ) -> Tuple[List[List[float]], List[PointFailure]]:
        assert self.n_workers is not None
        if not self._template_ships():
            logger.warning(
                "solving %d points serially instead", len(points)
            )
            return self._run_serial(points)
        workers = min(self.n_workers, len(points))
        plan = build_plan(
            self.model,
            self.metrics,
            points,
            n_partitions=CHUNKS_PER_WORKER * workers,
        )
        # ProcessPoolExecutor resolves through this module's namespace at
        # call time: the broken-pool tests monkeypatch it here.
        executor = PoolExecutor(
            workers, pool_cls=ProcessPoolExecutor, log=logger
        )
        return executor.run(plan, self.model, self.metrics, points)
