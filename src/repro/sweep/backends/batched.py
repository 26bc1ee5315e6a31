"""Batched phase-type backend: every grid point of a batch in one call.

The pointwise :class:`~repro.sweep.backends.phase_type.PhaseTypeBackend`
solves each grid point by the exact level recursion of the stage chain
(:func:`repro.core.phase_type.stage_chain_stationary`) as a one-row call.
The recursion is elementwise in the rate vector, so this backend stacks a
whole batch's ``(B, 4)`` rate rows and runs it **once**: the per-point
Python overhead is paid per batch instead.  Row ``k`` of the stacked
result is bitwise the vector the pointwise path computes for point ``k``,
whatever the batch's size or order.

Per-point failure isolation survives batching: a point whose parameters
fail to bind never enters the stack, and a row the kernel returns
non-finite fails alone at validation — the sweep runner turns those into
NaN rows + ``PointFailure`` records exactly as on the pointwise paths.

Batch size is a memory knob, not a correctness knob: ``batch_size="auto"``
budgets ``BATCH_MEMORY_BUDGET`` bytes against the kernel's working set
and chunks the grid accordingly.  See ``docs/batched.md`` for the
derivation and the memory model.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.params import CPUModelParams
from repro.core.phase_type import stage_chain_stationary
from repro.markov.ctmc import _finalize_pi
from repro.sweep.backends.phase_type import (
    PhaseTypeBackend,
    PhaseTypeSweepSolution,
    PhaseTypeTemplate,
)

__all__ = ["BatchedPhaseTypeBackend"]

#: Exception types a batched solve records *per point* instead of raising:
#: the same numerical family the runner's pointwise isolation catches
#: (singular chains are ``ValueError``s, ``ConvergenceError`` is a
#: ``RuntimeError``); anything else is a configuration bug and propagates.
_POINT_FAILURE_TYPES = (ValueError, ArithmeticError, RuntimeError)

#: ``auto`` batch sizing: keep one batch's kernel working set under this
#: many bytes.
BATCH_MEMORY_BUDGET = 256 * 2**20

#: Arrays of one batch's full width alive at the kernel's peak: its
#: output, the power-up lattice block, and validation's copies.
WORKING_SET_COPIES = 4


def _finalize_pi_stack(
    x_stack: np.ndarray,
) -> List[Union[np.ndarray, Exception]]:
    """Vectorised :func:`repro.markov.ctmc._finalize_pi` over a block stack.

    The fast path validates and normalises all blocks with whole-stack
    array ops (bit-identical arithmetic to the pointwise helper).  If
    *any* block trips a check, the stack drops to the per-block helper so
    only the offending block(s) carry an exception.
    """
    if np.all(np.isfinite(x_stack)):
        x = np.where(np.abs(x_stack) < 1e-13, 0.0, x_stack)
        if not np.any(x < -1e-9):
            x = np.clip(x, 0.0, None)
            totals = x.sum(axis=1)
            if np.all(np.isfinite(totals) & (totals > 0.0)):
                return list(x / totals[:, None])
    out: List[Union[np.ndarray, Exception]] = []
    for block in x_stack:
        try:
            out.append(_finalize_pi(block))
        except _POINT_FAILURE_TYPES as exc:
            out.append(exc)
    return out


class BatchedPhaseTypeBackend(PhaseTypeBackend):
    """Phase-type sweeps solved one *batch* at a time instead of one point.

    A drop-in :class:`PhaseTypeBackend` (same axes, metrics, solution
    objects, and per-point ``solve`` when something calls it) that
    additionally implements the sweep runner's batch protocol
    (``batch_capable``/:meth:`solve_batch`): the runner hands it spans of
    the grid and gets back one solved solution — or one recorded
    exception — per point.

    Parameters
    ----------
    batch_size : int or "auto"
        Grid points per kernel call.  ``"auto"`` (default) budgets
        :data:`BATCH_MEMORY_BUDGET` bytes for the kernel's working set;
        an explicit ``int >= 1`` pins the batch size (CLI:
        ``--batch-size``).  The last batch of a grid is simply smaller —
        batching never changes any point's result, only how many share
        one call.
    (remaining parameters)
        As for :class:`PhaseTypeBackend` — ``params``, ``stages``,
        ``stages_powerup``, ``stages_idle``, ``n_max``, ``method``
        (an explicit ``"lu"``, ``"gmres"`` or ``"power"`` has no stacked
        form and solves point by point), ``tol``, ``max_iter``.
    """

    name = "phase-type-batched"
    batch_capable = True

    def __init__(
        self,
        params: Optional[CPUModelParams] = None,
        stages: int = 32,
        stages_powerup: Optional[int] = None,
        stages_idle: Optional[int] = None,
        n_max: Optional[int] = None,
        method: str = "auto",
        tol: Optional[float] = None,
        max_iter: Optional[int] = None,
        batch_size: Union[int, str] = "auto",
    ) -> None:
        super().__init__(
            params,
            stages=stages,
            stages_powerup=stages_powerup,
            stages_idle=stages_idle,
            n_max=n_max,
            method=method,
            tol=tol,
            max_iter=max_iter,
        )
        if batch_size != "auto":
            if not isinstance(batch_size, int) or isinstance(batch_size, bool):
                raise ValueError(
                    f"batch_size must be 'auto' or an int >= 1, "
                    f"got {batch_size!r}"
                )
            if batch_size < 1:
                raise ValueError(
                    f"batch_size must be >= 1, got {batch_size}"
                )
        self.batch_size = batch_size

    # ------------------------------------------------------------------ #
    # batch protocol
    # ------------------------------------------------------------------ #
    def resolve_batch_size(self, n_points: int) -> int:
        """Points per kernel call for an *n_points* sweep.

        An explicit ``batch_size`` is used as-is (clamped to the grid).
        ``"auto"`` divides :data:`BATCH_MEMORY_BUDGET` by the kernel's
        per-point working set — ``n_states + k_d * n_max`` doubles (the
        output row and the power-up lattice block) times
        :data:`WORKING_SET_COPIES` — so deep-buffer templates batch
        narrower and small ones swallow the whole grid.
        """
        if n_points < 1:
            return 1
        if self.batch_size != "auto":
            return min(int(self.batch_size), n_points)
        tpl = self.prepare()
        per_point = (
            8 * WORKING_SET_COPIES * (tpl.n_states + self.k_d * self.n_max)
        )
        return max(1, min(n_points, BATCH_MEMORY_BUDGET // per_point))

    def solve_batch(
        self, points: List[Mapping[str, float]]
    ) -> List[Union[PhaseTypeSweepSolution, Exception]]:
        """Solve one batch of grid points in a single kernel call.

        Returns a list aligned with *points*: a
        :class:`PhaseTypeSweepSolution` per solved point, or the
        numerical exception that felled it (zero-delay parameter points,
        non-finite rows, convergence stalls).  Configuration errors —
        unknown axes and the like, which would fail on every point —
        propagate instead.
        """
        tpl = self.prepare()
        results: List[Union[PhaseTypeSweepSolution, Exception, None]] = [
            None
        ] * len(points)
        # bind parameters first; a degenerate point (zero delay) fails
        # alone here and never enters the stack
        bound: List[Tuple[int, CPUModelParams, np.ndarray]] = []
        for pos, point in enumerate(points):
            try:
                params = self._point_params(point)
            except ValueError as exc:
                results[pos] = exc
                continue
            bound.append((pos, params, self._rate_vector(params)))
        if bound:
            rate_vecs = [rv for _, _, rv in bound]
            if self.method == "auto":
                pis = self._solve_stack(tpl, rate_vecs)
            else:
                pis = self._solve_pointwise(tpl, rate_vecs)
            for (pos, params, rate_vec), pi in zip(bound, pis):
                if isinstance(pi, Exception):
                    results[pos] = pi
                else:
                    results[pos] = PhaseTypeSweepSolution(
                        template=tpl,
                        params=params,
                        rate_vec=rate_vec,
                        pi=pi,
                    )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _solve_stack(
        self, tpl: PhaseTypeTemplate, rate_vecs: Sequence[np.ndarray]
    ) -> Sequence[Union[np.ndarray, Exception]]:
        """One kernel call for the batch; bad rows fail alone."""
        try:
            raw = stage_chain_stationary(tpl.lattice, np.vstack(rate_vecs))
        except _POINT_FAILURE_TYPES:
            # the call failed as a whole, naming no row: retry per point
            # so only the offending point(s) fail
            obs.incr("solver.batch.isolation_fallbacks")
            return self._solve_pointwise(tpl, rate_vecs)
        obs.incr("solver.batch.points", len(rate_vecs))
        return _finalize_pi_stack(raw)

    def _solve_pointwise(
        self, tpl: PhaseTypeTemplate, rate_vecs: Sequence[np.ndarray]
    ) -> List[Union[np.ndarray, Exception]]:
        """Same points, one at a time, exactly as the pointwise backend.

        The path for the explicit methods, and for isolating a failed
        kernel call.  Each point either solves or records its exception.
        """
        out: List[Union[np.ndarray, Exception]] = []
        for rate_vec in rate_vecs:
            try:
                out.append(self._steady_state(tpl, rate_vec))
            except _POINT_FAILURE_TYPES as exc:
                out.append(exc)
        return out

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        solver = (
            f"{self.steady_method} steady state in one call per batch"
            if self.method == "auto"
            else f"per-point {self.steady_method} steady state"
        )
        sizing = (
            "auto-sized batches"
            if self.batch_size == "auto"
            else f"batches of {self.batch_size}"
        )
        return (
            f"{self.n_states} phase-type states "
            f"(k_d={self.k_d}, k_t={self.k_t}, n_max={self.n_max}), "
            f"{solver}, {sizing}"
        )
