"""Phase-type backend: sweep the deterministic-delay CPU model analytically.

The paper's headline figures (4/5) sweep the *deterministic-delay* model —
constant Power Down Threshold ``T`` and Power Up Delay ``D`` — which is not
a CTMC.  The stage expansion in :mod:`repro.core.phase_type` makes it one
(each constant delay becomes an Erlang-``k`` chain of exponential stages),
and crucially the expanded chain's **sparsity pattern is rate-independent**:
sweeping λ, μ, ``T`` or ``D`` only rescales the four symbolic rate slots of
:func:`repro.core.phase_type.build_stage_structure`, never which entries
are non-zero.  This backend exploits that the same way ``GSPNSolver``
exploits rate rebinding:

- **prepare** (once): build the level recursion's log-binomial lattice
  (:func:`repro.core.phase_type.build_stage_lattice`) and fill the
  per-state collapse vectors (state-kind masks, job counts, truncation
  mask, power draws, initial distribution) by slicing the lattice's
  standby/power-up/busy/idle blocks — no state list, no edge loop;
- **the first** ``solution.Q`` (transient metrics and cross-checks only):
  build the generator skeleton — the state list and the rate-independent
  CSR pattern of :func:`repro.core.phase_type.build_stage_structure` —
  once per template (:attr:`PhaseTypeTemplate.skeleton`);
- **solve_batch** (per span of the grid): the exact ``O(states)`` level
  recursion (:func:`repro.core.phase_type.stage_chain_stationary`) run
  **once** over the span's stacked ``(B, 4)`` rate rows — no matrix is
  assembled, and the per-point Python overhead is paid per batch.  Row
  ``k`` of the result is bitwise the vector a one-point
  :meth:`PhaseTypeBackend.solve` computes, whatever the batch's size or
  order, so batching is invisible in the rows.

The recursion is the backend's only steady-state solver.  Its
independent check is the generic sparse LU (or GMRES) of each point's
own generator, ``PhaseTypeSweepSolution.Q``, which the tests run.

Per-point failure isolation survives batching: a point whose parameters
fail to bind never enters the stack, and a row the kernel returns
non-finite fails alone at validation.  Batch size is a memory bound, not a
correctness knob: :meth:`PhaseTypeBackend.resolve_batch_size` budgets
:data:`BATCH_MEMORY_BUDGET` bytes against the kernel's working set.  See
``docs/batched.md`` for the derivation and the memory model.

Steady metrics: ``fraction:<state>`` (idle/standby/powerup/active),
``power`` (mW), ``mean_jobs``, ``truncation_mass``.  Each reads one
collapse vector of the template, so a steady cell costs one dot product
``float(pi @ vector)``.  Transient metrics
start from standby (the deployed-node initial state) and use the CTMC
uniformization machinery: ``energy@t`` (joules over ``[0, t]``),
``accumulated_reward:<reward>@t`` (reward-seconds; rewards: ``power``,
``jobs``, or a state name's indicator), ``fraction:<state>@t``
(instantaneous occupancy), and ``time_to_threshold:<frac>`` (first time the
expected power settles within *frac*, relatively, of the steady-state
power — the horizon after which ``power x time`` is a valid energy
approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.exact_renewal import ExactRenewalModel
from repro.core.params import CPUModelParams, STATE_NAMES, StateFractions
from repro.core.phase_type import (
    PhaseTypeModel,
    StageLattice,
    build_stage_lattice,
    build_stage_structure,
    stage_chain_stationary,
    stage_rate_vector,
)
from repro.markov.ctmc import CTMC
from repro.markov.stationary import NEGATIVE_RTOL, _finalize_pi
from repro.sweep.backends.base import (
    CPUParamsAxesMixin,
    MetricSpec,
    SweepBackend,
)

__all__ = [
    "BatchedPhaseTypeBackend",
    "GeneratorSkeleton",
    "PhaseTypeBackend",
    "PhaseTypeSweepSolution",
    "PhaseTypeTemplate",
]

#: canonical state name -> its block's position in the stage structure's
#: state order (standby, power-up, busy, idle)
_STATE_BLOCK = {"standby": 0, "powerup": 1, "active": 2, "idle": 3}

#: Exception types a batched solve records *per point* instead of raising:
#: the same numerical family the runner's pointwise isolation catches
#: (singular chains are ``ValueError``s, ``ConvergenceError`` is a
#: ``RuntimeError``); anything else is a configuration bug and propagates.
_POINT_FAILURE_TYPES = (ValueError, ArithmeticError, RuntimeError)

#: Batch sizing: keep one batch's kernel working set under this many bytes.
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
        floor = -NEGATIVE_RTOL * x_stack.max(axis=1, keepdims=True)
        if not np.any(x_stack < floor):
            x = np.clip(x_stack, 0.0, None)
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


class GeneratorSkeleton(NamedTuple):
    """The rate-independent generator pattern of one stage chain."""

    states: List[Tuple]
    # fixed CSR pattern of the off-diagonal generator
    indptr: np.ndarray
    indices: np.ndarray
    rate_pick: np.ndarray  # CSR-ordered symbolic rate ids


@dataclass(frozen=True)
class PhaseTypeTemplate:
    """Everything rate-independent about one stage-expanded chain family.

    ``prepare`` fills the lattice and the collapse vectors; the generator
    :attr:`skeleton` is built on first use, which only transient metrics
    and cross-checks make.
    """

    n_states: int
    lattice: StageLattice  # tables of the exact level recursion
    # collapse vectors
    kind_masks: Dict[str, np.ndarray]  # state name -> {0,1} occupancy mask
    jobs: np.ndarray  # jobs in system per state
    trunc_mask: np.ndarray  # states at the truncation level
    power_mw: np.ndarray  # per-state power draw
    p0: np.ndarray  # initial distribution (all mass on standby)

    @cached_property
    def skeleton(self) -> GeneratorSkeleton:
        """State list and CSR pattern of the generator (built once)."""
        lattice = self.lattice
        with obs.span("template.skeleton", states=self.n_states):
            states, _, rows, cols, rate_ids = build_stage_structure(
                lattice.k_d,
                lattice.k_t,
                lattice.n_max,
                lattice.has_powerup,
                lattice.has_idle,
            )
        order = np.lexsort((cols, rows))
        rows, cols, rate_ids = rows[order], cols[order], rate_ids[order]
        # the structure emits each (src, dst) edge once; the CSR data slot
        # can therefore be filled by a pure gather, no duplicate summing
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        assert not dup.any(), "stage structure emitted duplicate edges"
        indptr = np.zeros(self.n_states + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n_states), out=indptr[1:])
        return GeneratorSkeleton(states, indptr, cols, rate_ids)


@dataclass
class PhaseTypeSweepSolution:
    """One solved grid point: stationary vector plus transient machinery."""

    template: PhaseTypeTemplate
    params: CPUModelParams
    rate_vec: np.ndarray  # concrete values of the four symbolic rate slots
    pi: np.ndarray
    _Q: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _ctmc: Optional[CTMC] = field(default=None, repr=False)

    @property
    def Q(self) -> sparse.csr_matrix:
        """The point's generator (built lazily; steady metrics skip it)."""
        if self._Q is None:
            tpl = self.template
            skeleton = tpl.skeleton
            data = self.rate_vec[skeleton.rate_pick]
            off = sparse.csr_matrix(
                (data, skeleton.indices, skeleton.indptr),
                shape=(tpl.n_states, tpl.n_states),
            )
            exit_rates = np.asarray(off.sum(axis=1)).ravel()
            self._Q = (off - sparse.diags(exit_rates)).tocsr()
        return self._Q

    @property
    def ctmc(self) -> CTMC:
        """The point's CTMC (built lazily; only transient metrics need it)."""
        if self._ctmc is None:
            self._ctmc = CTMC(self.Q, backend="sparse")
            self._ctmc.seed_steady_state(self.pi)  # already solved; share it
        return self._ctmc

    def fractions(self) -> StateFractions:
        masks = self.template.kind_masks
        return StateFractions(
            **{name: float(self.pi @ masks[name]) for name in STATE_NAMES}
        )

    def power_mw(self) -> float:
        """Steady-state average power draw in milliwatts."""
        return float(self.pi @ self.template.power_mw)

    def mean_jobs(self) -> float:
        return float(self.pi @ self.template.jobs)

    def truncation_mass(self) -> float:
        return float(self.pi @ self.template.trunc_mask)


class PhaseTypeBackend(CPUParamsAxesMixin, SweepBackend):
    """Sweep the Erlang-stage expansion of the deterministic-delay model.

    Batch-capable: the sweep runner hands it spans of the grid
    (:meth:`solve_batch`) sized by :meth:`resolve_batch_size`, and gets
    back one solved solution — or one recorded exception — per point.
    :meth:`solve` answers a single point with the same bits.

    Parameters
    ----------
    params : CPUModelParams, optional
        Base parameters (defaults to the paper's); grid points override
        individual fields (axes: ``arrival_rate``/``AR``,
        ``service_rate``/``SR``, ``power_down_threshold``/``T``/``PDT``,
        ``power_up_delay``/``D``/``PUT``).  Both deterministic delays must
        be positive — the stage structure needs their state blocks to
        exist at every grid point.
    stages : int
        Erlang stage count per deterministic delay (accuracy knob; the
        approximation error vanishes as it grows — see
        ``PhaseTypeModel``).
    stages_powerup, stages_idle : int, optional
        Per-delay overrides of *stages* for the power-up delay ``D`` and
        the idle threshold ``T`` respectively.
    n_max : int, optional
        Queue truncation level, **fixed across the whole grid** so the
        sparsity pattern is too; defaults to ``PhaseTypeModel``'s choice
        for the base parameters.  When sweeping toward heavier load, pass
        an ``n_max`` sized for the heaviest point and check the
        ``truncation_mass`` metric stays negligible.  State count grows
        as ``1 + stages * n_max + n_max + stages`` — the
        level recursion's cost is linear in it.

    Notes
    -----
    The steady state is always the exact level recursion
    (:func:`repro.core.phase_type.stage_chain_stationary`); there is no
    solver to choose.  ``PhaseTypeSweepSolution.Q`` is the point's
    generator, for cross-checks against the generic solvers of
    :mod:`repro.markov.ctmc`.
    """

    name = "phase-type"
    batch_capable = True
    steady_kinds = ("fraction", "power", "mean_jobs", "truncation_mass")
    transient_kinds = (
        "energy",
        "accumulated_reward",
        "fraction",
        "time_to_threshold",
    )

    def __init__(
        self,
        params: Optional[CPUModelParams] = None,
        stages: int = 32,
        stages_powerup: Optional[int] = None,
        stages_idle: Optional[int] = None,
        n_max: Optional[int] = None,
    ) -> None:
        if params is None:
            params = CPUModelParams.paper_defaults()
        if params.power_up_delay <= 0.0 or params.power_down_threshold <= 0.0:
            raise ValueError(
                "the phase-type backend needs power_up_delay > 0 and "
                "power_down_threshold > 0 (a zero delay removes its state "
                "block and changes the sparsity pattern; use the gspn or "
                "renewal backend for degenerate delays)"
            )
        # reuse PhaseTypeModel for stage/truncation normalisation
        model = PhaseTypeModel(
            params,
            stages=stages,
            stages_powerup=stages_powerup,
            stages_idle=stages_idle,
            n_max=n_max,
        )
        self.params = params
        self.k_d = model.k_d
        self.k_t = model.k_t
        self.n_max = model.n_max

    # ------------------------------------------------------------------ #
    def _prepare(self) -> PhaseTypeTemplate:
        with obs.span("prepare.stage_expansion") as sp:
            lattice = build_stage_lattice(self.k_d, self.k_t, self.n_max)
            sp.set("states", lattice.n_states)
        n = lattice.n_states
        # each state's block (see _STATE_BLOCK), filled slice by slice
        kind = np.zeros(n, dtype=np.intp)
        kind[lattice.powerup] = _STATE_BLOCK["powerup"]
        kind[lattice.busy] = _STATE_BLOCK["active"]
        kind[lattice.idle] = _STATE_BLOCK["idle"]
        kind_masks = {
            name: (kind == _STATE_BLOCK[name]).astype(np.float64)
            for name in STATE_NAMES
        }
        # power-up state (j, n) sits at (j - 1) * n_max + n - 1
        levels = np.arange(1, self.n_max + 1, dtype=np.float64)
        jobs = np.zeros(n)
        jobs[lattice.powerup] = np.tile(levels, self.k_d)
        jobs[lattice.busy] = levels
        trunc = (jobs == self.n_max).astype(np.float64)
        profile = self.params.profile
        by_kind = np.array(
            [
                profile.standby_mw,
                profile.powerup_mw,
                profile.active_mw,
                profile.idle_mw,
            ]
        )
        p0 = np.zeros(n)
        p0[0] = 1.0  # standby is always state 0
        return PhaseTypeTemplate(
            n_states=n,
            lattice=lattice,
            kind_masks=kind_masks,
            jobs=jobs,
            trunc_mask=trunc,
            power_mw=by_kind[kind],
            p0=p0,
        )

    def _point_params(self, point: Mapping[str, float]) -> CPUModelParams:
        params = super()._point_params(point)
        if params.power_up_delay <= 0.0 or params.power_down_threshold <= 0.0:
            raise ValueError(
                f"phase-type sweep points need power_up_delay > 0 and "
                f"power_down_threshold > 0 (got D={params.power_up_delay}, "
                f"T={params.power_down_threshold}); a zero delay drops its "
                "state block — use the renewal backend for degenerate points"
            )
        return params

    def _rate_vector(self, params: CPUModelParams) -> np.ndarray:
        return stage_rate_vector(params, self.k_d, self.k_t)

    def solve(self, point: Mapping[str, float]) -> PhaseTypeSweepSolution:
        tpl = self.prepare()
        params = self._point_params(point)
        rate_vec = self._rate_vector(params)
        pi = self._steady_state(tpl, rate_vec)
        return PhaseTypeSweepSolution(
            template=tpl,
            params=params,
            rate_vec=rate_vec,
            pi=pi,
        )

    # ------------------------------------------------------------------ #
    # batch protocol
    # ------------------------------------------------------------------ #
    def resolve_batch_size(self, n_points: int) -> int:
        """Points per kernel call for an *n_points* sweep.

        Divides :data:`BATCH_MEMORY_BUDGET` by the kernel's per-point
        working set — ``n_states + k_d * n_max`` doubles (the output row
        and the power-up lattice block) times :data:`WORKING_SET_COPIES`
        — so deep-buffer templates batch narrower and small ones swallow
        the whole grid.  The last batch of a grid is simply smaller:
        batching never changes any point's result.
        """
        if n_points < 1:
            return 1
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
        non-finite rows).  Configuration errors — unknown axes and the
        like, which would fail on every point — propagate instead.
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
            pis = self._solve_stack(tpl, [rv for _, _, rv in bound])
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
        """Same points, one at a time, exactly as :meth:`solve` does.

        Isolates a kernel call that failed as a whole: each point either
        solves or records its exception.
        """
        out: List[Union[np.ndarray, Exception]] = []
        for rate_vec in rate_vecs:
            try:
                out.append(self._steady_state(tpl, rate_vec))
            except _POINT_FAILURE_TYPES as exc:
                out.append(exc)
        return out

    # ------------------------------------------------------------------ #
    def _steady_state(
        self, tpl: PhaseTypeTemplate, rate_vec: np.ndarray
    ) -> np.ndarray:
        """Solve ``pi Q = 0`` for one point: a one-row recursion call."""
        return _finalize_pi(
            stage_chain_stationary(tpl.lattice, rate_vec[None, :])[0]
        )

    @property
    def n_states(self) -> int:
        return self.prepare().n_states

    @property
    def steady_method(self) -> str:
        """The steady-state solver a point solve runs."""
        return "exact level-recursion"

    def describe(self) -> str:
        return (
            f"{self.n_states} phase-type states "
            f"(k_d={self.k_d}, k_t={self.k_t}, n_max={self.n_max}), "
            "structure built once (recursion lattice and reward vectors; "
            "the generator pattern only for transient metrics), "
            f"{self.steady_method} steady state in one call per batch, "
            "one dot product per steady cell"
        )

    # ------------------------------------------------------------------ #
    def _steady_metric(
        self, solution: PhaseTypeSweepSolution, spec: MetricSpec
    ) -> float:
        return float(solution.pi @ self._steady_vector(solution.template, spec))

    @staticmethod
    def _steady_vector(tpl: PhaseTypeTemplate, spec: MetricSpec) -> np.ndarray:
        """The collapse vector a steady metric is the ``pi``-weighted sum of."""
        if spec.kind == "fraction":
            if spec.arg not in STATE_NAMES:
                raise ValueError(
                    f"fraction metric needs a state in {list(STATE_NAMES)}, "
                    f"got {spec.arg!r}"
                )
            return tpl.kind_masks[spec.arg]
        if spec.arg is not None:
            raise ValueError(
                f"metric kind {spec.kind!r} takes no ':' argument"
            )
        if spec.kind == "power":
            return tpl.power_mw
        if spec.kind == "mean_jobs":
            return tpl.jobs
        return tpl.trunc_mask

    def _reward_vector(
        self, solution: PhaseTypeSweepSolution, name: str
    ) -> np.ndarray:
        tpl = solution.template
        if name == "power":
            return tpl.power_mw
        if name == "jobs":
            return tpl.jobs
        if name in STATE_NAMES:
            return tpl.kind_masks[name]
        raise ValueError(
            f"unknown reward {name!r} (have: power, jobs, "
            f"{', '.join(STATE_NAMES)})"
        )

    def _transient_metric(
        self, solution: PhaseTypeSweepSolution, spec: MetricSpec
    ) -> float:
        tpl = solution.template
        if spec.kind == "time_to_threshold":
            return self._time_to_threshold(solution, spec)
        assert spec.at is not None
        if spec.kind == "energy":
            if spec.arg is not None:
                raise ValueError("energy@t takes no ':' argument")
            # mW integrated over seconds -> millijoules -> joules
            mws = solution.ctmc.accumulated_reward(tpl.p0, tpl.power_mw, spec.at)
            return mws / 1000.0
        if spec.kind == "fraction":
            if spec.arg not in STATE_NAMES:
                raise ValueError(
                    f"fraction metric needs a state in {list(STATE_NAMES)}, "
                    f"got {spec.arg!r}"
                )
            pt = solution.ctmc.transient(tpl.p0, spec.at)
            return float(pt @ tpl.kind_masks[spec.arg])
        # accumulated_reward:<reward>@t
        if spec.arg is None:
            raise ValueError(
                "accumulated_reward needs a reward, e.g. "
                f"'accumulated_reward:power@{spec.at}'"
            )
        rewards = self._reward_vector(solution, spec.arg)
        return float(solution.ctmc.accumulated_reward(tpl.p0, rewards, spec.at))

    def _time_to_threshold(
        self, solution: PhaseTypeSweepSolution, spec: MetricSpec
    ) -> float:
        """First time the expected power is within ``frac`` of steady state.

        Walks the transient forward in increments of 1/64th of the mean
        regeneration cycle and returns the first crossing time (0.0 when
        the chain starts inside the band, ``inf`` when it never settles
        within the 32-cycle search window).
        """
        try:
            frac = float(spec.arg) if spec.arg is not None else float("nan")
        except ValueError:
            frac = float("nan")
        if not (frac > 0.0 and math.isfinite(frac)):
            raise ValueError(
                "time_to_threshold needs a positive relative tolerance, "
                f"e.g. 'time_to_threshold:0.01'; got {spec.arg!r}"
            )
        tpl = solution.template
        power_ss = solution.power_mw()
        cycle = ExactRenewalModel(solution.params).solve().mean_cycle_length
        if not math.isfinite(cycle):
            cycle = 10.0 / solution.params.arrival_rate
        band = frac * abs(power_ss)
        p = tpl.p0
        if abs(float(p @ tpl.power_mw) - power_ss) <= band:
            return 0.0
        h = cycle / 64.0
        t = 0.0
        for _ in range(64 * 32):
            p = solution.ctmc.advance(p, h)
            t += h
            if abs(float(p @ tpl.power_mw) - power_ss) <= band:
                return t
        return math.inf


#: Deprecated spelling: the phase-type backend always batches now.
#: ``make_backend("phase-type-batched")`` resolves to it as well.
BatchedPhaseTypeBackend = PhaseTypeBackend
