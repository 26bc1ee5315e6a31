"""Phase-type (Erlang-k) CTMC approximation of the deterministic delays.

The paper's conclusion wishes for "an effective method of modeling constant
delays in Markov chains".  The classical answer is stage expansion: replace
each deterministic delay by an Erlang-k distribution with the same mean —
a chain of k exponential stages.  The resulting process *is* Markov, so the
whole model becomes a finite CTMC solvable by linear algebra, and as
``k → ∞`` the Erlang delay converges (in distribution) to the constant it
approximates.

This module builds that CTMC over the states

- ``standby``                       (queue empty, CPU asleep)
- ``(powerup, j, n)``               wake-up stage ``j = 1..k_D``, ``n ≥ 1`` jobs
- ``(busy, n)``                     serving, ``n ≥ 1`` jobs in system
- ``(idle, i)``                     queue empty, idle-timer stage ``i = 1..k_T``

with the queue truncated at ``n_max`` (truncation mass is reported so users
can verify it is negligible).  ``k = 1`` is the naive "make everything
exponential" Markov model — a useful baseline showing *why* the paper needed
supplementary variables — and ``k ≈ 64`` is numerically indistinguishable
from the exact renewal solution (a convergence the test suite asserts).

The chain needs no linear solve: inside a queue level the stages only move
forward, the idle block is geometric, and the busy level follows from
level-cut balance, so :func:`stage_chain_stationary` computes the exact
stationary vector by an ``O(states)`` recursion, vectorised over a whole
stack of rate vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.core.params import CPUModelParams, PowerProfile, StateFractions
from repro.markov.stationary import _finalize_pi

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "PhaseTypeSolution",
    "PhaseTypeModel",
    "RATE_ARRIVAL",
    "RATE_SERVICE",
    "RATE_POWERUP_STAGE",
    "RATE_IDLE_STAGE",
    "StageLattice",
    "build_stage_lattice",
    "build_stage_structure",
    "stage_chain_stationary",
    "stage_rate_vector",
    "state_power_vector",
]

State = Tuple

#: Symbolic rate slots of the stage-expanded chain: bind concrete values
#: with ``rate_vec = [lam, mu, k_d / D, k_t / T]`` and ``rate_vec[rate_ids]``.
RATE_ARRIVAL, RATE_SERVICE, RATE_POWERUP_STAGE, RATE_IDLE_STAGE = range(4)


def build_stage_structure(
    k_d: int,
    k_t: int,
    n_max: int,
    has_powerup: bool = True,
    has_idle: bool = True,
) -> Tuple[List[State], Dict[State, int], np.ndarray, np.ndarray, np.ndarray]:
    """Rate-independent skeleton of the Erlang-stage CPU chain.

    Returns ``(states, index, rows, cols, rate_ids)``: the state list, its
    position index, and COO triplets whose data slot is a *symbolic* rate id
    (one of the ``RATE_*`` constants) rather than a number.  The sparsity
    pattern depends only on the stage counts and the truncation level, never
    on the rates, so one structure serves every point of a parameter sweep
    — bind a concrete generator with ``rate_vec[rate_ids]``.
    """
    states: List[State] = [("standby",)]
    if has_powerup:
        for j in range(1, k_d + 1):
            for n in range(1, n_max + 1):
                states.append(("powerup", j, n))
    for n in range(1, n_max + 1):
        states.append(("busy", n))
    if has_idle:
        for i in range(1, k_t + 1):
            states.append(("idle", i))
    index = {s: i for i, s in enumerate(states)}

    rows: List[int] = []
    cols: List[int] = []
    ids: List[int] = []

    def add(src: State, dst: State, rate_id: int) -> None:
        rows.append(index[src])
        cols.append(index[dst])
        ids.append(rate_id)

    # standby: an arrival wakes the CPU
    first_after_sleep: State = ("powerup", 1, 1) if has_powerup else ("busy", 1)
    add(("standby",), first_after_sleep, RATE_ARRIVAL)

    if has_powerup:
        for j in range(1, k_d + 1):
            for n in range(1, n_max + 1):
                if n < n_max:
                    add(("powerup", j, n), ("powerup", j, n + 1), RATE_ARRIVAL)
                if j < k_d:
                    add(("powerup", j, n), ("powerup", j + 1, n), RATE_POWERUP_STAGE)
                else:
                    add(("powerup", j, n), ("busy", n), RATE_POWERUP_STAGE)

    for n in range(1, n_max + 1):
        if n < n_max:
            add(("busy", n), ("busy", n + 1), RATE_ARRIVAL)
        if n >= 2:
            add(("busy", n), ("busy", n - 1), RATE_SERVICE)
        else:
            after_empty: State = ("idle", 1) if has_idle else ("standby",)
            add(("busy", 1), after_empty, RATE_SERVICE)

    if has_idle:
        for i in range(1, k_t + 1):
            add(("idle", i), ("busy", 1), RATE_ARRIVAL)
            if i < k_t:
                add(("idle", i), ("idle", i + 1), RATE_IDLE_STAGE)
            else:
                add(("idle", i), ("standby",), RATE_IDLE_STAGE)

    return (
        states,
        index,
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(ids, dtype=np.intp),
    )


@dataclass(frozen=True)
class StageLattice:
    """Rate-independent tables of the stage chain's level recursion.

    One lattice serves every rate vector bound to the same stage counts
    and truncation level (see :func:`stage_chain_stationary`).  The block
    slices locate each state kind in :func:`build_stage_structure`'s
    state order: ``standby`` first, then the power-up block (stage-major,
    ``(j, n)`` at ``(j - 1) * n_max + n - 1``), the busy levels, and the
    idle stages.
    """

    k_d: int
    k_t: int
    n_max: int
    has_powerup: bool
    has_idle: bool
    #: ``log C(n + j - 2, j - 1)`` at power-up stage ``j`` (rows) and queue
    #: level ``n < n_max`` (columns): the lattice-path counts
    log_binom: np.ndarray
    #: ``n - 1`` as a ``(1, n_max - 1)`` row and ``j - 1`` as a
    #: ``(k_d, 1)`` column: exponents of the two per-point step ratios
    level_steps: np.ndarray
    stage_steps: np.ndarray
    #: ``i - 1`` for idle stage ``i``: the exponent of the idle ratio
    idle_steps: np.ndarray

    @property
    def n_powerup(self) -> int:
        return self.k_d * self.n_max if self.has_powerup else 0

    @property
    def n_states(self) -> int:
        return 1 + self.n_powerup + self.n_max + (self.k_t if self.has_idle else 0)

    @property
    def powerup(self) -> slice:
        return slice(1, 1 + self.n_powerup)

    @property
    def busy(self) -> slice:
        start = 1 + self.n_powerup
        return slice(start, start + self.n_max)

    @property
    def idle(self) -> slice:
        return slice(self.busy.stop, self.n_states)


def build_stage_lattice(
    k_d: int,
    k_t: int,
    n_max: int,
    has_powerup: bool = True,
    has_idle: bool = True,
) -> StageLattice:
    """The :class:`StageLattice` of :func:`build_stage_structure`'s chain.

    The log-binomial table costs ``k_d + n_max`` ``lgamma`` calls and
    one ``(k_d, n_max - 1)`` gather; it depends on no rate, so a sweep
    builds it once.
    """
    if k_d < 1 or k_t < 1 or n_max < 2:
        raise ValueError(
            f"need k_d >= 1, k_t >= 1 and n_max >= 2, got "
            f"k_d={k_d}, k_t={k_t}, n_max={n_max}"
        )
    lgamma = np.array([math.lgamma(m) for m in range(1, k_d + n_max)])
    stage = np.arange(k_d)[:, None]  # j - 1
    level = np.arange(n_max - 1)[None, :]  # n - 1
    # lgamma(m) sits at lgamma[m - 1]
    log_binom = lgamma[stage + level] - lgamma[stage] - lgamma[level]
    return StageLattice(
        k_d=k_d,
        k_t=k_t,
        n_max=n_max,
        has_powerup=has_powerup,
        has_idle=has_idle,
        log_binom=log_binom,
        level_steps=level.astype(np.float64),
        stage_steps=stage.astype(np.float64),
        idle_steps=np.arange(k_t, dtype=np.float64),
    )


def stage_chain_stationary(
    lattice: StageLattice, rate_stack: np.ndarray
) -> np.ndarray:
    """Exact stationary vectors of the stage chain, one per rate row.

    Maps a ``(B, 4)`` stack of ``[λ, μ, ν = k_d/D, τ = k_t/T]`` rows (the
    ``RATE_*`` slot order) to ``(B, n_states)`` normalised vectors in
    :func:`build_stage_structure`'s state order, from flow balance alone:

    - **idle** (anchored at ``idle(1) = 1``, so every step multiplies by
      at most 1): ``idle(i) = (τ/(λ+τ))^(i-1)`` and
      ``standby = idle(k_t)·τ/λ``;
    - **power-up below the top level**, whose stages and levels only
      move forward, are lattice-path weights:
      ``pu(j, n) = λ·standby/(λ+ν) · C(n+j-2, j-1) · a^(n-1) · c^(j-1)``
      with ``a = λ/(λ+ν)`` and ``c = ν/(λ+ν)`` (computed in log space
      from the lattice's table, so no binomial overflows);
    - **power-up top level**: ``pu(j, n_max) = (λ/ν)·Σ_{i≤j} pu(i, n_max-1)``;
    - **busy**: ``busy(1) = (λ+τ)/μ`` from the ``idle(1)`` balance, then
      level-cut balance ``busy(n+1) = (λ/μ)·(busy(n) + Σ_j pu(j, n))``.

    Without an idle block (``T = 0``) busy(1) feeds standby directly, so
    the anchor moves to ``standby = 1`` and ``busy(1) = λ/μ``; without a
    power-up block (``D = 0``) the level sums vanish.

    Every operation is elementwise per row or reduces within a row, so
    row ``k`` of the result is bitwise independent of the stack's size
    and order.  A row whose rates overflow or are invalid comes back
    non-finite rather than raising: callers validate with
    :func:`repro.markov.stationary._finalize_pi` (or the phase-type backend's
    stacked form), which fails only the offending point.
    """
    rates = np.asarray(rate_stack, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != 4:
        raise ValueError(f"rate_stack must be (B, 4), got {rates.shape}")
    n_points = len(rates)
    n_max = lattice.n_max
    # contiguous per-slot columns: transcendental ufuncs may pick another
    # code path for strided input, which would couple rows to the layout
    lam, mu, nu, tau = np.ascontiguousarray(rates.T)
    with obs.span(
        "solve.stage_recursion", n=lattice.n_states, points=n_points
    ), np.errstate(all="ignore"):
        blocks: List[np.ndarray] = []
        if lattice.has_idle:
            idle = (tau / (lam + tau))[:, None] ** lattice.idle_steps
            standby = idle[:, -1] * tau / lam
            busy_first = (lam + tau) / mu
        else:
            standby = np.ones(n_points)
            busy_first = lam / mu
        blocks.append(standby[:, None])

        rho = lam / mu
        busy = np.empty((n_max, n_points))
        busy[0] = busy_first
        if lattice.has_powerup:
            log_a = np.log(lam / (lam + nu))
            log_c = np.log(nu / (lam + nu))
            below = log_a[:, None, None] * lattice.level_steps + lattice.log_binom
            below += log_c[:, None, None] * lattice.stage_steps
            np.exp(below, out=below)
            below *= (lam * standby / (lam + nu))[:, None, None]
            powerup = np.empty((n_points, lattice.k_d, n_max))
            powerup[:, :, :-1] = below
            powerup[:, :, -1] = (lam / nu)[:, None] * np.cumsum(
                below[:, :, -1], axis=1
            )
            blocks.append(powerup.reshape(n_points, -1))
            inflow = below.sum(axis=1).T  # (n_max - 1, B) level sums
            for n in range(1, n_max):
                busy[n] = rho * (busy[n - 1] + inflow[n - 1])
        else:
            for n in range(1, n_max):
                busy[n] = rho * busy[n - 1]
        blocks.append(busy.T)
        if lattice.has_idle:
            blocks.append(idle)
        pi = np.concatenate(blocks, axis=1)
        pi /= pi.sum(axis=1)[:, None]
    return pi


def stage_rate_vector(
    params: CPUModelParams, k_d: int, k_t: int
) -> np.ndarray:
    """Concrete values for the four ``RATE_*`` slots under *params*.

    The single source of truth for how CPU parameters bind to the stage
    structure's symbolic slots (a zero delay zeroes its slot — the
    matching state block is absent from the structure then).
    """
    D, T = params.power_up_delay, params.power_down_threshold
    return np.array(
        [
            params.arrival_rate,
            params.service_rate,
            k_d / D if D > 0.0 else 0.0,
            k_t / T if T > 0.0 else 0.0,
        ]
    )


def state_power_vector(states: List[State], profile: PowerProfile) -> np.ndarray:
    """Per-state power draw (mW) over a stage-structure state list."""
    by_kind = {
        "standby": profile.standby_mw,
        "powerup": profile.powerup_mw,
        "busy": profile.active_mw,
        "idle": profile.idle_mw,
    }
    return np.array([by_kind[s[0]] for s in states])


@dataclass(frozen=True)
class PhaseTypeSolution:
    """Solved phase-type chain."""

    fractions: StateFractions
    mean_jobs: float
    truncation_mass: float  # stationary probability of the clipped top level
    n_states: int
    stages_powerup: int
    stages_idle: int


class PhaseTypeModel:
    """Erlang-stage CTMC for the power-managed CPU.

    Parameters
    ----------
    params:
        Model parameters.
    stages:
        Number of Erlang stages ``k`` for *both* deterministic delays
        (individual overrides via ``stages_powerup`` / ``stages_idle``).
    n_max:
        Queue truncation level; ``None`` picks one from the offered load
        and the expected power-up backlog ``λD``.
    """

    def __init__(
        self,
        params: CPUModelParams,
        stages: int = 32,
        stages_powerup: int | None = None,
        stages_idle: int | None = None,
        n_max: int | None = None,
    ) -> None:
        if stages < 1:
            raise ValueError("stages must be >= 1")
        self.params = params
        self.k_d = int(stages_powerup if stages_powerup is not None else stages)
        self.k_t = int(stages_idle if stages_idle is not None else stages)
        if self.k_d < 1 or self.k_t < 1:
            raise ValueError("stage counts must be >= 1")
        if n_max is None:
            lam = params.arrival_rate
            rho = params.utilization
            backlog = lam * params.power_up_delay
            mm1_tail = int(math.ceil(math.log(1e-10) / math.log(max(rho, 1e-6))))
            n_max = int(backlog + 10.0 * math.sqrt(backlog + 1.0)) + mm1_tail + 10
        if n_max < 2:
            raise ValueError("n_max must be >= 2")
        self.n_max = int(n_max)

    # ------------------------------------------------------------------ #
    @property
    def _has_powerup(self) -> bool:
        return self.params.power_up_delay > 0.0

    @property
    def _has_idle(self) -> bool:
        return self.params.power_down_threshold > 0.0

    def _build_states(self) -> Tuple[List[State], Dict[State, int]]:
        states, index, *_ = build_stage_structure(
            self.k_d, self.k_t, self.n_max, self._has_powerup, self._has_idle
        )
        return states, index

    def rate_vector(self) -> np.ndarray:
        """Concrete rates for the ``RATE_*`` slots of the stage structure."""
        return stage_rate_vector(self.params, self.k_d, self.k_t)

    def build_generator(self) -> Tuple[List[State], scipy.sparse.csr_matrix]:
        """The states and sparse generator of the stage-expanded chain."""
        # the only scipy use of the module: solve() never builds the matrix
        from scipy import sparse

        states, _, rows, cols, rate_ids = build_stage_structure(
            self.k_d, self.k_t, self.n_max, self._has_powerup, self._has_idle
        )
        n_states = len(states)
        vals = self.rate_vector()[rate_ids]
        Q = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(n_states, n_states)
        ).tocsr()
        out_rates = np.asarray(Q.sum(axis=1)).ravel()
        return states, (Q - sparse.diags(out_rates)).tocsr()

    def solve(self) -> PhaseTypeSolution:
        """Solve ``pi Q = 0`` by the exact level recursion.

        See :func:`stage_chain_stationary`; the generator is never built.
        """
        lattice = build_stage_lattice(
            self.k_d, self.k_t, self.n_max, self._has_powerup, self._has_idle
        )
        pi = _finalize_pi(
            stage_chain_stationary(lattice, self.rate_vector()[None, :])[0]
        )
        powerup = pi[lattice.powerup].reshape(-1, self.n_max)
        busy = pi[lattice.busy]
        per_level = powerup.sum(axis=0) + busy
        return PhaseTypeSolution(
            fractions=StateFractions(
                idle=float(pi[lattice.idle].sum()),
                standby=float(pi[0]),
                powerup=float(powerup.sum()),
                active=float(busy.sum()),
            ),
            mean_jobs=float(per_level @ np.arange(1, self.n_max + 1)),
            truncation_mass=float(per_level[-1]),
            n_states=lattice.n_states,
            stages_powerup=self.k_d if self._has_powerup else 0,
            stages_idle=self.k_t if self._has_idle else 0,
        )

    def mean_latency(self) -> float:
        """Mean time in system via Little's law on the truncated chain."""
        return self.solve().mean_jobs / self.params.arrival_rate
