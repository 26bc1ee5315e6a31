"""Exact CTMC solution of exponential-only nets (GSPNs).

A Petri net whose timed transitions are all exponential is a Generalized
Stochastic Petri Net; its tangible reachability graph *is* a CTMC.  This
module performs the classical reduction:

1. explore the reachability graph (:mod:`repro.petri.analysis`),
2. eliminate vanishing markings by redistributing each timed edge that
   lands on a vanishing marking over the tangible markings it reaches in
   zero time (absorption probabilities of the immediate jump chain),
3. assemble the tangible-to-tangible rate matrix and wrap it in a
   :class:`repro.markov.ctmc.CTMC`.

The reduction is split into two phases because the reachability graph — and
the vanishing-marking elimination, which depends only on immediate weights —
is *rate-independent*: an exponential transition's rate never affects which
markings are reachable, only how fast the chain moves between them.
:class:`GSPNSolver` exploits that by exploring once and caching a sparse
*rate template* of the tangible generator; :meth:`GSPNSolver.solve` then
re-binds new rates and assembles a fresh CTMC in ``O(nnz)`` instead of
re-running the whole exploration.  This is what makes parameter sweeps
(:mod:`repro.sweep`) orders of magnitude cheaper than pointwise reduction.

This is how the library validates its own simulator: for any GSPN both the
token game and the CTMC must agree on steady-state token averages, and for
textbook nets (M/M/1/K, machine-repair) the CTMC must agree with queueing
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from repro import obs
from repro.markov.ctmc import CTMC, DENSE_MAX_STATES
from repro.petri.analysis import (
    ReachabilityGraph,
    ReachabilityOptions,
    explore_reachability,
)
from repro.petri.marking import Marking
from repro.petri.net import NetStructureError, PetriNet
from repro.petri.transitions import TimedTransition

__all__ = ["GSPNSolution", "GSPNSolver", "MetricColumns", "ctmc_from_net"]


@dataclass(frozen=True)
class MetricColumns:
    """A template's metric vectors over its tangible markings.

    Rate-independent, so :class:`GSPNSolver` builds them once and every
    :class:`GSPNSolution` it returns shares them: a steady-state metric is
    then one dot product with the stationary vector.  Every row is a
    contiguous ``float64`` vector in tangible-marking order.
    """

    place_index: Dict[str, int]
    #: token count of each place (one row per place index)
    tokens: np.ndarray
    #: 1.0 where a transition is enabled (one row per transition index)
    enabled: np.ndarray

    @classmethod
    def from_graph(
        cls, graph: ReachabilityGraph, tangible: List[int]
    ) -> "MetricColumns":
        """Token counts from ``graph.counts``; the enabling of each timed
        transition from the tangible markings' out-edges (the explorer
        gives a tangible marking one edge per enabled timed transition)."""
        enabled = np.zeros((len(graph.transition_names), len(tangible)))
        for row, mi in enumerate(tangible):
            for e in graph.edges_out[mi]:
                enabled[e.transition_index, row] = 1.0
        tokens = np.ascontiguousarray(graph.counts[tangible].T, dtype=np.float64)
        tokens.setflags(write=False)
        enabled.setflags(write=False)
        place_names = graph.net.compile().place_names
        return cls(
            place_index={name: i for i, name in enumerate(place_names)},
            tokens=tokens,
            enabled=enabled,
        )

    def token_row(self, place: str) -> np.ndarray:
        """Token count of *place* per tangible marking."""
        return self.tokens[self.place_index[place]]


@dataclass
class GSPNSolution:
    """A solved GSPN: the CTMC plus marking bookkeeping.

    ``rates`` maps each exponential transition name to the rate the chain
    was assembled with (the net's own rates, unless they were re-bound via
    :meth:`GSPNSolver.solve`).  The steady-state vector is solved once
    (see :meth:`CTMC.steady_state`) and cached; every query method reuses
    it.
    """

    ctmc: CTMC
    tangible_markings: List[Marking]
    initial_distribution: np.ndarray
    graph: ReachabilityGraph
    columns: MetricColumns
    rates: Dict[str, float] = field(default_factory=dict)
    _pi: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rates:
            compiled = self.graph.net.compile()
            self.rates = {
                t.name: t.rate
                for t in compiled.transitions
                if isinstance(t, TimedTransition) and t.is_exponential
            }

    def _pi_vector(self) -> np.ndarray:
        """The stationary vector, solved once per solution instance."""
        if self._pi is None:
            self._pi = self.ctmc.steady_state()
        return self._pi

    def steady_state(self) -> Dict[Marking, float]:
        """Stationary probability per tangible marking."""
        pi = self._pi_vector()
        return {m: float(pi[i]) for i, m in enumerate(self.tangible_markings)}

    def mean_tokens(self, place: str) -> float:
        """Steady-state expected token count in *place*.

        This is the analytical counterpart of the simulator's time-averaged
        token statistic.
        """
        return float(self._pi_vector() @ self.columns.token_row(place))

    def probability_positive(self, place: str) -> float:
        """Steady-state probability that *place* is non-empty."""
        indicator = (self.columns.token_row(place) >= 1.0).astype(np.float64)
        return float(self._pi_vector() @ indicator)

    def throughput(self, transition: str) -> float:
        """Steady-state firing rate of an exponential transition."""
        graph = self.graph
        try:
            ti = graph.transition_names.index(transition)
        except ValueError:
            raise KeyError(f"unknown transition {transition!r}") from None
        trans = graph.net.compile().transitions[ti]
        if not isinstance(trans, TimedTransition) or not trans.is_exponential:
            raise ValueError(f"{transition!r} is not an exponential transition")
        rate = self.rates[transition]
        return float(self._pi_vector() @ self.columns.enabled[ti]) * rate

    def accumulated_reward(
        self, rewards: Mapping[Marking, float] | np.ndarray, t: float, **kwargs
    ) -> float:
        """Expected accumulated reward over ``[0, t]`` from the net's
        initial marking (see :meth:`repro.markov.ctmc.CTMC.accumulated_reward`)."""
        return self.ctmc.accumulated_reward(
            self.initial_distribution, rewards, t, **kwargs
        )


class GSPNSolver:
    """Explore a GSPN once; solve it for arbitrary exponential rates.

    The expensive, rate-independent work — reachability exploration,
    vanishing-marking absorption, and the sparse sparsity pattern of the
    tangible generator — happens in the constructor.  Each :meth:`solve`
    call then costs one ``O(nnz)`` assembly plus the linear-algebra solve,
    which is what a parameter sweep amortises.

    Parameters
    ----------
    net:
        An exponential-only net (every timed transition ``Exponential``).
    options:
        Reachability exploration limits.

    Raises
    ------
    NetStructureError
        If any timed transition is non-exponential, the state space is not
        finite within ``options.max_markings``, or vanishing markings form
        a zero-time livelock.
    """

    def __init__(
        self, net: PetriNet, options: ReachabilityOptions = ReachabilityOptions()
    ) -> None:
        compiled = net.compile()
        for t in compiled.transitions:
            if isinstance(t, TimedTransition) and not t.is_exponential:
                raise NetStructureError(
                    f"transition {t.name!r} is {type(t.distribution).__name__}; "
                    "CTMC export needs all timed transitions exponential "
                    "(use the simulator, or the phase-type expansion in "
                    "repro.core.phase_type, for deterministic delays)"
                )

        with obs.span("prepare.explore") as sp:
            graph = explore_reachability(net, options)
            sp.set("markings", len(graph.markings))
        if not graph.complete:
            raise NetStructureError(
                f"state space exceeded {options.max_markings} markings; "
                "the net appears unbounded"
            )

        tangible = graph.tangible_indices()
        if not tangible:
            raise NetStructureError("no tangible markings (pure zero-time net)")
        t_pos = {m: i for i, m in enumerate(tangible)}
        absorption = graph.vanishing_absorption()

        self.net = net
        self.graph = graph
        self.markings = [graph.markings[i] for i in tangible]
        self.n = len(tangible)

        # ---- rate template: Q_offdiag[row, col] = sum coeff * rate[t] ---- #
        rows: List[int] = []
        cols: List[int] = []
        t_idx: List[int] = []
        coeff: List[float] = []
        for row, mi in enumerate(tangible):
            for e in graph.edges_out[mi]:
                trans = compiled.transitions[e.transition_index]
                assert isinstance(trans, TimedTransition)
                if graph.tangible[e.target]:
                    if e.target != mi:
                        rows.append(row)
                        cols.append(t_pos[e.target])
                        t_idx.append(e.transition_index)
                        coeff.append(1.0)
                else:
                    for tm, p in absorption[e.target].items():
                        if tm != mi:
                            rows.append(row)
                            cols.append(t_pos[tm])
                            t_idx.append(e.transition_index)
                            coeff.append(p)
        self._rows = np.asarray(rows, dtype=np.intp)
        self._cols = np.asarray(cols, dtype=np.intp)
        self._t_idx = np.asarray(t_idx, dtype=np.intp)
        self._coeff = np.asarray(coeff, dtype=np.float64)

        # the generator's CSR layout is fixed by the template: each entry's
        # deduplicated off-diagonal slot (row-major), the first slot of
        # every row with an exit, and where the off-diagonal and diagonal
        # values land among the row-sorted stored entries
        n = self.n
        slots, self._slot = np.unique(
            self._rows * n + self._cols, return_inverse=True
        )
        slot_rows = slots // n
        self._row_starts = np.flatnonzero(np.diff(slot_rows, prepend=-1))
        entries = np.concatenate([slots, slot_rows[self._row_starts] * (n + 1)])
        order = np.argsort(entries, kind="stable")
        at = np.empty_like(order)
        at[order] = np.arange(order.size)
        self._off_at, self._diag_at = at[: slots.size], at[slots.size :]
        entries = entries[order]
        self._indices = (entries % n).astype(np.int32)
        self._indptr = np.searchsorted(entries // n, np.arange(n + 1)).astype(
            np.int32
        )

        # rate-independent initial distribution (absorption uses immediate
        # weights only)
        init = np.zeros(self.n)
        if graph.tangible[graph.initial_index]:
            init[t_pos[graph.initial_index]] = 1.0
        else:
            for tm, p in absorption[graph.initial_index].items():
                init[t_pos[tm]] += p
        self._init = init
        self.columns = MetricColumns.from_graph(graph, tangible)

        self._exp_names: Dict[str, int] = {
            t.name: i
            for i, t in enumerate(compiled.transitions)
            if isinstance(t, TimedTransition) and t.is_exponential
        }
        self._base_rates = np.zeros(len(compiled.transitions))
        for name, i in self._exp_names.items():
            self._base_rates[i] = compiled.transitions[i].rate

        # shared across every GMRES-solved per-point CTMC: the sparsity
        # pattern is rate-independent, so one state ordering serves a
        # whole sweep (it is the only thing a point solve reuses)
        self._factor_cache: Dict[str, object] = {}

    @property
    def exponential_transitions(self) -> List[str]:
        """Names of the transitions whose rates :meth:`solve` can re-bind."""
        return list(self._exp_names)

    def tangible_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Off-diagonal ``(rows, cols)`` of the tangible rate template.

        The template's sparsity pattern is rate-independent: an edge
        exists for *any* positive rates iff it exists here.  Chain-level
        preflight (:mod:`repro.verify`) classifies the communicating
        classes of exactly this graph, so diagnosing a sweep costs one
        linear pass instead of a solve.
        """
        return self._rows.copy(), self._cols.copy()

    def _rate_vector(self, rates: Optional[Mapping[str, float]]) -> np.ndarray:
        vec = self._base_rates.copy()
        if rates:
            for name, rate in rates.items():
                if name not in self._exp_names:
                    raise KeyError(
                        f"{name!r} is not an exponential transition of the net "
                        f"(have: {sorted(self._exp_names)})"
                    )
                if not (rate > 0.0 and np.isfinite(rate)):
                    raise ValueError(
                        f"rate for {name!r} must be finite and > 0, got {rate}"
                    )
                vec[self._exp_names[name]] = float(rate)
        return vec

    def assemble_generator(
        self, rates: Optional[Mapping[str, float]] = None
    ) -> sparse.csr_matrix:
        """The tangible CSR generator under *rates* (defaults to the net's)."""
        return self._assemble(self._rate_vector(rates))

    def _assemble(self, rate_vec: np.ndarray) -> sparse.csr_matrix:
        """``Q`` on the template's fixed CSR layout.  Duplicate entries sum
        in template order and each diagonal is ``-np.add.reduceat`` of its
        row, the arithmetic of scipy's COO -> CSR conversion and row sum,
        so ``Q`` is bit-identical to ``coo.tocsr() - diags(row sums)``."""
        off = np.bincount(
            self._slot,
            weights=self._coeff * rate_vec[self._t_idx],
            minlength=self._off_at.size,
        )
        values = np.empty(self._indices.size)
        values[self._off_at] = off
        if self._row_starts.size:
            values[self._diag_at] = -np.add.reduceat(off, self._row_starts)
        return sparse.csr_matrix(
            (values, self._indices.copy(), self._indptr.copy()),
            shape=(self.n, self.n),
        )

    def solve(self, rates: Optional[Mapping[str, float]] = None) -> GSPNSolution:
        """Assemble and wrap the CTMC for *rates* (no re-exploration).

        *rates* maps transition names to new exponential rates; omitted
        transitions keep the rate from the net definition.  A chain of at
        most :data:`~repro.markov.ctmc.DENSE_MAX_STATES` states is stored
        densely and solves by dense LU; a larger one stays sparse and
        solves by GMRES from a cold start and its own ILU, reusing only
        this solver's rate-independent state ordering — so a point's
        result never depends on which points were solved before it.
        """
        rate_vec = self._rate_vector(rates)
        Q = self._assemble(rate_vec)
        if self.n <= DENSE_MAX_STATES:
            ctmc = CTMC(Q.toarray(), labels=self.markings, backend="dense")
        else:
            ctmc = CTMC(Q, labels=self.markings, factor_cache=self._factor_cache)
        effective = {name: float(rate_vec[i]) for name, i in self._exp_names.items()}
        return GSPNSolution(
            ctmc=ctmc,
            tangible_markings=self.markings,
            initial_distribution=self._init.copy(),
            graph=self.graph,
            columns=self.columns,
            rates=effective,
        )


def ctmc_from_net(
    net: PetriNet, options: ReachabilityOptions = ReachabilityOptions()
) -> GSPNSolution:
    """Reduce an exponential-only net to a CTMC over tangible markings.

    One-shot convenience over :class:`GSPNSolver`; when solving the same
    net structure for many rate points, build a ``GSPNSolver`` once and
    call :meth:`GSPNSolver.solve` per point instead.

    Raises
    ------
    NetStructureError
        If any timed transition is non-exponential, the state space is not
        finite within ``options.max_markings``, or vanishing markings form a
        zero-time livelock.
    """
    return GSPNSolver(net, options).solve()
