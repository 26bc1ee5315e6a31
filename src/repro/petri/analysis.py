"""Reachability analysis of EDSPNs.

Builds the reachability graph by breadth-first exploration from the initial
marking, classifying markings as *vanishing* (at least one immediate
transition enabled — left in zero time) or *tangible* (only timed
transitions, or dead).  The graph supports:

- structural diagnostics: per-place token bounds, dead transitions, dead
  (absorbing) markings, boundedness up to an exploration budget;
- the tangible-to-tangible stochastic reduction used by
  :mod:`repro.petri.ctmc_export` to turn exponential-only nets into CTMCs.

Exploration is exact for bounded nets; for unbounded nets it stops at
``max_markings`` and reports ``complete=False`` (this library does not
implement coverability trees — the nets in the reproduction are 1-bounded
by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.petri.marking import Marking
from repro.petri.net import NetStructureError, PetriNet, TokenFire, transition_kernels

__all__ = ["ReachabilityOptions", "Edge", "ReachabilityGraph", "explore_reachability"]

# right-hand-side columns per SuperLU solve in the vanishing elimination
_SOLVE_BLOCK = 32


@dataclass(frozen=True)
class ReachabilityOptions:
    """Exploration limits."""

    max_markings: int = 100_000


@dataclass(frozen=True)
class Edge:
    """One reachability edge.

    ``probability`` is set for edges out of vanishing markings (normalised
    immediate weights within the maximal priority class); it is ``None``
    for timed edges out of tangible markings.
    """

    source: int
    target: int
    transition_index: int
    probability: Optional[float] = None


@dataclass
class ReachabilityGraph:
    """The explored state space."""

    net: PetriNet
    markings: List[Marking]
    tangible: List[bool]
    edges_out: List[List[Edge]]
    initial_index: int
    complete: bool
    # token counts, one row per marking (the rows back ``markings``)
    counts: np.ndarray
    transition_names: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def n_markings(self) -> int:
        return len(self.markings)

    def tangible_indices(self) -> List[int]:
        return [i for i, t in enumerate(self.tangible) if t]

    def vanishing_indices(self) -> List[int]:
        return [i for i, t in enumerate(self.tangible) if not t]

    def place_bound(self, place: str) -> int:
        """Maximum token count observed in *place* across all markings."""
        return max(m[place] for m in self.markings)

    def is_k_bounded(self, k: int) -> bool:
        """True when every place holds <= k tokens in every explored marking
        (meaningful only when ``complete``)."""
        return int(self.counts.max(initial=0)) <= k

    def dead_markings(self) -> List[int]:
        """Indices of markings with no enabled transitions (deadlocks)."""
        return [i for i, es in enumerate(self.edges_out) if not es]

    def dead_transitions(self) -> List[str]:
        """Transitions never enabled anywhere in the explored space."""
        fired = {e.transition_index for es in self.edges_out for e in es}
        return [
            name
            for i, name in enumerate(self.transition_names)
            if i not in fired
        ]

    def find(self, marking: Marking) -> Optional[int]:
        """Index of *marking* in the graph, or None."""
        try:
            return self.markings.index(marking)
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    def vanishing_absorption(self) -> Dict[int, Dict[int, float]]:
        """For every vanishing marking, its distribution over the tangible
        markings ultimately reached through zero-time firings.

        Solves ``B = (I - V)^{-1} R`` over the vanishing block with one
        sparse LU of ``I - V``, against only the tangible columns that an
        immediate firing reaches.  Raises :class:`NetStructureError` when
        vanishing markings form a zero-time trap (livelock) — the system
        would then be singular.
        """
        flags = np.asarray(self.tangible, dtype=bool)
        vanishing = np.flatnonzero(~flags)
        if not vanishing.size:
            return {}
        tangible = np.flatnonzero(flags)
        nv, nt = vanishing.size, tangible.size
        # each marking's position within its own class
        pos = np.empty(flags.size, dtype=np.intp)
        pos[vanishing] = np.arange(nv)
        pos[tangible] = np.arange(nt)
        src: List[int] = []
        dst: List[int] = []
        prob: List[float] = []
        for vi, m in enumerate(vanishing.tolist()):
            for e in self.edges_out[m]:
                src.append(vi)
                dst.append(e.target)
                prob.append(e.probability if e.probability is not None else 0.0)
        rows, targets = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
        p = np.asarray(prob, dtype=np.float64)
        exits = flags[targets]
        stays = ~exits
        V = sparse.csc_matrix(
            (p[stays], (rows[stays], pos[targets[stays]])), shape=(nv, nv)
        )
        R = sparse.csc_matrix(
            (p[exits], (rows[exits], pos[targets[exits]])), shape=(nv, nt)
        )
        reached = np.flatnonzero(np.diff(R.indptr))  # tangible columns hit
        try:
            lu = splu(sparse.identity(nv, format="csc") - V)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NetStructureError(
                f"vanishing markings form a zero-time livelock: {exc}"
            ) from exc
        # solve against R in blocks of columns: one wide solve runs its
        # BLAS calls multi-threaded, which is no faster at these sizes and
        # leaves the BLAS threads spinning for ~0.1 s, stalling the dense
        # steady-state solves that follow a cold template build
        rhs = R[:, reached].toarray(order="F")
        B = np.empty_like(rhs)
        for lo in range(0, rhs.shape[1], _SOLVE_BLOCK):
            B[:, lo : lo + _SOLVE_BLOCK] = lu.solve(rhs[:, lo : lo + _SOLVE_BLOCK])
        if np.any(B < -1e-9):
            raise NetStructureError("negative absorption probability")
        totals = B.sum(axis=1)
        leaks = ~np.isclose(totals, 1.0, atol=1e-8)
        if leaks.any():
            first = int(np.argmax(leaks))
            raise NetStructureError(
                f"vanishing marking {self.markings[vanishing[first]]!r} leaks "
                f"probability (sum={totals[first]:.6g}); likely a zero-time trap"
            )
        # each row's positive support, in ascending tangible order
        r, c = np.nonzero(B > 0.0)
        keys = tangible[reached[c]].tolist()
        values = B[r, c].tolist()
        bounds = np.searchsorted(r, np.arange(nv + 1)).tolist()
        return {
            m: dict(zip(keys[lo:hi], values[lo:hi]))
            for m, lo, hi in zip(vanishing.tolist(), bounds, bounds[1:])
        }


def explore_reachability(
    net: PetriNet, options: ReachabilityOptions = ReachabilityOptions()
) -> ReachabilityGraph:
    """Breadth-first reachability exploration with vanishing classification.

    Markings are explored as tuples of token counts with the generated
    per-transition kernels of :func:`~repro.petri.net.transition_kernels`
    (guards receive a plain ``list``); the :class:`Marking` objects are
    built once, at the end, from the stacked ``counts`` array.
    """
    compiled = net.compile()
    transitions = compiled.transitions
    tests, fires = transition_kernels(compiled, [()] * len(transitions))

    # immediates by priority class, highest first, index order within a
    # class (mirroring the simulator): the first class with an enabled
    # member is the marking's conflict set
    priority = {
        ti: transitions[ti].priority  # type: ignore[attr-defined]
        for ti in compiled.immediate_indices
    }
    priority_classes = [
        [ti for ti in compiled.immediate_indices if priority[ti] == level]
        for level in sorted(set(priority.values()), reverse=True)
    ]
    timed = compiled.timed_indices
    # normalised weights, once per distinct conflict set
    conflict_probs: Dict[Tuple[int, ...], List[float]] = {}

    initial = tuple(compiled.initial_marking.tolist())
    index: Dict[Tuple[int, ...], int] = {initial: 0}
    keys: List[Tuple[int, ...]] = [initial]
    tangible: List[bool] = []
    edges_out: List[List[Edge]] = []
    complete = True

    # BFS: markings are expanded in discovery (= index) order
    for mi, key in enumerate(keys):
        m = list(key)
        conflict: Tuple[int, ...] = ()
        for members in priority_classes:
            conflict = tuple(ti for ti in members if tests[ti](m))
            if conflict:
                break

        edges: List[Edge] = []
        if conflict:
            tangible.append(False)
            probs = conflict_probs.get(conflict)
            if probs is None:
                weights = np.array(
                    [transitions[i].weight for i in conflict]  # type: ignore[attr-defined]
                )
                probs = conflict_probs[conflict] = [
                    float(p) for p in weights / weights.sum()
                ]
            for ti, p in zip(conflict, probs):
                target = _intern(fires[ti], m, index, keys)
                edges.append(Edge(mi, target, ti, probability=p))
        else:
            tangible.append(True)
            for ti in timed:
                if tests[ti](m):
                    target = _intern(fires[ti], m, index, keys)
                    edges.append(Edge(mi, target, ti))
        edges_out.append(edges)

        if len(keys) > options.max_markings:
            # stop expanding; the queued markings stay unclassified
            complete = False
            break

    # pad classification arrays if exploration stopped early
    n_pad = len(keys) - len(tangible)
    tangible.extend([True] * n_pad)
    edges_out.extend([] for _ in range(n_pad))

    counts = np.array(keys, dtype=np.int64).reshape(len(keys), -1)
    return ReachabilityGraph(
        net=net,
        markings=Marking.from_rows(counts, compiled.place_names),
        tangible=tangible,
        edges_out=edges_out,
        initial_index=0,
        complete=complete,
        counts=counts,
        transition_names=[t.name for t in transitions],
    )


def _intern(
    fire: TokenFire,
    marking: List[int],
    index: Dict[Tuple[int, ...], int],
    keys: List[Tuple[int, ...]],
) -> int:
    """Intern the successor of *marking* under *fire*, queueing it if new."""
    succ = marking.copy()
    fire(succ, [])
    key = tuple(succ)
    found = index.get(key)
    if found is not None:
        return found
    index[key] = new_index = len(keys)
    keys.append(key)
    return new_index
