"""Reference reachability: the array-walking explorer and the dense
vanishing elimination, kept as the differential oracle.

:func:`repro.petri.analysis.explore_reachability` explores tuple markings
with the generated token-game kernels and builds its :class:`Marking`
objects once, from one stacked count array;
:meth:`~repro.petri.analysis.ReachabilityGraph.vanishing_absorption`
eliminates the vanishing block with one sparse LU.  The functions here do
the same work the straightforward way — a fresh ``Marking`` per successor,
:meth:`CompiledNet.enabled` on ``int64`` arrays, a dense
``np.linalg.solve`` over the whole vanishing block — and
:func:`reference_template` rebuilds a :class:`GSPNSolver`'s rate template
and initial distribution from them; :func:`reference_generator` assembles
a generator from a template through scipy's COO -> CSR conversion.
``test_reachability_differential.py`` holds the production code to these
bit for bit (graphs, edge probabilities, template indices, generators) or
to 1e-12 (absorption, coefficients); ``benchmarks/bench_backends.py``
times a cold solver against them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.petri.analysis import Edge, ReachabilityGraph, ReachabilityOptions
from repro.petri.marking import Marking
from repro.petri.net import CompiledNet, NetStructureError, PetriNet
from repro.petri.transitions import TimedTransition


def _successor(compiled: CompiledNet, t_index: int, marking: np.ndarray) -> np.ndarray:
    """Marking after firing *t_index* (copy; for reachability search)."""
    out = marking.copy()
    compiled.fire(t_index, out)
    return out


def reference_explore(
    net: PetriNet, options: ReachabilityOptions = ReachabilityOptions()
) -> ReachabilityGraph:
    """Breadth-first reachability exploration with vanishing classification."""
    compiled = net.compile()
    place_names = compiled.place_names
    transitions = compiled.transitions

    # immediates grouped by descending priority, mirroring the simulator
    imm_sorted = sorted(
        compiled.immediate_indices,
        key=lambda i: -transitions[i].priority,  # type: ignore[attr-defined]
    )

    initial = compiled.initial_marking.copy()
    init_marking = Marking(initial, place_names)
    index: Dict[Marking, int] = {init_marking: 0}
    markings: List[Marking] = [init_marking]
    tangible: List[bool] = []
    edges_out: List[List[Edge]] = []
    queue: deque[int] = deque([0])
    complete = True

    while queue:
        mi = queue.popleft()
        m_vec = markings[mi].counts.copy()

        # --- vanishing? find the maximal-priority enabled immediate set --- #
        conflict: List[int] = []
        best_priority: Optional[int] = None
        for ti in imm_sorted:
            prio = transitions[ti].priority  # type: ignore[attr-defined]
            if best_priority is not None and prio < best_priority:
                break
            if compiled.enabled(ti, m_vec):
                best_priority = prio
                conflict.append(ti)

        edges: List[Edge] = []
        if conflict:
            tangible.append(False)
            weights = np.array(
                [transitions[i].weight for i in conflict]  # type: ignore[attr-defined]
            )
            probs = weights / weights.sum()
            for ti, p in zip(conflict, probs):
                succ = _successor(compiled, ti, m_vec)
                target = _intern(succ, place_names, index, markings, queue)
                edges.append(Edge(mi, target, ti, probability=float(p)))
        else:
            tangible.append(True)
            for ti in compiled.timed_indices:
                if compiled.enabled(ti, m_vec):
                    succ = _successor(compiled, ti, m_vec)
                    target = _intern(succ, place_names, index, markings, queue)
                    edges.append(Edge(mi, target, ti))
        edges_out.append(edges)

        if len(markings) > options.max_markings:
            complete = False
            # stop expanding; classify remaining queued markings lazily
            while queue:
                qi = queue.popleft()
                while len(tangible) <= qi:
                    tangible.append(True)
                    edges_out.append([])
            break

    # pad classification arrays if exploration stopped early
    while len(tangible) < len(markings):
        tangible.append(True)
        edges_out.append([])

    return ReachabilityGraph(
        net=net,
        markings=markings,
        tangible=tangible,
        edges_out=edges_out,
        initial_index=0,
        complete=complete,
        counts=np.array([m.counts for m in markings]).reshape(
            len(markings), len(place_names)
        ),
        transition_names=[t.name for t in transitions],
    )


def _intern(
    vec: np.ndarray,
    place_names: Sequence[str],
    index: Dict[Marking, int],
    markings: List[Marking],
    queue: deque,
) -> int:
    """Intern a marking vector, enqueueing it if new."""
    m = Marking(vec, place_names)
    found = index.get(m)
    if found is not None:
        return found
    new_index = len(markings)
    index[m] = new_index
    markings.append(m)
    queue.append(new_index)
    return new_index


def reference_absorption(graph: ReachabilityGraph) -> Dict[int, Dict[int, float]]:
    """For every vanishing marking, its distribution over the tangible
    markings ultimately reached through zero-time firings.

    Solves ``B = (I - V)^{-1} R`` over the vanishing block.  Raises
    :class:`NetStructureError` when vanishing markings form a zero-time
    trap (livelock) — the system would then be singular.
    """
    vanishing = graph.vanishing_indices()
    if not vanishing:
        return {}
    v_pos = {m: i for i, m in enumerate(vanishing)}
    tangible = graph.tangible_indices()
    t_pos = {m: i for i, m in enumerate(tangible)}
    nv, nt = len(vanishing), len(tangible)
    V = np.zeros((nv, nv))
    R = np.zeros((nv, nt))
    for vi, m in enumerate(vanishing):
        for e in graph.edges_out[m]:
            p = e.probability if e.probability is not None else 0.0
            if graph.tangible[e.target]:
                R[vi, t_pos[e.target]] += p
            else:
                V[vi, v_pos[e.target]] += p
    try:
        B = np.linalg.solve(np.eye(nv) - V, R)
    except np.linalg.LinAlgError as exc:
        raise NetStructureError(
            f"vanishing markings form a zero-time livelock: {exc}"
        ) from exc
    if np.any(B < -1e-9):
        raise NetStructureError("negative absorption probability")
    result: Dict[int, Dict[int, float]] = {}
    for vi, m in enumerate(vanishing):
        row = B[vi]
        total = row.sum()
        if not np.isclose(total, 1.0, atol=1e-8):
            raise NetStructureError(
                f"vanishing marking {graph.markings[m]!r} leaks probability "
                f"(sum={total:.6g}); likely a zero-time trap"
            )
        result[m] = {
            tangible[tj]: float(row[tj]) for tj in range(nt) if row[tj] > 0.0
        }
    return result


@dataclass
class ReferenceTemplate:
    """What a cold :class:`GSPNSolver` prepares, built the reference way."""

    graph: ReachabilityGraph
    absorption: Dict[int, Dict[int, float]]
    rows: np.ndarray
    cols: np.ndarray
    t_idx: np.ndarray
    coeff: np.ndarray
    init: np.ndarray


def reference_template(
    net: PetriNet, options: ReachabilityOptions = ReachabilityOptions()
) -> ReferenceTemplate:
    """Explore, eliminate and assemble the rate template of an
    exponential-only net (the preparation of :class:`GSPNSolver`)."""
    compiled = net.compile()
    graph = reference_explore(net, options)
    if not graph.complete:
        raise NetStructureError(
            f"state space exceeded {options.max_markings} markings; "
            "the net appears unbounded"
        )
    tangible = graph.tangible_indices()
    if not tangible:
        raise NetStructureError("no tangible markings (pure zero-time net)")
    t_pos = {m: i for i, m in enumerate(tangible)}
    absorption = reference_absorption(graph)

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

    init = np.zeros(len(tangible))
    if graph.tangible[graph.initial_index]:
        init[t_pos[graph.initial_index]] = 1.0
    else:
        for tm, p in absorption[graph.initial_index].items():
            init[t_pos[tm]] += p
    return ReferenceTemplate(
        graph=graph,
        absorption=absorption,
        rows=np.asarray(rows, dtype=np.intp),
        cols=np.asarray(cols, dtype=np.intp),
        t_idx=np.asarray(t_idx, dtype=np.intp),
        coeff=np.asarray(coeff, dtype=np.float64),
        init=init,
    )


def reference_generator(
    solver, rate_vec: np.ndarray
) -> sparse.csr_matrix:
    """The tangible CSR generator of *solver*'s template under *rate_vec*."""
    data = solver._coeff * rate_vec[solver._t_idx]
    off = sparse.coo_matrix(
        (data, (solver._rows, solver._cols)), shape=(solver.n, solver.n)
    ).tocsr()
    exit_rates = np.asarray(off.sum(axis=1)).ravel()
    return (off - sparse.diags(exit_rates)).tocsr()
