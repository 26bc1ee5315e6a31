"""Differential gate for the reachability explorer and vanishing elimination.

:func:`~repro.petri.analysis.explore_reachability` runs on tuple markings
and the generated token-game kernels;
:meth:`~repro.petri.analysis.ReachabilityGraph.vanishing_absorption` is one
sparse LU.  ``reference_reachability`` keeps the array-walking explorer and
the dense solve.  Both must find the same graph — marking order, tangible
flags, ``complete``, every edge with its probability bit for bit — the same
absorption support to 1e-12, and the same :class:`GSPNSolver` template,
whose generator assembly must match scipy's COO -> CSR construction bit
for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.des.distributions import Exponential
from repro.petri.analysis import (
    ReachabilityGraph,
    ReachabilityOptions,
    explore_reachability,
)
from repro.petri.arcs import ArcKind
from repro.petri.ctmc_export import GSPNSolver, ctmc_from_net
from repro.petri.marking import Marking
from repro.petri.net import NetStructureError, PetriNet
from repro.petri.transitions import TimedTransition
from repro.sweep import DEMO_NETS, build_cpu_gspn_net
from tests.petri.reference_reachability import (
    reference_absorption,
    reference_explore,
    reference_generator,
    reference_template,
)
from tests.petri.test_incremental_differential import random_nets

SMALL = ReachabilityOptions(max_markings=60)


def _edges(graph: ReachabilityGraph):
    return [
        [
            (
                e.source,
                e.target,
                e.transition_index,
                None if e.probability is None else e.probability.hex(),
            )
            for e in edges
        ]
        for edges in graph.edges_out
    ]


def assert_same_graph(got: ReachabilityGraph, want: ReachabilityGraph) -> None:
    names = want.markings[0].place_names
    assert got.markings == want.markings
    assert [hash(m) for m in got.markings] == [
        hash(Marking(m.counts, names)) for m in want.markings
    ]
    assert got.counts.dtype == np.int64
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.counts.shape == (len(want.markings), len(names))
    assert got.tangible == want.tangible
    assert got.complete is want.complete
    assert got.initial_index == want.initial_index
    assert got.transition_names == want.transition_names
    assert _edges(got) == _edges(want)


def _absorb(graph: ReachabilityGraph, absorb):
    try:
        return absorb(graph)
    except NetStructureError as exc:
        return exc


def assert_same_absorption(got, want) -> None:
    if isinstance(want, NetStructureError):
        assert isinstance(got, NetStructureError), got
        return
    assert not isinstance(got, Exception), got
    assert list(got) == list(want)
    for m, row in want.items():
        assert list(got[m]) == list(row), f"support of vanishing marking {m}"
        np.testing.assert_allclose(
            list(got[m].values()), list(row.values()), rtol=0, atol=1e-12
        )


def assert_same_template(net: PetriNet, options=ReachabilityOptions()) -> None:
    try:
        want = reference_template(net, options)
    except NetStructureError as exc:
        with pytest.raises(NetStructureError) as got:
            GSPNSolver(net, options)
        if "livelock" not in str(exc) and "leaks" not in str(exc):
            assert str(got.value) == str(exc)
        return
    solver = GSPNSolver(net, options)
    assert_same_graph(solver.graph, want.graph)
    np.testing.assert_array_equal(solver._rows, want.rows)
    np.testing.assert_array_equal(solver._cols, want.cols)
    np.testing.assert_array_equal(solver._t_idx, want.t_idx)
    np.testing.assert_allclose(solver._coeff, want.coeff, rtol=0, atol=1e-12)
    # one-hot from a tangible initial marking, else absorption probabilities
    np.testing.assert_array_equal(solver._init > 0, want.init > 0)
    np.testing.assert_allclose(solver._init, want.init, rtol=0, atol=1e-12)
    assert_same_generator(solver)


def assert_same_generator(solver: GSPNSolver) -> None:
    """The fixed-layout assembly is scipy's COO -> CSR, bit for bit."""
    rng = np.random.default_rng(solver.n)
    for _ in range(3):
        rate_vec = solver._base_rates * rng.uniform(0.5, 2.0, solver._base_rates.size)
        got, want = solver._assemble(rate_vec), reference_generator(solver, rate_vec)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def _exponential_twin(net: PetriNet) -> PetriNet:
    """*net* with every timed delay made ``Exponential`` (same structure,
    guards and immediates), so a :class:`GSPNSolver` accepts it."""
    twin = PetriNet(net.name)
    for p in net.places:
        twin.add_place(p.name, p.initial, p.capacity)
    for t in net.transitions:
        if isinstance(t, TimedTransition):
            twin.add_timed_transition(t.name, Exponential(1.5), guard=t.guard)
        else:
            twin.add_transition(t)
    add = {
        ArcKind.INPUT: lambda a: twin.add_input_arc(a.place, a.transition, a.multiplicity),
        ArcKind.OUTPUT: lambda a: twin.add_output_arc(a.transition, a.place, a.multiplicity),
        ArcKind.INHIBITOR: lambda a: twin.add_inhibitor_arc(a.place, a.transition, a.multiplicity),
    }
    for arc in net.arcs:
        add[arc.kind](arc)
    return twin


# --------------------------------------------------------------------- #
# random nets (truncated at 60 markings: most of them are unbounded)
# --------------------------------------------------------------------- #
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(net=random_nets())
def test_random_nets_match_reference(net):
    got, want = explore_reachability(net, SMALL), reference_explore(net, SMALL)
    assert_same_graph(got, want)
    assert_same_absorption(
        _absorb(got, ReachabilityGraph.vanishing_absorption),
        _absorb(want, reference_absorption),
    )
    assert_same_template(_exponential_twin(net), SMALL)


# --------------------------------------------------------------------- #
# the service's nets
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(DEMO_NETS))
def test_demo_nets_match_reference(name):
    net = DEMO_NETS[name][0]()
    assert_same_graph(explore_reachability(net), reference_explore(net))
    assert_same_template(net)


@pytest.mark.parametrize("buffer", [17, 40, 60])
def test_cpu_gspn_matches_reference(buffer):
    net = build_cpu_gspn_net(buffer_capacity=buffer)
    graph = explore_reachability(net)
    assert_same_absorption(
        graph.vanishing_absorption(), reference_absorption(reference_explore(net))
    )
    assert_same_template(net)


def test_truncated_exploration_matches_reference():
    net = build_cpu_gspn_net(buffer_capacity=60)
    options = ReachabilityOptions(max_markings=500)
    got, want = explore_reachability(net, options), reference_explore(net, options)
    assert not got.complete and got.n_markings > 500
    assert_same_graph(got, want)
    assert_same_absorption(got.vanishing_absorption(), reference_absorption(want))
    with pytest.raises(NetStructureError, match="exceeded 500 markings"):
        GSPNSolver(net, options)


# --------------------------------------------------------------------- #
# zero-time traps
# --------------------------------------------------------------------- #
def _trap_net(exit_weight: float = 0.0) -> PetriNet:
    """Timed 'go' puts a token in 'a'; immediates 'forth' and 'back' pass
    it around a two-place loop in zero time.  With *exit_weight*, 'a'
    first makes a weighted choice between 'enter' (into a 'b'/'c' loop)
    and 'leave' (to a tangible sink), so part of the vanishing block still
    drains."""
    net = PetriNet("trap")
    net.add_place("src", initial=1)
    net.add_place("a")
    net.add_place("b")
    net.add_place("c")
    net.add_timed_transition("go", Exponential(1.0))
    net.add_input_arc("src", "go")
    net.add_output_arc("go", "a")
    if exit_weight:
        net.add_place("sink")
        net.add_immediate_transition("enter", weight=1.0)
        net.add_input_arc("a", "enter")
        net.add_output_arc("enter", "b")
        net.add_immediate_transition("leave", weight=exit_weight)
        net.add_input_arc("a", "leave")
        net.add_output_arc("leave", "sink")
        loop = ("b", "c")
    else:
        loop = ("a", "b")
    net.add_immediate_transition("forth")
    net.add_input_arc(loop[0], "forth")
    net.add_output_arc("forth", loop[1])
    net.add_immediate_transition("back")
    net.add_input_arc(loop[1], "back")
    net.add_output_arc("back", loop[0])
    return net


@pytest.mark.parametrize("exit_weight", [0.0, 1.0])
def test_zero_time_trap_raises_livelock(exit_weight):
    net = _trap_net(exit_weight)
    graph = explore_reachability(net)
    assert_same_graph(graph, reference_explore(net))
    for absorb in (ReachabilityGraph.vanishing_absorption, reference_absorption):
        with pytest.raises(NetStructureError, match="zero-time livelock"):
            absorb(graph)
    for build in (GSPNSolver, reference_template, ctmc_from_net):
        with pytest.raises(NetStructureError, match="zero-time livelock"):
            build(net)
