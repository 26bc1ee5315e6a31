"""The token game's one generated kernel per net shape.

:mod:`repro.petri.simulator` generates a single ``drain`` per net shape:
timer pop, area update, immediate cascade and timed re-tests inline.
Its sample path is held to the full-rescan reference by
``test_incremental_differential.py``; these tests pin what that cannot
see: the source is compiled once per shape (not once per run), it stays
linear in the net's size, it raises on invalid delays, and warm-up, the
firing cap and watchers share the one kernel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.params import CPUModelParams
from repro.core.petri_cpu import PetriCPUModel, build_cpu_net
from repro.des.distributions import Distribution
from repro.des.engine import SimulationError
from repro.petri.arcs import ArcKind
from repro.petri.net import PetriNet, _compile
from repro.petri.simulator import PetriNetSimulator, _kernel_source
from repro.petri.transitions import ImmediateTransition, TimedTransition


def _renamed(net: PetriNet, prefix: str) -> PetriNet:
    """A copy of *net* under other place, transition and net names."""
    out = PetriNet(prefix + net.name)
    for p in net.places:
        out.add_place(prefix + p.name, initial=p.initial, capacity=p.capacity)
    for t in net.transitions:
        if isinstance(t, ImmediateTransition):
            out.add_immediate_transition(
                prefix + t.name, priority=t.priority, weight=t.weight, guard=t.guard
            )
        else:
            assert isinstance(t, TimedTransition)
            out.add_timed_transition(
                prefix + t.name, t.distribution, t.memory_policy, t.guard
            )
    for arc in net.arcs:
        place, transition = prefix + arc.place, prefix + arc.transition
        if arc.kind is ArcKind.OUTPUT:
            out.add_output_arc(transition, place, arc.multiplicity)
        elif arc.kind is ArcKind.INPUT:
            out.add_input_arc(place, transition, arc.multiplicity)
        else:
            out.add_inhibitor_arc(place, transition, arc.multiplicity)
    return out


def test_runs_of_one_net_shape_compile_once():
    """Two paper runs at different (T, D) and a third net of the same
    shape, under other names, add no compile after the first run."""
    PetriCPUModel(CPUModelParams.paper_defaults(T=0.3, D=0.001), seed=1).run(
        horizon=50.0
    )
    misses = _compile.cache_info().misses
    PetriCPUModel(CPUModelParams.paper_defaults(T=5.0, D=0.5), seed=2).run(
        horizon=50.0, warmup=5.0
    )
    net = _renamed(build_cpu_net(CPUModelParams.paper_defaults(T=1.0, D=0.1)), "x_")
    sim = PetriNetSimulator(net, seed=3).watch_place_positive("on", "x_CPU_ON")
    result = sim.run(horizon=50.0)
    assert result.firing_counts["x_AR"] > 0
    assert _compile.cache_info().misses == misses


def test_source_emits_each_firing_once():
    """The cascade is emitted once, not inlined into every timed branch:
    each transition's firing appears once, so the source grows linearly
    with the net."""
    net = build_cpu_net(CPUModelParams.paper_defaults())
    c = net.compile()
    source = _kernel_source(c, 1)
    for t in range(len(c.transitions)):
        assert source.count(f"c{t} += 1") == 1
    assert len(source.splitlines()) < 300


def test_source_ignores_names_and_parameters():
    a = build_cpu_net(CPUModelParams.paper_defaults(T=0.1, D=0.001))
    b = _renamed(build_cpu_net(CPUModelParams.paper_defaults(T=9.0, D=2.0)), "y_")
    assert _kernel_source(a.compile(), 1) == _kernel_source(b.compile(), 1)
    assert _kernel_source(a.compile(), 1) != _kernel_source(a.compile(), 2)


class _Constant(Distribution):
    """A 'delay' that is whatever it is told to be, valid or not."""

    def __init__(self, value: float) -> None:
        self.value = value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0


@pytest.mark.parametrize("delay", [-1.0, math.nan])
def test_invalid_delay_raises(delay):
    net = PetriNet("bad")
    net.add_place("p", initial=1)
    net.add_place("q")
    net.add_timed_transition("t", _Constant(delay))
    net.add_input_arc("p", "t")
    net.add_output_arc("t", "q")
    with pytest.raises(SimulationError, match="invalid delay"):
        PetriNetSimulator(net, seed=1).run(horizon=1.0)


def test_warmup_cap_and_watchers_share_one_kernel():
    """Warm-up resets, the firing cap and watcher areas all run through
    the one kernel: the cap lands at the same firing with or without a
    watcher."""
    net = build_cpu_net(CPUModelParams.paper_defaults(T=0.5, D=0.01))
    plain = PetriNetSimulator(net, seed=7).run(
        horizon=100.0, warmup=10.0, max_firings=200
    )
    watched = (
        PetriNetSimulator(net, seed=7)
        .watch_place_positive("active", "Active")
        .run(horizon=100.0, warmup=10.0, max_firings=200)
    )
    total = plain.events_executed + plain.immediate_firings
    assert 200 <= total < 210
    assert 0 < sum(plain.firing_counts.values()) < total  # warm-up excluded
    assert plain.firing_counts == watched.firing_counts
    assert plain.mean_tokens_vector.tobytes() == watched.mean_tokens_vector.tobytes()
    assert watched.watcher("active") == watched.mean_tokens("Active")
