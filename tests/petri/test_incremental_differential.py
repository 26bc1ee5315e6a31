"""Differential gate for the incremental token game.

:class:`~repro.petri.simulator.PetriNetSimulator` re-tests only the
transitions a firing can affect; ``reference_simulator.reference_run``
re-tests everything after every firing.  At a fixed seed both must give
the same :class:`~repro.petri.simulator.SimulationResult`, bit for bit,
on every field: the same sample path, found with less work.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.petri.simulator as simulator_module
from repro.core.params import CPUModelParams
from repro.core.petri_cpu import PetriCPUModel
from repro.des.distributions import Deterministic, Exponential, Uniform
from repro.des.engine import SimulationError, Simulator
from repro.des.events import Event
from repro.des.random_streams import StreamManager
from repro.experiments.paper_experiments import (
    PAPER_POWER_UP_DELAYS,
    ExperimentConfig,
)
from repro.petri.net import PetriNet
from repro.petri.simulator import PetriNetSimulator, SimulationResult
from repro.petri.transitions import MemoryPolicy
from tests.petri.reference_simulator import reference_run


def _same(a: object, b: object) -> bool:
    """Bitwise equality for the value types a SimulationResult holds."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(_same(a[k], b[k]) for k in a)
        )
    return type(a) is type(b) and a == b


def assert_identical(got: SimulationResult, want: SimulationResult) -> None:
    for f in dataclasses.fields(SimulationResult):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert _same(g, w), f"{f.name}: {g!r} != {w!r}"


# --------------------------------------------------------------------- #
# random nets
# --------------------------------------------------------------------- #
def _arcs(draw, n_places, min_size):
    return draw(
        st.lists(
            st.tuples(st.integers(0, n_places - 1), st.integers(1, 2)),
            min_size=min_size,
            max_size=2,
            unique_by=lambda arc: arc[0],
        )
    )


def _guard(draw, n_places):
    if not draw(st.booleans()):
        return None
    place = draw(st.integers(0, n_places - 1))
    bound = draw(st.integers(0, 3))
    return lambda m, _p=place, _k=bound: m[_p] <= _k


@st.composite
def random_nets(draw):
    """Small EDSPNs covering inhibitors, capacities, equal-priority weighted
    conflicts, the three memory policies and guards."""
    n_places = draw(st.integers(2, 5))
    net = PetriNet("random")
    for i in range(n_places):
        capacity = draw(st.none() | st.integers(1, 4))
        initial = draw(st.integers(0, capacity if capacity is not None else 3))
        net.add_place(f"p{i}", initial=initial, capacity=capacity)

    transitions = []
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["exp", "det", "uni"]))
        if kind == "exp":
            dist = Exponential(draw(st.floats(0.2, 3.0)))
        elif kind == "det":
            dist = Deterministic(draw(st.sampled_from([0.25, 0.5, 1.0, 1.5])))
        else:
            dist = Uniform(0.1, draw(st.floats(0.5, 2.0)))
        name = f"t{j}"
        net.add_timed_transition(
            name,
            dist,
            memory_policy=draw(st.sampled_from(list(MemoryPolicy))),
            guard=_guard(draw, n_places),
        )
        transitions.append(name)
    for j in range(draw(st.integers(0, 3))):
        name = f"i{j}"
        net.add_immediate_transition(
            name,
            priority=draw(st.integers(1, 2)),
            weight=draw(st.sampled_from([0.5, 1.0, 3.0])),
            guard=_guard(draw, n_places),
        )
        transitions.append(name)

    for name in transitions:
        inputs = _arcs(draw, n_places, min_size=1)
        outputs = _arcs(draw, n_places, min_size=0)
        if name.startswith("i"):
            # immediates must change the marking (else a zero-time livelock)
            assume(set(inputs) != set(outputs))
        for p, mult in inputs:
            net.add_input_arc(f"p{p}", name, mult)
        for p, mult in outputs:
            net.add_output_arc(name, f"p{p}", mult)
        for p, mult in _arcs(draw, n_places, min_size=0)[:1]:
            if draw(st.booleans()):
                net.add_inhibitor_arc(f"p{p}", name, mult)
    assume(not net.validate())
    return net


def _simulator(net: PetriNet, seed: int) -> PetriNetSimulator:
    sim = PetriNetSimulator(net, seed=seed, max_immediate_chain=200)
    sim.watch_place_positive("p0_marked", "p0")
    sim.watch("weighted", lambda m: m[0] + 2 * m[1])
    return sim


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except SimulationError as exc:
        return exc


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    net=random_nets(),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.floats(1.0, 25.0),
    warmup_share=st.sampled_from([0.0, 0.0, 0.3]),
    max_firings=st.none() | st.integers(1, 60),
)
def test_random_nets_match_reference(net, seed, horizon, warmup_share, max_firings):
    sim, ref = _simulator(net, seed), _simulator(net, seed)
    warmup = horizon * warmup_share
    # two runs per simulator: the second continues the same streams
    for _ in range(2):
        got = _outcome(sim.run, horizon, warmup=warmup, max_firings=max_firings)
        want = _outcome(
            reference_run, ref, horizon, warmup=warmup, max_firings=max_firings
        )
        if isinstance(want, SimulationError):
            assert isinstance(got, SimulationError) and str(got) == str(want)
            return
        assert not isinstance(got, SimulationError), got
        assert_identical(got, want)


def _clock_net() -> PetriNet:
    """A self-loop 'tick' changes no token count, yet must re-arm its
    timer after every firing; 'work' runs beside it."""
    net = PetriNet("clock")
    net.add_place("clock", initial=1)
    net.add_place("jobs", initial=3)
    net.add_place("done")
    net.add_timed_transition("tick", Deterministic(0.5))
    net.add_input_arc("clock", "tick")
    net.add_output_arc("tick", "clock")
    net.add_timed_transition("work", Exponential(1.0))
    net.add_input_arc("jobs", "work")
    net.add_output_arc("work", "done")
    return net


def _tie_net() -> PetriNet:
    """'a' and 'b' are enabled by the same firing with equal deterministic
    delays and race for one token: the tie goes to the timer scheduled
    first, i.e. the lower transition index."""
    net = PetriNet("tie")
    net.add_place("src", initial=1)
    net.add_place("shared")
    net.add_place("won_a")
    net.add_place("won_b")
    net.add_timed_transition("release", Deterministic(0.5))
    net.add_input_arc("src", "release")
    net.add_output_arc("release", "shared")
    for name in ("a", "b"):
        net.add_timed_transition(name, Deterministic(1.0))
        net.add_input_arc("shared", name)
        net.add_output_arc(name, f"won_{name}")
    return net


@pytest.mark.parametrize("build", [_clock_net, _tie_net])
def test_structured_nets_match_reference(build):
    net = build()
    got = PetriNetSimulator(net, seed=8).run(horizon=20.0)
    want = reference_run(PetriNetSimulator(net, seed=8), horizon=20.0)
    assert_identical(got, want)
    if net.name == "clock":
        assert got.firing_counts["tick"] == 40
    else:
        assert got.final_marking["won_a"] == 1 and got.final_marking["won_b"] == 0


# --------------------------------------------------------------------- #
# the paper's Figure 3 net at the fast run configuration
# --------------------------------------------------------------------- #
FAST = ExperimentConfig(fast=True)
PETRI_SEED_STEP = 7919  # run_threshold_sweep's Petri seed step


@pytest.mark.parametrize("delay", PAPER_POWER_UP_DELAYS)
@pytest.mark.parametrize("point", range(len(FAST.thresholds())))
def test_paper_points_match_reference(delay, point):
    config = FAST.sweep_config()
    params = CPUModelParams.paper_defaults(D=delay).with_threshold(
        FAST.thresholds()[point]
    )
    seed = config.seed + PETRI_SEED_STEP * (point + 1)
    for rep in range(config.petri_replications):
        sims = [
            PetriCPUModel(
                params, streams=StreamManager(seed).for_replication(rep)
            )._make_simulator()
            for _ in range(2)
        ]
        got = sims[0].run(config.petri_horizon, warmup=config.petri_warmup)
        want = reference_run(
            sims[1], config.petri_horizon, warmup=config.petri_warmup
        )
        assert_identical(got, want)


# --------------------------------------------------------------------- #
# run-local state
# --------------------------------------------------------------------- #
def test_finished_run_keeps_no_engine_alive(monkeypatch):
    engines = []

    class TrackedSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(simulator_module, "Simulator", TrackedSimulator)
    sim = PetriCPUModel(CPUModelParams.paper_defaults(), seed=3)._make_simulator()
    sim.run(horizon=50.0)
    gc.collect()
    assert len(engines) == 1
    assert engines[0]() is None, "the run's event heap outlived the run"


def test_max_firings_counts_immediate_firings():
    # every timed firing of 'go' triggers one immediate firing of 'back'
    net = PetriNet("pingpong")
    net.add_place("a", initial=1)
    net.add_place("b")
    net.add_timed_transition("go", Exponential(5.0))
    net.add_input_arc("a", "go")
    net.add_output_arc("go", "b")
    net.add_immediate_transition("back")
    net.add_input_arc("b", "back")
    net.add_output_arc("back", "a")
    res = PetriNetSimulator(net, seed=4).run(horizon=1e9, max_firings=10)
    assert res.firing_counts == {"go": 5, "back": 5}


def _pingpong_net() -> PetriNet:
    """Every timed firing of 'go' triggers one immediate firing of 'back'."""
    net = PetriNet("pingpong")
    net.add_place("a", initial=1)
    net.add_place("b")
    net.add_timed_transition("go", Exponential(5.0))
    net.add_input_arc("a", "go")
    net.add_output_arc("go", "b")
    net.add_immediate_transition("back")
    net.add_input_arc("b", "back")
    net.add_output_arc("back", "a")
    return net


@pytest.mark.parametrize("max_firings", [10, 40])
def test_max_firings_with_warmup_matches_reference(max_firings):
    # the cap of 10 is reached inside the warm-up, the cap of 40 after it
    net = _pingpong_net()
    got = PetriNetSimulator(net, seed=4).run(
        horizon=10.0, warmup=2.0, max_firings=max_firings
    )
    want = reference_run(
        PetriNetSimulator(net, seed=4), horizon=10.0, warmup=2.0, max_firings=max_firings
    )
    assert_identical(got, want)
    assert got.events_executed + got.immediate_firings == max_firings
    in_window = sum(got.firing_counts.values())
    assert (in_window == 0) == (max_firings == 10)


# --------------------------------------------------------------------- #
# the run-local kernel
# --------------------------------------------------------------------- #
def test_withdrawn_timer_sweep_matches_reference(monkeypatch):
    """A far-future 'timeout' is armed and withdrawn by every 'job' cycle:
    its dead heap entries pile up until the kernel sweeps them out, and
    the sample path must not change."""
    net = PetriNet("timeouts")
    net.add_place("idle", initial=1)
    net.add_place("busy")
    net.add_place("expired")
    net.add_timed_transition("start", Exponential(4.0))
    net.add_input_arc("idle", "start")
    net.add_output_arc("start", "busy")
    net.add_timed_transition("finish", Exponential(4.0))
    net.add_input_arc("busy", "finish")
    net.add_output_arc("finish", "idle")
    net.add_timed_transition("timeout", Deterministic(1e6))
    net.add_input_arc("idle", "timeout")
    net.add_output_arc("timeout", "expired")
    sweeps = []
    real_heapify = simulator_module.heapify

    def counting_heapify(heap):
        sweeps.append(len(heap))
        real_heapify(heap)

    monkeypatch.setattr(simulator_module, "heapify", counting_heapify)
    got = PetriNetSimulator(net, seed=5).run(horizon=5_000.0)
    want = reference_run(PetriNetSimulator(net, seed=5), horizon=5_000.0)
    assert_identical(got, want)
    assert got.firing_counts["timeout"] == 0
    assert sweeps and max(sweeps) <= 2, "withdrawn timers were never swept"


def test_paper_point_runs_on_the_kernel_alone(monkeypatch):
    """A paper-point run builds one engine, advances it only through its
    kernel, and constructs no Event."""
    engines = []
    events = []

    class TrackedSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    original_init = Event.__init__

    def counting_init(self, *args, **kwargs):
        events.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(simulator_module, "Simulator", TrackedSimulator)
    monkeypatch.setattr(Event, "__init__", counting_init)
    config = FAST.sweep_config()
    params = CPUModelParams.paper_defaults(D=PAPER_POWER_UP_DELAYS[1]).with_threshold(
        FAST.thresholds()[2]
    )
    sim = PetriCPUModel(params, seed=config.seed)._make_simulator()
    result = sim.run(config.petri_horizon, warmup=config.petri_warmup)
    assert len(engines) == 1
    assert events == []
    assert engines[0].kernel is not None and engines[0].pending_count() == 0
    assert engines[0].events_executed == result.events_executed > 0
