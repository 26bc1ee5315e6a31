"""Differential gate for the flat-state CPU event simulator.

:class:`~repro.core.simulation_cpu.CPUEventSimulator` keeps its model
state in run-local ints and floats; ``reference_cpu_simulator.reference_cpu_run``
keeps it in dict/list cells and measures through a state-occupancy monitor
and a time-weighted statistic.  At a fixed seed both must give the same
:class:`~repro.core.simulation_cpu.CPUSimulationResult`, bit for bit on
every field, after executing the same number of engine events.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.simulation_cpu as simulation_cpu
from repro.core.params import CPUModelParams
from repro.core.simulation_cpu import CPUEventSimulator, CPUSimulationResult
from repro.des.distributions import Deterministic, Erlang, Uniform
from repro.des.engine import Simulator
from repro.des.events import Event
from repro.des.random_streams import StreamManager
from repro.workload.open_workload import MMPPProcess
from tests.core import reference_cpu_simulator
from tests.core.reference_cpu_simulator import reference_cpu_run


def _bits(value: object) -> object:
    """A float's exact bits (``nan`` included); other values as they are."""
    if isinstance(value, float):
        return ("float", value.hex())
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return (type(value).__name__, value)


def assert_identical(got: CPUSimulationResult, want: CPUSimulationResult) -> None:
    for f in dataclasses.fields(CPUSimulationResult):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert _bits(g) == _bits(w), f"{f.name}: {g!r} != {w!r}"


@pytest.fixture
def engines(monkeypatch):
    """Every engine either implementation builds, in creation order."""
    created = []

    class TrackedSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(simulation_cpu, "Simulator", TrackedSimulator)
    monkeypatch.setattr(reference_cpu_simulator, "Simulator", TrackedSimulator)
    return created


def _compare(engines, make, horizon, warmup):
    """Run the flat simulator and the reference on twin configurations;
    each twice, the second run continuing the same streams."""
    sim, ref = make(), make()
    for _ in range(2):
        got = sim.run(horizon, warmup=warmup)
        got_events = engines[-1].events_executed
        want = reference_cpu_run(ref, horizon, warmup=warmup)
        want_events = engines[-1].events_executed
        assert_identical(got, want)
        assert got_events == want_events


# the engine tracker only appends, and each check reads the newest engine
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lam=st.floats(0.2, 3.0),
    mu_factor=st.floats(1.2, 12.0),
    T=st.just(0.0) | st.floats(0.0, 4.0),
    D=st.just(0.0) | st.floats(0.0, 4.0),
    horizon=st.floats(5.0, 300.0),
    warmup_share=st.sampled_from([0.0, 0.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_configs_match_reference(
    engines, lam, mu_factor, T, D, horizon, warmup_share, seed
):
    params = CPUModelParams(
        arrival_rate=lam,
        service_rate=lam * mu_factor,
        power_down_threshold=T,
        power_up_delay=D,
    )
    _compare(
        engines,
        lambda: CPUEventSimulator(params, seed=seed),
        horizon,
        horizon * warmup_share,
    )


@pytest.mark.parametrize("warmup", [0.0, 50.0])
def test_mmpp_arrivals_match_reference(engines, warmup):
    params = CPUModelParams.paper_defaults(T=0.3, D=0.3)

    def make():
        return CPUEventSimulator(
            params,
            streams=StreamManager(11),
            arrival_process=MMPPProcess(rates=[0.2, 4.0], switch_rates=[0.5, 1.5]),
        )

    _compare(engines, make, 400.0, warmup)


@pytest.mark.parametrize(
    "service", [Deterministic(0.08), Uniform(0.01, 0.2), Erlang(3, 30.0)]
)
@pytest.mark.parametrize("warmup", [0.0, 50.0])
def test_non_exponential_service_matches_reference(engines, service, warmup):
    params = CPUModelParams.paper_defaults(T=0.0, D=0.001)

    def make():
        return CPUEventSimulator(params, seed=5, service_distribution=service)

    _compare(engines, make, 400.0, warmup)


@pytest.mark.parametrize("D", [0.001, 0.3, 10.0])
@pytest.mark.parametrize("T", [0.0, 0.3, 2.0])
def test_paper_grid_matches_reference(engines, T, D):
    params = CPUModelParams.paper_defaults(T=T, D=D)
    _compare(engines, lambda: CPUEventSimulator(params, seed=3), 2_000.0, 100.0)



def test_withdrawn_power_down_sweep_matches_reference(engines, monkeypatch):
    """With T far beyond the horizon every idle period arms a power-down
    that the next arrival withdraws: the dead heap entries pile up until
    the kernel sweeps them out, and the sample path must not change."""
    sweeps = []
    real_heapify = simulation_cpu.heapify

    def counting_heapify(heap):
        sweeps.append(len(heap))
        real_heapify(heap)

    monkeypatch.setattr(simulation_cpu, "heapify", counting_heapify)
    params = CPUModelParams.paper_defaults(T=1e6, D=0.3)
    _compare(engines, lambda: CPUEventSimulator(params, seed=7), 12_000.0, 0.0)
    assert sweeps and max(sweeps) <= 3, "withdrawn power-downs were never swept"


def test_paper_point_runs_on_the_kernel_alone(engines, monkeypatch):
    """A paper-point run builds one engine, advances it only through its
    kernel, and constructs no Event."""
    events = []
    original_init = Event.__init__

    def counting_init(self, *args, **kwargs):
        events.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    params = CPUModelParams.paper_defaults(T=0.3, D=0.3)
    result = CPUEventSimulator(params, seed=3).run(2_000.0, warmup=100.0)
    assert len(engines) == 1
    assert events == []
    assert engines[0].kernel is not None and engines[0].pending_count() == 0
    assert engines[0].events_executed > result.jobs_served > 0
