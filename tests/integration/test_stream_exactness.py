"""Both paper simulators leave their random streams exactly as scalar draws would.

``CPUEventSimulator`` and ``PetriNetSimulator`` take their exponential
draws from chunked samplers (``Distribution.sampler``), which draw ahead
and settle the stream when a run ends.  The oracle is the scalar path
the simulators used to take: with ``Exponential.sampler`` replaced by the
base class's ``partial(sample, rng)``, every draw is one
``rng.exponential`` call.  A session of runs on one simulator (and on a
fresh simulator over the same :class:`StreamManager`) must give the
oracle's results and leave every stream in the oracle's state, also when
a run stops early on ``max_firings`` or raises ``SimulationError``.
Horizons are chosen so that the runs draw fewer values than one chunk,
and more.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List

import numpy as np
import pytest

from repro.core.params import CPUModelParams
from repro.core.petri_cpu import build_cpu_net
from repro.core.simulation_cpu import CPUEventSimulator, CPUSimulationResult
from repro.des.distributions import Distribution, Exponential
from repro.des.engine import SimulationError
from repro.des.random_streams import StreamManager
from repro.petri.net import PetriNet
from repro.petri.simulator import PetriNetSimulator, SimulationResult

HORIZONS = [40.0, 1500.0, 2600.0]


class FailsAfter(Distribution):
    """Exponential(rate) for *good* draws, then -1.0 (an invalid delay)."""

    def __init__(self, rate: float, good: int) -> None:
        self.rate = rate
        self.good = good
        self.calls = 0

    def sample(self, rng: np.random.Generator) -> float:
        self.calls += 1
        if self.calls > self.good:
            return -1.0
        return rng.exponential(1.0 / self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)


def _stream_tails(streams: StreamManager, names: List[str]) -> list:
    """Each stream's state, then one draw from it (which moves it on)."""
    return [
        (streams.get(n).bit_generator.state, streams.get(n).random().hex())
        for n in names
    ]


def _cpu_bits(result: CPUSimulationResult) -> tuple:
    return tuple(
        v.hex() if isinstance(v, float) else repr(v)
        for v in (getattr(result, f.name) for f in dataclasses.fields(result))
    )


def _petri_bits(result: SimulationResult) -> tuple:
    return (
        result.mean_tokens_vector.tobytes(),
        sorted(result.firing_counts.items()),
        sorted((k, v.hex()) for k, v in result.watcher_means.items()),
        result.events_executed,
        result.immediate_firings,
    )


def _attempt(run: Callable[[], object], bits: Callable[[object], tuple]) -> tuple:
    try:
        return ("ok", bits(run()))
    except SimulationError as exc:
        return ("raised", str(exc))


@pytest.fixture
def both_paths(monkeypatch):
    """``session()`` on the chunked samplers, then on the scalar oracle."""

    def compare(session: Callable[[], list]) -> list:
        got = session()
        with monkeypatch.context() as m:
            m.setattr(Exponential, "sampler", Distribution.sampler)
            want = session()
        assert got == want
        return got

    return compare


CPU_STREAMS = ["cpu/arrivals", "cpu/service"]


@pytest.mark.parametrize("horizon", HORIZONS)
def test_cpu_runs_in_a_row_match_scalar_draws(both_paths, horizon):
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)

    def session() -> list:
        streams = StreamManager(seed=31)
        sim = CPUEventSimulator(params, streams=streams)
        out = [_attempt(lambda: sim.run(horizon, warmup=1.0), _cpu_bits)]
        out.append(_attempt(lambda: sim.run(horizon / 2), _cpu_bits))
        # a fresh simulator on the same streams carries on from them
        again = CPUEventSimulator(params, streams=streams)
        out.append(_attempt(lambda: again.run(horizon), _cpu_bits))
        return out + _stream_tails(streams, CPU_STREAMS)

    got = both_paths(session)
    assert [kind for kind, _ in got[:3]] == ["ok"] * 3


@pytest.mark.parametrize("good", [0, 700, 3000])
def test_cpu_run_that_raises_matches_scalar_draws(both_paths, good):
    params = CPUModelParams.paper_defaults(T=0.3, D=0.001)

    def session() -> list:
        streams = StreamManager(seed=5)
        sim = CPUEventSimulator(
            params, streams=streams, service_distribution=FailsAfter(10.0, good)
        )
        out = [_attempt(lambda: sim.run(4000.0), _cpu_bits)]
        out.append(_stream_tails(streams, CPU_STREAMS))
        # the arrivals go on exactly on a default simulator's next run
        out.append(_attempt(lambda: CPUEventSimulator(params, streams=streams).run(900.0), _cpu_bits))
        return out + _stream_tails(streams, CPU_STREAMS)

    got = both_paths(session)
    assert got[0][0] == "raised" and "invalid delay -1.0" in got[0][1]
    assert got[2][0] == "ok"


def _petri_streams(net: PetriNet) -> List[str]:
    names = [t.name for t in net.compile().transitions]
    return [f"petri/{net.name}/conflicts"] + [f"petri/{net.name}/t/{n}" for n in names]


def _figure3_simulator(streams: StreamManager) -> PetriNetSimulator:
    net = build_cpu_net(CPUModelParams.paper_defaults(T=0.3, D=0.001))
    return PetriNetSimulator(net, streams=streams).watch_place_positive("on", "CPU_ON")


@pytest.mark.parametrize("horizon", HORIZONS)
def test_token_game_runs_in_a_row_match_scalar_draws(both_paths, horizon):
    def session() -> list:
        streams = StreamManager(seed=8)
        sim = _figure3_simulator(streams)
        out = [_attempt(lambda: sim.run(horizon, warmup=1.0), _petri_bits)]
        out.append(_attempt(lambda: sim.run(horizon / 2), _petri_bits))
        again = _figure3_simulator(streams)
        out.append(_attempt(lambda: again.run(horizon), _petri_bits))
        return out + _stream_tails(streams, _petri_streams(sim.net))

    got = both_paths(session)
    assert [kind for kind, _ in got[:3]] == ["ok"] * 3


@pytest.mark.parametrize("cap", [1, 333, 2500, 6001])
def test_token_game_capped_run_matches_scalar_draws(both_paths, cap):
    def session() -> list:
        streams = StreamManager(seed=13)
        sim = _figure3_simulator(streams)
        out = [_attempt(lambda: sim.run(5000.0, warmup=2.0, max_firings=cap), _petri_bits)]
        out.append(_attempt(lambda: sim.run(700.0), _petri_bits))
        return out + _stream_tails(streams, _petri_streams(sim.net))

    got = both_paths(session)
    capped = got[0][1]
    assert sum(n for _, n in capped[1]) <= cap


def _failing_queue(good: int) -> PetriNet:
    """Exponential arrivals into a queue whose service delay turns invalid."""
    net = PetriNet("failing_queue")
    net.add_place("source", initial=1)
    net.add_place("queue")
    net.add_place("server", initial=1)
    net.add_place("busy")
    net.add_timed_transition("arrive", Exponential(3.0))
    net.add_input_arc("source", "arrive")
    net.add_output_arc("arrive", "source")
    net.add_output_arc("arrive", "queue")
    net.add_immediate_transition("start")
    net.add_input_arc("queue", "start")
    net.add_input_arc("server", "start")
    net.add_output_arc("start", "busy")
    net.add_timed_transition("serve", FailsAfter(5.0, good))
    net.add_input_arc("busy", "serve")
    net.add_output_arc("serve", "server")
    return net


@pytest.mark.parametrize("good", [0, 900, 2000])
def test_token_game_run_that_raises_matches_scalar_draws(both_paths, good):
    def session() -> list:
        streams = StreamManager(seed=21)
        sim = PetriNetSimulator(_failing_queue(good), streams=streams)
        out = [_attempt(lambda: sim.run(3000.0), _petri_bits)]
        out.append(_stream_tails(streams, _petri_streams(sim.net)))
        out.append(_attempt(lambda: sim.run(50.0), _petri_bits))
        return out + _stream_tails(streams, _petri_streams(sim.net))

    got = both_paths(session)
    assert got[0][0] == "raised" and "invalid delay -1.0" in got[0][1]
