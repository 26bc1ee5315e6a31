"""Discrete-event simulation kernel.

This package is the simulation substrate for the whole library.  It provides

- an event-driven simulation :class:`~repro.des.engine.Simulator`: a
  monotonically advancing clock over its own event heap, or over a
  caller's run-local heap through its kernel hook,
- reproducible, independently seedable random-number streams
  (:mod:`repro.des.random_streams`),
- distribution objects shared by the workload generators and the Petri net
  engine (:mod:`repro.des.distributions`),
- statistics collectors for terminating and steady-state simulation:
  time-weighted averages, Welford tallies, batch means, confidence
  intervals and MSER warm-up truncation (:mod:`repro.des.statistics`),
- state-occupancy monitors and trace recorders (:mod:`repro.des.monitors`),
- a replication runner with optional multiprocessing fan-out
  (:mod:`repro.des.replication`).

The engine is callback-based: :meth:`~repro.des.engine.Simulator.schedule`
puts an :class:`~repro.des.events.Event` (a callable at an absolute or
relative time) on its heap.  The paper's two simulators, the Petri net token
game and the CPU event simulator, schedule and withdraw timers at a high
rate, so they skip that layer: each keeps a run-local heap of plain
``(time, sequence, tag)`` tuples and drains it through the engine's kernel
hook, which keeps their clock and event count.
"""

from repro.des.distributions import (
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Pareto,
    TruncatedNormal,
    Uniform,
    Weibull,
)
from repro.des.engine import Simulator, SimulationError
from repro.des.events import Event, EventQueue
from repro.des.monitors import StateOccupancyMonitor, TraceRecorder
from repro.des.random_streams import StreamManager
from repro.des.replication import (
    ReplicationResult,
    ReplicationSummary,
    run_replications,
)
from repro.des.statistics import (
    BatchMeans,
    TallyStatistic,
    TimeWeightedStatistic,
    confidence_interval,
    mser_truncation_point,
)

__all__ = [
    "BatchMeans",
    "Deterministic",
    "Distribution",
    "Empirical",
    "Erlang",
    "Event",
    "EventQueue",
    "Exponential",
    "Gamma",
    "HyperExponential",
    "LogNormal",
    "Pareto",
    "ReplicationResult",
    "ReplicationSummary",
    "Simulator",
    "SimulationError",
    "StateOccupancyMonitor",
    "StreamManager",
    "TallyStatistic",
    "TimeWeightedStatistic",
    "TraceRecorder",
    "TruncatedNormal",
    "Uniform",
    "Weibull",
    "confidence_interval",
    "mser_truncation_point",
    "run_replications",
]
