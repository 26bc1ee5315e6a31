"""Test-only reference CPU event simulation: the closure-and-monitor loop.

:func:`reference_cpu_run` is the straightforward implementation of
:class:`~repro.core.simulation_cpu.CPUEventSimulator`'s model: model state
in dict/list cells, state occupancy through a
:class:`~repro.des.monitors.StateOccupancyMonitor` of 0/1 indicators and
the queue length through a :class:`~repro.des.statistics.TimeWeightedStatistic`.
It draws from the same streams in the same order and schedules the same
events, so at a fixed seed the flat-state simulator must reproduce its
:class:`~repro.core.simulation_cpu.CPUSimulationResult` bit for bit and
execute the same number of engine events.  The differential tests and
``benchmarks/bench_engine.py`` compare the two.
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.params import StateFractions
from repro.core.simulation_cpu import CPUEventSimulator, CPUSimulationResult
from repro.des.engine import Simulator
from repro.des.monitors import StateOccupancyMonitor
from repro.des.statistics import TallyStatistic, TimeWeightedStatistic

__all__ = ["reference_cpu_run"]

_STATES = ("idle", "standby", "powerup", "active")


def reference_cpu_run(
    sim_config: CPUEventSimulator, horizon: float, warmup: float = 0.0
) -> CPUSimulationResult:
    """Run *sim_config*'s model (params, streams, arrival process, service
    distribution) with the monitor-based loop."""
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if not (0.0 <= warmup < horizon):
        raise ValueError("need 0 <= warmup < horizon")
    p = sim_config.params
    lam, mu = p.arrival_rate, p.service_rate
    T, D = p.power_down_threshold, p.power_up_delay
    arr_rng = sim_config.streams.get("cpu/arrivals")
    svc_rng = sim_config.streams.get("cpu/service")
    process = sim_config.arrival_process
    if process is not None:
        process.reset()
    svc_dist = sim_config.service_distribution

    def next_gap() -> float:
        if process is None:
            return float(arr_rng.exponential(1.0 / lam))
        return float(process.next_interarrival(arr_rng))

    def next_service() -> float:
        if svc_dist is None:
            return float(svc_rng.exponential(1.0 / mu))
        return float(svc_dist.sample(svc_rng))

    sim = Simulator()
    monitor = StateOccupancyMonitor(_STATES, "standby")
    queue_stat = TimeWeightedStatistic(0.0)
    latency = TallyStatistic()
    arrival_times: deque[float] = deque()
    state = {"n": 0, "mode": "standby"}
    power_down_event = [None]
    served = [0]
    arrived = [0]

    def set_mode(mode: str) -> None:
        state["mode"] = mode
        monitor.transition(sim.now, mode)

    def start_service() -> None:
        set_mode("active")
        sim.schedule(next_service(), service_done)

    def service_done() -> None:
        state["n"] -= 1
        queue_stat.update(sim.now, state["n"])
        served[0] += 1
        t_arr = arrival_times.popleft()
        if t_arr >= warmup:
            latency.record(sim.now - t_arr)
        if state["n"] > 0:
            start_service()
        else:
            set_mode("idle")
            power_down_event[0] = sim.schedule(T, power_down)

    def power_down() -> None:
        power_down_event[0] = None
        set_mode("standby")

    def power_up_done() -> None:
        assert state["n"] > 0
        start_service()

    def arrival() -> None:
        arrived[0] += 1
        state["n"] += 1
        queue_stat.update(sim.now, state["n"])
        arrival_times.append(sim.now)
        mode = state["mode"]
        if mode == "standby":
            set_mode("powerup")
            sim.schedule(D, power_up_done)
        elif mode == "idle":
            if power_down_event[0] is not None:
                sim.cancel(power_down_event[0])
                power_down_event[0] = None
            start_service()
        gap = next_gap()
        if math.isfinite(gap):
            sim.schedule(gap, arrival)

    first_gap = next_gap()
    if math.isfinite(first_gap):
        sim.schedule(first_gap, arrival)
    if warmup > 0.0:
        sim.run_until(warmup)
        # restart the statistics at the warm-up point; the closures read
        # these cells at call time
        monitor = StateOccupancyMonitor(_STATES, state["mode"], start_time=warmup)
        queue_stat = TimeWeightedStatistic(state["n"], start_time=warmup)
        latency = TallyStatistic()
        served[0] = 0
        arrived[0] = 0
    sim.run_until(horizon)

    occupancy = monitor.occupancy(horizon)
    return CPUSimulationResult(
        fractions=StateFractions(
            idle=occupancy["idle"],
            standby=occupancy["standby"],
            powerup=occupancy["powerup"],
            active=occupancy["active"],
        ),
        jobs_arrived=arrived[0],
        jobs_served=served[0],
        mean_latency=latency.mean if latency.count else float("nan"),
        mean_jobs_in_system=queue_stat.time_average(horizon),
        horizon=horizon - warmup,
    )
