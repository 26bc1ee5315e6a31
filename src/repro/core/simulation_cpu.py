"""Software simulation of the CPU — the paper's benchmark model.

The paper used a Matlab event simulator as ground truth; this module is its
reproduction, twice over:

- :class:`CPUEventSimulator` — a faithful event-driven simulation, run by
  a kernel of the library's DES engine (:class:`~repro.des.engine.Simulator`)
  over a run-local event heap: Poisson(λ)
  arrivals, exp(μ) FIFO service, power-down after a constant idle
  threshold ``T``, constant power-up delay ``D``.
- :func:`simulate_job_scan` — an independent, vectorised-input
  implementation that walks pre-drawn arrival/service arrays with a Lindley
  style recursion (one iteration per *job* instead of ~4 heap events).  No
  paper path calls it: it is a cross-implementation consistency check
  only (two independent codebases, same distribution of results).

Both start the CPU in standby with an empty queue, exactly like the paper's
Petri net ("Initially, the CPU is in the Stand By mode").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from math import isfinite
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import CPUModelParams, StateFractions
from repro.des.distributions import Distribution, Exponential
from repro.des.engine import SimulationError, Simulator
from repro.des.random_streams import StreamManager
from repro.des.replication import ReplicationSummary, run_replications

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.workload.base import ArrivalProcess

__all__ = [
    "CPUSimulationResult",
    "CPUEventSimulator",
    "simulate_job_scan",
    "simulate_cpu_metrics",
    "replicate_cpu_simulation",
]

# event kinds and power states of CPUEventSimulator's run-local heap
_ARRIVAL, _SERVICE_DONE, _POWER_DOWN, _POWER_UP_DONE = range(4)
_IDLE, _STANDBY, _POWERUP, _ACTIVE = range(4)
# withdrawn power-downs are swept out once the heap outgrows this
_COMPACT_AT = 4096


def _draw(sample: Callable[..., float], *args: object) -> float:
    return float(sample(*args))


def _invalid_delay(delay: float, now: float) -> SimulationError:
    return SimulationError(f"invalid delay {delay!r} at t={now}")


@dataclass(frozen=True)
class CPUSimulationResult:
    """One simulation run's estimates."""

    fractions: StateFractions
    jobs_arrived: int
    jobs_served: int
    mean_latency: float
    mean_jobs_in_system: float
    horizon: float

    def energy_joules(self, profile=None, duration: Optional[float] = None) -> float:
        """Energy via the paper's eq. 25 over *duration* (default: horizon)."""
        if profile is None:
            raise ValueError("a PowerProfile is required")
        span = self.horizon if duration is None else duration
        return profile.average_power_mw(self.fractions) * span / 1000.0


class CPUEventSimulator:
    """Event-driven CPU simulation (the reference implementation).

    Parameters
    ----------
    params:
        Model parameters.
    streams:
        Random streams; uses the ``"cpu/arrivals"`` and ``"cpu/service"``
        named streams so arrival and service randomness are independent.
    arrival_process:
        Optional :class:`~repro.workload.base.ArrivalProcess` overriding the
        default Poisson(λ) arrivals — this is how MMPP, batch and trace
        workloads are fed through the benchmark simulator.
    service_distribution:
        Optional service-time distribution overriding the default
        exponential with rate μ.
    """

    def __init__(
        self,
        params: CPUModelParams,
        streams: Optional[StreamManager] = None,
        seed: Optional[int] = None,
        arrival_process: Optional["ArrivalProcess"] = None,
        service_distribution: Optional[Distribution] = None,
    ) -> None:
        self.params = params
        self.streams = streams if streams is not None else StreamManager(seed)
        self.arrival_process = arrival_process
        self.service_distribution = service_distribution

    def run(self, horizon: float, warmup: float = 0.0) -> CPUSimulationResult:
        """Simulate ``[0, horizon]`` and report statistics from *warmup* on.

        The model state is flat: run-local ints and floats that one drain
        loop updates in place.  Each power state keeps one occupancy area,
        grown by ``now - entered`` when the state is left; the queue-length
        integral grows by ``n * dt`` at every change of ``n``.  That is the
        arithmetic, in the same order, of a
        :class:`~repro.des.monitors.StateOccupancyMonitor` of 0/1 indicators
        and a :class:`~repro.des.statistics.TimeWeightedStatistic`, so the
        results equal theirs bit for bit.

        Events are ``(time, sequence, kind)`` tuples on a run-local heap,
        drained by the run's :class:`~repro.des.engine.Simulator` kernel.
        Sequence numbers are handed out in scheduling order, so events at
        equal times run first-scheduled first, as the Event path runs
        events of one priority.  A power-down is withdrawn by forgetting
        its sequence number; its entry is skipped when popped.
        """
        if horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if not (0.0 <= warmup < horizon):
            raise ValueError("need 0 <= warmup < horizon")
        p = self.params
        T, D = p.power_down_threshold, p.power_up_delay
        arr_rng = self.streams.get("cpu/arrivals")
        svc_rng = self.streams.get("cpu/service")
        process = self.arrival_process
        if process is not None:
            process.reset()
        svc_dist = self.service_distribution

        # the draws, resolved once; the default exponentials come from
        # chunked samplers (plain Python floats, sample()'s bits), whose
        # streams are settled when the run ends, also on an error
        next_gap: Callable[[], float]
        next_service: Callable[[], float]
        settles: List[Callable[[], None]] = []
        if process is None:
            next_gap, settle = Exponential(p.arrival_rate).sampler(arr_rng)
            settles.append(settle)
        else:
            next_gap = partial(_draw, process.next_interarrival, arr_rng)
        if svc_dist is None:
            next_service, settle = Exponential(p.service_rate).sampler(svc_rng)
        else:
            draw_service, settle = svc_dist.sampler(svc_rng)
            next_service = partial(_draw, draw_service)
        settles.append(settle)

        heap: List[Tuple[float, int, int]] = []
        seqs = count()
        arrival_times: deque[float] = deque()
        now = 0.0
        n = 0  # jobs in system
        mode = _STANDBY
        pd_seq = -1  # sequence number of the live power-down, -1 if none
        compact_at = _COMPACT_AT
        served = arrived = 0
        lat_n = 0  # latency tally: Welford's running mean
        lat_mean = 0.0
        # statistics since `start`: one occupancy area per power state
        # (the current state's open segment began at `entered`) and the
        # integral of n (last closed at `q_last`)
        start = entered = q_last = 0.0
        idle_area = standby_area = powerup_area = active_area = 0.0
        q_area = 0.0

        def drain(end_time: float) -> int:
            nonlocal now, n, mode, pd_seq, compact_at, served, arrived
            nonlocal lat_n, lat_mean, entered, q_last, q_area
            nonlocal idle_area, standby_area, powerup_area, active_area
            executed = 0
            while heap:
                time, seq, kind = heap[0]
                if time > end_time:
                    break
                heappop(heap)
                if kind == _POWER_DOWN and seq != pd_seq:
                    continue  # withdrawn by an arrival
                if time < now:
                    raise SimulationError(
                        f"event at t={time} popped while clock at {now}"
                    )
                now = time
                executed += 1
                if kind == _ARRIVAL:
                    arrived += 1
                    q_area += n * (now - q_last)
                    q_last = now
                    n += 1
                    arrival_times.append(now)
                    if mode == _STANDBY:
                        standby_area += now - entered
                        entered = now
                        mode = _POWERUP
                        heappush(heap, (now + D, next(seqs), _POWER_UP_DONE))
                    elif mode == _IDLE:
                        pd_seq = -1
                        idle_area += now - entered
                        entered = now
                        mode = _ACTIVE
                        service = next_service()
                        if not service >= 0.0:
                            raise _invalid_delay(service, now)
                        heappush(heap, (now + service, next(seqs), _SERVICE_DONE))
                    # active / powerup: the job just queues
                    gap = next_gap()
                    if isfinite(gap):
                        if gap < 0.0:
                            raise _invalid_delay(gap, now)
                        heappush(heap, (now + gap, next(seqs), _ARRIVAL))
                elif kind == _SERVICE_DONE:
                    q_area += n * (now - q_last)
                    q_last = now
                    n -= 1
                    served += 1
                    t_arr = arrival_times.popleft()
                    if t_arr >= warmup:
                        # TallyStatistic.record's mean update
                        x = now - t_arr
                        lat_n += 1
                        lat_mean += (x - lat_mean) / lat_n
                    if n > 0:
                        service = next_service()
                        if not service >= 0.0:
                            raise _invalid_delay(service, now)
                        heappush(heap, (now + service, next(seqs), _SERVICE_DONE))
                    else:
                        active_area += now - entered
                        entered = now
                        mode = _IDLE
                        pd_seq = next(seqs)
                        heappush(heap, (now + T, pd_seq, _POWER_DOWN))
                        if len(heap) > compact_at:
                            # drop withdrawn power-downs; (time, seq) keys
                            # are unique, so the order is unchanged
                            heap[:] = [
                                e for e in heap if e[2] != _POWER_DOWN or e[1] == pd_seq
                            ]
                            heapify(heap)
                            compact_at = max(_COMPACT_AT, 2 * len(heap))
                elif kind == _POWER_DOWN:
                    pd_seq = -1
                    idle_area += now - entered
                    entered = now
                    mode = _STANDBY
                else:  # power-up done
                    # power-up is always triggered by an arrival, so the
                    # queue cannot be empty here
                    assert n > 0
                    powerup_area += now - entered
                    entered = now
                    mode = _ACTIVE
                    service = next_service()
                    if not service >= 0.0:
                        raise _invalid_delay(service, now)
                    heappush(heap, (now + service, next(seqs), _SERVICE_DONE))
            return executed

        sim = Simulator(kernel=drain)
        try:
            first_gap = next_gap()
            if isfinite(first_gap):
                if first_gap < 0.0:
                    raise _invalid_delay(first_gap, now)
                heappush(heap, (now + first_gap, next(seqs), _ARRIVAL))
            if warmup > 0.0:
                sim.run_until(warmup)
                # restart the statistics at the warm-up point
                start = entered = q_last = float(warmup)
                idle_area = standby_area = powerup_area = active_area = 0.0
                q_area = 0.0
                lat_n = 0
                lat_mean = 0.0
                served = arrived = 0
            sim.run_until(horizon)
        finally:
            for settle in settles:
                settle()

        # close the current state's open segment and the queue integral
        tail = horizon - entered
        if mode == _IDLE:
            idle_area += tail
        elif mode == _STANDBY:
            standby_area += tail
        elif mode == _POWERUP:
            powerup_area += tail
        else:
            active_area += tail
        span = horizon - start
        return CPUSimulationResult(
            fractions=StateFractions(
                idle=idle_area / span,
                standby=standby_area / span,
                powerup=powerup_area / span,
                active=active_area / span,
            ),
            jobs_arrived=arrived,
            jobs_served=served,
            mean_latency=lat_mean if lat_n else float("nan"),
            mean_jobs_in_system=(q_area + n * (horizon - q_last)) / span,
            horizon=horizon - warmup,
        )


def simulate_job_scan(
    params: CPUModelParams,
    n_jobs: int,
    rng: np.random.Generator,
) -> CPUSimulationResult:
    """Fast job-scan simulation over pre-drawn variates.

    Draws all inter-arrival and service times up front (one NumPy call
    each — see the HPC guide: vectorise the draws, keep the recursion
    tight), then resolves each job's start time with a Lindley-style
    recursion that also books idle / standby / power-up intervals:

    - server busy at arrival (``a_i < d_{i-1}``): job waits, no state gap;
    - server empty, gap ``<= T``: the CPU idled the whole gap;
    - server empty, gap ``> T``: the CPU idled ``T``, slept ``gap - T - …``
      until the arrival, and powered up for ``D`` before serving.

    The trajectory is statistically identical to
    :class:`CPUEventSimulator`'s (the two are cross-checked in the tests),
    but runs one loop iteration per job.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    p = params
    lam, mu = p.arrival_rate, p.service_rate
    T, D = p.power_down_threshold, p.power_up_delay

    inter = rng.exponential(1.0 / lam, size=n_jobs)
    service = rng.exponential(1.0 / mu, size=n_jobs)
    arrivals = np.cumsum(inter)

    idle_time = 0.0
    standby_time = 0.0
    powerup_time = 0.0
    latency_total = 0.0
    area_jobs = 0.0  # integral of number-in-system (via latencies: L = Σ latency / horizon)

    # CPU starts asleep at t=0: first job always pays the power-up delay.
    prev_departure = 0.0
    asleep = True
    pending_idle_start = 0.0  # time the server went idle (= prev departure)

    for i in range(n_jobs):
        a = arrivals[i]
        if a >= prev_departure:
            gap = a - pending_idle_start if not asleep else 0.0
            if asleep:
                # asleep since max(pending sleep start); standby until a
                standby_time += a - pending_idle_start
                start = a + D
                powerup_time += D
            elif gap > T:
                # idled T, then slept until the arrival
                idle_time += T
                standby_time += gap - T
                start = a + D
                powerup_time += D
            else:
                idle_time += gap
                start = a
        else:
            start = prev_departure
        departure = start + service[i]
        latency_total += departure - a
        prev_departure = departure
        pending_idle_start = departure
        asleep = False

    horizon = prev_departure
    active_time = float(service.sum())
    # after the last departure the CPU idles T then sleeps, but the run ends
    # at the last departure so no tail is booked.
    total = idle_time + standby_time + powerup_time + active_time
    # `total` can differ from horizon only by float rounding
    fractions = StateFractions(
        idle=idle_time / total,
        standby=standby_time / total,
        powerup=powerup_time / total,
        active=active_time / total,
    )
    return CPUSimulationResult(
        fractions=fractions,
        jobs_arrived=n_jobs,
        jobs_served=n_jobs,
        mean_latency=latency_total / n_jobs,
        mean_jobs_in_system=latency_total / horizon,  # Little's law, measured
        horizon=horizon,
    )


# ---------------------------------------------------------------------- #
# replication plumbing (module level so multiprocessing can pickle it)
# ---------------------------------------------------------------------- #
def simulate_cpu_metrics(
    streams: StreamManager,
    params: CPUModelParams,
    horizon: float,
    warmup: float = 0.0,
) -> Dict[str, float]:
    """One replication, returned as a flat metric dict for the runner."""
    result = CPUEventSimulator(params, streams=streams).run(horizon, warmup)
    f = result.fractions
    return {
        "idle": f.idle,
        "standby": f.standby,
        "powerup": f.powerup,
        "active": f.active,
        "mean_latency": result.mean_latency,
        "mean_jobs": result.mean_jobs_in_system,
        "throughput": result.jobs_served / result.horizon,
    }


def replicate_cpu_simulation(
    params: CPUModelParams,
    horizon: float,
    n_replications: int,
    seed: Optional[int] = None,
    warmup: float = 0.0,
    n_jobs: int = 1,
) -> ReplicationSummary:
    """Across-replication summary of the event simulator."""
    return run_replications(
        simulate_cpu_metrics,
        n_replications=n_replications,
        seed=seed,
        n_jobs=n_jobs,
        params=params,
        horizon=horizon,
        warmup=warmup,
    )


def fractions_from_summary(summary: ReplicationSummary) -> StateFractions:
    """Mean state fractions across a replication summary."""
    return StateFractions(
        idle=summary.means["idle"],
        standby=summary.means["standby"],
        powerup=summary.means["powerup"],
        active=summary.means["active"],
    )
