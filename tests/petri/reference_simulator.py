"""Test-only reference token game: the full-rescan loop.

:func:`reference_run` is the straightforward implementation of the
semantics documented in :mod:`repro.petri.simulator`: after every firing
it re-tests every immediate transition at every cascade step and every
timed transition, on a NumPy marking.  It draws from the same streams as
:class:`~repro.petri.simulator.PetriNetSimulator` in the same order, so
at a fixed seed the incremental simulator must reproduce its
:class:`~repro.petri.simulator.SimulationResult` bit for bit.  The
differential tests and ``benchmarks/bench_engine.py`` compare the two.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.des.engine import SimulationError, Simulator
from repro.des.events import Event
from repro.petri.marking import Marking
from repro.petri.simulator import PetriNetSimulator, SimulationResult
from repro.petri.transitions import MemoryPolicy, TimedTransition

__all__ = ["reference_run"]


def reference_run(
    sim: PetriNetSimulator,
    horizon: float,
    warmup: float = 0.0,
    max_firings: Optional[int] = None,
) -> SimulationResult:
    """Run *sim*'s net with the full-rescan loop, using *sim*'s streams,
    watchers and livelock guard."""
    if horizon <= 0.0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if not (0.0 <= warmup < horizon):
        raise ValueError(f"need 0 <= warmup < horizon, got warmup={warmup}")

    c = sim.compiled
    n_places = len(c.place_names)
    n_trans = len(c.transitions)
    conflict_rng = sim.streams.get(f"petri/{sim.net.name}/conflicts")
    t_rng = [
        sim.streams.get(f"petri/{sim.net.name}/t/{t.name}") for t in c.transitions
    ]
    imm_sorted = sorted(
        c.immediate_indices,
        key=lambda i: -c.transitions[i].priority,  # type: ignore[attr-defined]
    )

    engine = Simulator()
    marking = c.initial_marking.copy()
    pending: Dict[int, Event] = {}
    age_remaining: Dict[int, float] = {}
    identical_sample: Dict[int, float] = {}
    firing_counts = np.zeros(n_trans, dtype=np.int64)
    immediate_firings = 0
    capped = False  # max_firings reached: no further event runs

    area = np.zeros(n_places)
    watcher_names = list(sim._watchers)
    watcher_fns = [sim._watchers[w] for w in watcher_names]
    watcher_area = np.zeros(len(watcher_fns))
    watcher_values = np.zeros(len(watcher_fns))
    last_time = 0.0

    def recompute_watchers() -> None:
        for i, fn in enumerate(watcher_fns):
            watcher_values[i] = fn(marking)

    def accumulate(now: float) -> None:
        nonlocal last_time
        dt = now - last_time
        if dt > 0.0:
            area[:] += marking * dt
            if watcher_fns:
                watcher_area[:] += watcher_values * dt
        last_time = now

    transitions = c.transitions

    def stabilize() -> None:
        nonlocal immediate_firings
        chain = 0
        while True:
            best_priority: Optional[int] = None
            conflict: List[int] = []
            for ti in imm_sorted:
                prio = transitions[ti].priority  # type: ignore[attr-defined]
                if best_priority is not None and prio < best_priority:
                    break
                if c.enabled(ti, marking):
                    best_priority = prio
                    conflict.append(ti)
            if best_priority is None:
                return
            if len(conflict) == 1:
                chosen = conflict[0]
            else:
                weights = np.array(
                    [transitions[i].weight for i in conflict]  # type: ignore[attr-defined]
                )
                chosen = conflict[
                    conflict_rng.choice(len(conflict), p=weights / weights.sum())
                ]
            c.fire(chosen, marking)
            firing_counts[chosen] += 1
            immediate_firings += 1
            chain += 1
            if chain > sim.max_immediate_chain:
                raise SimulationError(
                    f"immediate-transition livelock: more than "
                    f"{sim.max_immediate_chain} zero-time firings at "
                    f"t={engine.now:.6g} in net {sim.net.name!r}"
                )

    def sample_delay(ti: int) -> float:
        t = transitions[ti]
        assert isinstance(t, TimedTransition)
        policy = t.memory_policy
        if policy is MemoryPolicy.AGE and ti in age_remaining:
            return age_remaining.pop(ti)
        if policy is MemoryPolicy.IDENTICAL:
            if ti in identical_sample:
                return identical_sample[ti]
            delay = float(t.distribution.sample(t_rng[ti]))
            identical_sample[ti] = delay
            return delay
        return float(t.distribution.sample(t_rng[ti]))

    def update_timed_schedule(fired: Optional[int]) -> None:
        now = engine.now
        for ti in c.timed_indices:
            enabled = c.enabled(ti, marking)
            ev = pending.get(ti)
            if ev is not None:
                if enabled and ti != fired:
                    continue
                engine.cancel(ev)
                del pending[ti]
                if not enabled:
                    t = transitions[ti]
                    assert isinstance(t, TimedTransition)
                    if t.memory_policy is MemoryPolicy.AGE:
                        age_remaining[ti] = max(ev.time - now, 0.0)
                    continue
            if enabled and ti not in pending:
                delay = sample_delay(ti)
                pending[ti] = engine.schedule(
                    delay,
                    lambda ti=ti: fire_timed(ti),
                    priority=1,
                    tag=transitions[ti].name,
                )

    def fire_timed(ti: int) -> None:
        nonlocal capped
        accumulate(engine.now)
        pending.pop(ti, None)
        identical_sample.pop(ti, None)
        c.fire(ti, marking)
        firing_counts[ti] += 1
        stabilize()
        recompute_watchers()
        update_timed_schedule(fired=ti)
        if max_firings is not None and int(firing_counts.sum()) >= max_firings:
            capped = True
            engine.stop()

    stabilize()
    recompute_watchers()
    update_timed_schedule(fired=None)

    firing_offset = np.zeros(n_trans, dtype=np.int64)
    if warmup > 0.0:
        engine.run_until(warmup)
        accumulate(warmup)
        area[:] = 0.0
        watcher_area[:] = 0.0
        firing_offset[:] = firing_counts
    if not capped:  # a cap reached in the warm-up also ends the run
        engine.run_until(horizon)
    accumulate(engine.now)
    if last_time < horizon:
        accumulate(horizon)

    observed = horizon - warmup
    mean_tokens = area / observed if observed > 0 else area * 0.0
    return SimulationResult(
        net_name=sim.net.name,
        horizon=horizon,
        warmup=warmup,
        observed_time=observed,
        place_names=list(c.place_names),
        mean_tokens_vector=mean_tokens,
        firing_counts={
            t.name: int(firing_counts[i] - firing_offset[i])
            for i, t in enumerate(transitions)
        },
        watcher_means={
            name: float(watcher_area[i] / observed)
            for i, name in enumerate(watcher_names)
        },
        final_marking=Marking(marking, c.place_names),
        events_executed=engine.events_executed,
        immediate_firings=immediate_firings,
    )
