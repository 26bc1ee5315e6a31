"""Event-driven token-game simulation of EDSPNs.

Semantics implemented (the TimeNET-compatible subset the paper relies on):

1. **Vanishing markings** — whenever any immediate transition is enabled the
   marking is vanishing: immediates fire in zero time until none is enabled.
   Within an instant, only the *highest-priority* enabled immediates compete;
   ties are resolved by weighted random choice.  A configurable chain limit
   guards against zero-time livelocks.
2. **Timed races** — every enabled timed transition holds a timer; the
   earliest timer fires.  Timer lifecycles follow the transition's
   :class:`~repro.petri.transitions.MemoryPolicy`:

   - a transition that remains enabled across someone else's firing keeps
     its timer (clock continuity),
   - a transition disabled before firing loses (RESAMPLE), freezes (AGE), or
     re-uses (IDENTICAL) its timer,
   - a transition that fires always draws a fresh timer for its next
     enabling cycle.

   Enabledness is compared *between tangible markings*: zero-time excursions
   through vanishing markings do not reset timers (TimeNET behaviour).
3. **Statistics** — time-averaged token counts per place (the paper's
   "average number of tokens … determines the steady state probability"),
   transition firing counts/throughputs, and arbitrary user-defined
   marking *watchers* (e.g. "CPU_ON and not Active" for the idle
   percentage), all supporting warm-up truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.engine import SimulationError, Simulator
from repro.des.random_streams import StreamManager
from repro.petri.marking import Marking
from repro.petri.net import CompiledNet, PetriNet, transition_kernels
from repro.petri.transitions import MemoryPolicy, TimedTransition

__all__ = ["PetriNetSimulator", "SimulationResult"]

# receives an integer-indexable token vector (indexed by place index)
Watcher = Callable[[Sequence[int]], float]

# withdrawn timers are swept out of a run's heap once it outgrows this
_COMPACT_AT = 4096


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Token and watcher averages are time-weighted means over
    ``[warmup, horizon]``.
    """

    net_name: str
    horizon: float
    warmup: float
    observed_time: float
    place_names: List[str]
    mean_tokens_vector: np.ndarray
    firing_counts: Dict[str, int]
    watcher_means: Dict[str, float] = field(default_factory=dict)
    final_marking: Optional[Marking] = None
    events_executed: int = 0
    immediate_firings: int = 0

    def mean_tokens(self, place: str) -> float:
        """Time-averaged token count of *place* — the paper's steady-state
        probability estimator when the place is 1-bounded."""
        try:
            i = self.place_names.index(place)
        except ValueError:
            raise KeyError(f"unknown place {place!r}") from None
        return float(self.mean_tokens_vector[i])

    def mean_tokens_dict(self) -> Dict[str, float]:
        return {
            name: float(v)
            for name, v in zip(self.place_names, self.mean_tokens_vector)
        }

    def throughput(self, transition: str) -> float:
        """Firings per unit time over the observed window."""
        if transition not in self.firing_counts:
            raise KeyError(f"unknown transition {transition!r}")
        if self.observed_time <= 0.0:
            return 0.0
        return self.firing_counts[transition] / self.observed_time

    def watcher(self, name: str) -> float:
        return self.watcher_means[name]


class PetriNetSimulator:
    """Simulates a :class:`~repro.petri.net.PetriNet`.

    Parameters
    ----------
    net:
        The net to simulate (compiled lazily; the net must not be mutated
        while a simulator holds it).
    seed:
        Convenience master seed; ignored when *streams* is given.
    streams:
        Pre-built :class:`~repro.des.random_streams.StreamManager`, e.g. a
        per-replication child.
    max_immediate_chain:
        Zero-time livelock guard: maximum immediate firings at one instant.
    """

    def __init__(
        self,
        net: PetriNet,
        seed: Optional[int] = None,
        streams: Optional[StreamManager] = None,
        max_immediate_chain: int = 100_000,
    ) -> None:
        net.check()
        self.net = net
        self.compiled: CompiledNet = net.compile()
        self.streams = streams if streams is not None else StreamManager(seed)
        self.max_immediate_chain = int(max_immediate_chain)
        self._watchers: Dict[str, Watcher] = {}
        # per-transition RNG streams, resolved once
        c = self.compiled
        self._conflict_rng = self.streams.get(f"petri/{net.name}/conflicts")
        self._t_rng = [
            self.streams.get(f"petri/{net.name}/t/{t.name}")
            for t in c.transitions
        ]
        # immediates by descending priority, index order within a priority
        # (the order of the conflict draws), each with its equal-priority rivals
        self._immediate_order = sorted(
            c.immediate_indices,
            key=lambda i: -c.transitions[i].priority,  # type: ignore[attr-defined]
        )
        self._rivals: Dict[int, Tuple[int, ...]] = {
            ti: tuple(
                i for i in self._immediate_order
                if c.transitions[i].priority == c.transitions[ti].priority  # type: ignore[attr-defined]
            )
            for ti in c.immediate_indices
        }
        # dependency sets: firing t can change the enabling only of the
        # transitions sensitive to a place whose token count t changes, and
        # of every guarded transition (a guard may read any place).  A timed
        # transition also depends on itself: it draws a fresh timer after
        # firing.  Timed dependents are a bitmask over transition indices,
        # so a cascade's sets union cheaply and expand in index order.
        immediate_deps: List[Tuple[int, ...]] = []
        self._timed_deps: List[int] = []
        for ti, t in enumerate(c.transitions):
            deps = set(c.guarded_indices)
            for p, _ in c.deltas[ti]:
                deps.update(c.affected_by_place[p])
            if not t.is_immediate:
                deps.add(ti)
            immediate_deps.append(
                tuple(d for d in sorted(deps) if c.transitions[d].is_immediate)
            )
            self._timed_deps.append(
                sum(1 << d for d in deps if not c.transitions[d].is_immediate)
            )
        # generated per-transition enabling tests, and firing functions that
        # also refresh the fired transition's immediate dependents' flags
        self._tests, self._fires = transition_kernels(c, immediate_deps)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def watch(self, name: str, fn: Watcher) -> "PetriNetSimulator":
        """Register a marking watcher.

        *fn* receives an integer-indexable token vector (indexed by place
        index; index it, do not rely on array methods) and returns a float;
        its time-weighted mean over the observation window is reported in
        :attr:`SimulationResult.watcher_means`.
        """
        self._watchers[name] = fn
        return self

    def watch_place_positive(self, name: str, place: str) -> "PetriNetSimulator":
        """Watch the indicator ``tokens(place) >= 1``."""
        idx = self.compiled.place_names.index(place)
        return self.watch(name, lambda m, _i=idx: 1.0 if m[_i] >= 1 else 0.0)

    # ------------------------------------------------------------------ #
    # main entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        horizon: float,
        warmup: float = 0.0,
        max_firings: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate on ``[0, horizon]``, collecting statistics after *warmup*."""
        if horizon <= 0.0 or not math.isfinite(horizon):
            raise ValueError(f"horizon must be finite and > 0, got {horizon}")
        if not (0.0 <= warmup < horizon):
            raise ValueError(f"need 0 <= warmup < horizon, got warmup={warmup}")

        c = self.compiled
        tests = self._tests
        fires = self._fires
        transitions = c.transitions
        n_trans = len(transitions)

        marking: List[int] = c.initial_marking.tolist()
        # the run-local event heap of (time, sequence, transition) timers:
        # live[ti] is the sequence number of ti's live timer (-1 if none)
        # and due[ti] its firing time; a withdrawn timer's entry stays in
        # the heap and is skipped when popped
        heap: List[Tuple[float, int, int]] = []
        seqs = count()
        live = [-1] * n_trans
        due = [0.0] * n_trans
        compact_at = _COMPACT_AT
        age_remaining: Dict[int, float] = {}
        identical_sample: Dict[int, float] = {}
        firing_counts = [0] * n_trans
        immediate_firings = 0
        timed_firings = 0
        capped = False  # max_firings reached: no further event runs

        # --- statistics state ------------------------------------------ #
        area = [0.0] * len(marking)
        watcher_names = list(self._watchers)
        watcher_fns = [self._watchers[w] for w in watcher_names]
        watcher_area = [0.0] * len(watcher_fns)
        watcher_values = [0.0] * len(watcher_fns)
        now = last_time = 0.0

        def accumulate(until: float) -> None:
            # area[i] + marking[i] * dt; a zero term leaves an area as it is
            # (a + 0 * dt == a, bit for bit), so unmarked places are skipped
            nonlocal last_time
            dt = until - last_time
            if dt > 0.0:
                for i, m in enumerate(marking):
                    if m:
                        area[i] += m * dt
                for i, v in enumerate(watcher_values):
                    if v:
                        watcher_area[i] += v * dt
            last_time = until

        # --- timer sources ----------------------------------------------- #
        def sample_delay(ti: int) -> float:
            """A timer under the AGE/IDENTICAL bookkeeping."""
            t = transitions[ti]
            assert isinstance(t, TimedTransition)
            if t.memory_policy is MemoryPolicy.AGE:
                if ti in age_remaining:
                    return age_remaining.pop(ti)
                return float(t.distribution.sample(self._t_rng[ti]))
            if ti in identical_sample:
                return identical_sample[ti]
            delay = float(t.distribution.sample(self._t_rng[ti]))
            identical_sample[ti] = delay
            return delay

        # each timed transition's timer source, resolved once: RESAMPLE
        # draws straight from its stream
        draw: Dict[int, Callable[[], float]] = {}
        is_age = [False] * n_trans
        for ti in c.timed_indices:
            t = transitions[ti]
            assert isinstance(t, TimedTransition)
            if t.memory_policy is MemoryPolicy.RESAMPLE:
                draw[ti] = partial(t.distribution.sample, self._t_rng[ti])
            else:
                draw[ti] = partial(sample_delay, ti)
            is_age[ti] = t.memory_policy is MemoryPolicy.AGE

        # --- settling after a firing --------------------------------------- #
        imm_order = self._immediate_order
        rivals = self._rivals
        timed_deps = self._timed_deps
        imm_enabled = [False] * n_trans
        for ti in imm_order:
            imm_enabled[ti] = tests[ti](marking)
        max_chain = self.max_immediate_chain
        # mask -> its timed transitions in index order, the order a full
        # rescan visits them in, so timers get their sequence numbers in
        # the full rescan's order
        expanded: Dict[int, Tuple[int, ...]] = {}

        def settle(retest: int, now: float) -> None:
            """Fire immediates until the marking is tangible, re-read the
            watchers, then bring the timers of the *retest* mask, widened
            by the cascade's timed dependents, up to date."""
            nonlocal immediate_firings
            chain = 0
            while True:
                for chosen in imm_order:
                    if imm_enabled[chosen]:
                        break
                else:
                    break  # tangible
                # *chosen* is the first enabled transition of the highest
                # enabled priority: it competes with its enabled rivals
                group = rivals[chosen]
                if len(group) > 1:
                    conflict = [i for i in group if imm_enabled[i]]
                    if len(conflict) > 1:
                        weights = np.array(
                            [transitions[i].weight for i in conflict]  # type: ignore[attr-defined]
                        )
                        chosen = conflict[
                            self._conflict_rng.choice(len(conflict), p=weights / weights.sum())
                        ]
                fires[chosen](marking, imm_enabled)
                firing_counts[chosen] += 1
                immediate_firings += 1
                retest |= timed_deps[chosen]
                chain += 1
                if chain > max_chain:
                    raise SimulationError(
                        f"immediate-transition livelock: more than "
                        f"{max_chain} zero-time firings at "
                        f"t={now:.6g} in net {self.net.name!r}"
                    )

            watcher_values[:] = [float(fn(marking)) for fn in watcher_fns]

            # invariant between firings: a timed transition holds a timer
            # iff it is enabled, so only the *retest* mask can need a change
            order = expanded.get(retest)
            if order is None:
                order = expanded[retest] = tuple(
                    ti for ti in c.timed_indices if retest >> ti & 1
                )
            for ti in order:
                is_enabled = tests[ti](marking)
                if live[ti] >= 0:
                    if is_enabled:
                        continue  # clock keeps running
                    # disabled: withdraw the timer
                    live[ti] = -1
                    if is_age[ti]:
                        age_remaining[ti] = max(due[ti] - now, 0.0)
                    # IDENTICAL keeps identical_sample as is; RESAMPLE drops
                elif is_enabled:
                    delay = float(draw[ti]())
                    if delay < 0.0 or delay != delay:
                        raise SimulationError(f"invalid delay {delay!r} at t={now}")
                    live[ti] = seq = next(seqs)
                    due[ti] = time = now + delay
                    heappush(heap, (time, seq, ti))

        # --- the kernel: fire timers in (time, sequence) order ------------- #
        def drain(end_time: float) -> int:
            nonlocal now, last_time, timed_firings, capped, compact_at
            executed = 0
            if capped:
                return executed
            while heap:
                time, seq, ti = heap[0]
                if time > end_time:
                    break
                heappop(heap)
                if live[ti] != seq:
                    continue  # withdrawn timer
                if time < now:
                    raise SimulationError(
                        f"event at t={time} popped while clock at {now}"
                    )
                now = time
                # the areas up to the firing (accumulate, inlined)
                dt = time - last_time
                if dt > 0.0:
                    for i, m in enumerate(marking):
                        if m:
                            area[i] += m * dt
                    for i, v in enumerate(watcher_values):
                        if v:
                            watcher_area[i] += v * dt
                last_time = time
                live[ti] = -1
                if identical_sample:
                    identical_sample.pop(ti, None)  # fired: sample consumed
                fires[ti](marking, imm_enabled)
                firing_counts[ti] += 1
                timed_firings += 1
                executed += 1
                settle(timed_deps[ti], time)
                if max_firings is not None and timed_firings + immediate_firings >= max_firings:
                    capped = True
                    break
                if len(heap) > compact_at:
                    # drop withdrawn timers; (time, sequence) keys are
                    # unique, so the firing order is unchanged
                    heap[:] = [e for e in heap if live[e[2]] == e[1]]
                    heapify(heap)
                    compact_at = max(_COMPACT_AT, 2 * len(heap))
            return executed

        # --- run ---------------------------------------------------------- #
        settle(sum(1 << ti for ti in c.timed_indices), now)
        engine = Simulator(kernel=drain)

        firing_offset = [0] * n_trans
        if warmup > 0.0:
            engine.run_until(warmup)
            accumulate(warmup)
            area[:] = [0.0] * len(area)
            watcher_area[:] = [0.0] * len(watcher_area)
            firing_offset = list(firing_counts)
        engine.run_until(horizon)
        # close the window exactly at the horizon, also if the queue
        # drained or the firing cap ended the run early
        accumulate(horizon)

        observed = horizon - warmup
        return SimulationResult(
            net_name=self.net.name,
            horizon=horizon,
            warmup=warmup,
            observed_time=observed,
            place_names=list(c.place_names),
            mean_tokens_vector=np.array(area) / observed,
            firing_counts={
                t.name: firing_counts[i] - firing_offset[i]
                for i, t in enumerate(transitions)
            },
            watcher_means={
                name: watcher_area[i] / observed
                for i, name in enumerate(watcher_names)
            },
            final_marking=Marking(marking, c.place_names),
            events_executed=engine.events_executed,
            immediate_firings=immediate_firings,
        )

    # ------------------------------------------------------------------ #
    def run_batches(
        self,
        batch_length: float,
        n_batches: int,
        warmup: float = 0.0,
    ) -> List[SimulationResult]:
        """Run ``n_batches`` *independent* runs of length *batch_length*.

        Independent replications (not batch means over one trajectory):
        each run draws from the same underlying streams sequentially, so the
        batches are independent but the whole sequence is reproducible.
        """
        if n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        return [
            self.run(horizon=batch_length + warmup, warmup=warmup)
            for _ in range(n_batches)
        ]
