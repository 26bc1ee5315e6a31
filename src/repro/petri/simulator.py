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

Implementation: one generated kernel per net.  :func:`_kernel_source`
turns the net's structure into the source of a single ``drain(end_time)``,
compiled once per net shape (``repro.petri.net._compile``; the names,
delays and weights are bound per run, not written into the text).  For
each timer popped from the run's ``(time, sequence, transition)`` heap it
skips withdrawn timers, checks the clock, updates the areas unrolled over
places and watchers, dispatches on the fired transition to its token
deltas, runs the immediate cascade unrolled in priority order (equal
priorities draw from the ``conflicts`` stream), re-reads the watchers and
re-tests the fired transitions' timed dependents in transition-index
order.  Token counts, areas, firing counts and enabling flags are locals
of ``drain``; the cascade and each firing are emitted once, so the
source grows linearly with the net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.des.engine import SimulationError, Simulator
from repro.des.random_streams import StreamManager
from repro.petri.marking import Marking
from repro.petri.net import (  # noqa: F401  (transition_kernels: re-exported)
    CompiledNet,
    PetriNet,
    _compile,
    enabling_conditions,
    firing_statements,
    guard_globals,
    transition_kernels,
)
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
        try:
            idx = self.compiled.place_names.index(place)
        except ValueError:
            raise KeyError(f"unknown place {place!r}") from None
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
        transitions = c.transitions
        n_trans = len(transitions)
        marking: List[int] = c.initial_marking.tolist()
        firing_counts = [0] * n_trans
        area = [0.0] * len(marking)
        watcher_names = list(self._watchers)
        watcher_area = [0.0] * len(watcher_names)
        # AGE remaining times and IDENTICAL reused samples, by transition
        age_remaining: Dict[int, float] = {}
        identical_sample: Dict[int, float] = {}

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
        # draws from its distribution's sampler over its stream, settled
        # when the run ends
        draws: Dict[int, Callable[[], float]] = {}
        settles: List[Callable[[], None]] = []
        for ti in c.timed_indices:
            t = transitions[ti]
            assert isinstance(t, TimedTransition)
            if t.memory_policy is MemoryPolicy.RESAMPLE:
                draws[ti], settle = t.distribution.sampler(self._t_rng[ti])
                settles.append(settle)
            else:
                draws[ti] = partial(sample_delay, ti)

        # the net's kernel, bound to this run's state; the heap helpers are
        # looked up here, at run time
        namespace = dict(
            guard_globals(c),
            heapify=heapify,
            heappop=heappop,
            heappush=heappush,
            np=np,
            SimulationError=SimulationError,
            invalid_delay=_invalid_delay,
        )
        exec(_compile(_kernel_source(c, len(watcher_names)), "exec"), namespace)
        # popped, so the namespace and bind form no cycle left for the gc
        drain, close = namespace.pop("bind")(
            m=marking,
            area=area,
            warea=watcher_area,
            wfns=[self._watchers[w] for w in watcher_names],
            counts=firing_counts,
            live=[-1] * n_trans,
            due=[0.0] * n_trans,
            heap=[],
            draws=draws,
            age_remaining=age_remaining,
            identical_sample=identical_sample,
            weights=[getattr(t, "weight", 0.0) for t in transitions],
            choice=self._conflict_rng.choice,
            cfire=c.fire,
            limit=max_firings,
            max_chain=self.max_immediate_chain,
            net_name=self.net.name,
        )
        engine = Simulator(kernel=drain)

        firing_offset = [0] * n_trans
        try:
            if warmup > 0.0:
                engine.run_until(warmup)
                close(warmup)
                area[:] = [0.0] * len(area)
                watcher_area[:] = [0.0] * len(watcher_area)
                firing_offset = list(firing_counts)
            engine.run_until(horizon)
        finally:
            # every stream ends where scalar draws would have left it,
            # also when the run raised
            for settle in settles:
                settle()
        # close the window exactly at the horizon, also if the queue
        # drained or the firing cap ended the run early
        close(horizon)

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
            immediate_firings=sum(firing_counts[i] for i in c.immediate_indices),
        )


def _invalid_delay(delay: float, now: float) -> None:
    raise SimulationError(f"invalid delay {delay!r} at t={now}")


def _kernel_source(c: CompiledNet, n_watchers: int) -> str:
    """The token-game kernel of every net shaped like *c*, as Python source.

    The text depends only on the net's structure (arcs, capacities,
    priorities, memory policies, which transitions have guards) and the
    number of watchers.  Executing it defines ``bind(...)``, which binds a
    run's state and returns ``(drain, close)``: ``drain(end_time)`` is the
    run's engine kernel, ``close(until)`` brings the areas up to *until*.
    Inside ``drain`` the token counts (``m<p>``), areas (``a<p>``), firing
    counts (``c<t>``), immediate enabling flags (``f<t>``) and watcher
    values (``w<i>``) are locals; a firing also writes its token counts to
    the list ``m`` that guards and watchers read, and the rest is written
    back when ``drain`` returns.
    """
    transitions = c.transitions
    places = range(len(c.place_names))
    conditions = enabling_conditions(c, "m{}")
    # immediates by descending priority, index order within a priority
    # (the order of the conflict draws), in levels of equal priority
    imm_order = sorted(
        c.immediate_indices,
        key=lambda i: -transitions[i].priority,  # type: ignore[attr-defined]
    )
    levels: List[List[int]] = []
    for ti in imm_order:
        if levels and transitions[levels[-1][0]].priority == transitions[ti].priority:  # type: ignore[attr-defined]
            levels[-1].append(ti)
        else:
            levels.append([ti])
    # dependency sets: firing t can change the enabling only of the
    # transitions sensitive to a place whose token count t changes, and of
    # every guarded transition (a guard may read any place).  A timed
    # transition also depends on itself: it draws a fresh timer after
    # firing.  Timed dependents are a bitmask over transition indices.
    imm_deps: List[List[int]] = []
    timed_mask: List[int] = []
    for ti, t in enumerate(transitions):
        deps = set(c.guarded_indices)
        for p, _ in c.deltas[ti]:
            deps.update(c.affected_by_place[p])
        if not t.is_immediate:
            deps.add(ti)
        imm_deps.append([d for d in sorted(deps) if transitions[d].is_immediate])
        timed_mask.append(sum(1 << d for d in deps if not transitions[d].is_immediate))
    policy = {ti: transitions[ti].memory_policy for ti in c.timed_indices}  # type: ignore[attr-defined]

    watchers = range(n_watchers)
    # lists whose items drain keeps in locals: (local prefix, indices, list)
    unpacked = [
        ("a", places, "area"),
        ("u", watchers, "warea"),
        ("c", range(len(transitions)), "counts"),
    ]

    def names(prefix: str, indices: Sequence[int]) -> str:
        return ", ".join(f"{prefix}{i}" for i in indices) + ","

    def branch(n: int, count: int, test: str) -> str:
        """The *n*-th of *count* exhaustive branches."""
        if n == 0:
            return f"if {test}:"
        return f"elif {test}:" if n < count - 1 else "else:"

    lines: List[str] = []

    def emit(depth: int, *texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def fire(depth: int, t: int, retest: str) -> None:
        emit(depth, *firing_statements(c, t, f"cfire({t}, m)", "m{}"))
        emit(depth, *(f"m[{p}] = m{p}" for p, _ in c.deltas[t]))
        emit(depth, *(f"f{j} = {conditions[j]}" for j in imm_deps[t]))
        emit(depth, f"c{t} += 1", f"retest {retest} {timed_mask[t]}")

    def areas(depth: int, last: str, token: str, area: str, value: str, warea: str) -> None:
        # area + x * dt for every place and watcher; a zero term would leave
        # the area as it is (a + 0 * dt == a, bit for bit), so it is skipped
        emit(depth, f"dt = until - {last}", "if dt > 0.0:")
        for p in places:
            x = token.format(p)
            emit(depth + 1, f"if {x}: {area.format(p)} += {x} * dt")
        for i in watchers:
            x = value.format(i)
            emit(depth + 1, f"if {x}: {warea.format(i)} += {x} * dt")
        emit(depth, f"{last} = until")

    emit(0, "def bind(m, area, warea, wfns, counts, live, due, heap, draws,")
    emit(2, "age_remaining, identical_sample, weights, choice, cfire, limit,")
    emit(2, "max_chain, net_name):")
    emit(1, *(f"wf{i} = wfns[{i}]" for i in watchers))
    emit(1, *(f"draw{t} = draws[{t}]" for t in c.timed_indices))
    # the state a run keeps between drains: watcher values, the clock, the
    # next sequence number, the sweep threshold; todo == -1 until the
    # initial marking is settled (every timed transition needs a test)
    emit(1, *(f"v{i} = 0.0" for i in watchers))
    emit(1, "t_now = t_last = 0.0", "n_seq = 0", f"compact_at = {_COMPACT_AT}")
    emit(1, "todo = -1", "capped = False", "")
    emit(1, "def close(until):", "    nonlocal t_last")
    areas(2, "t_last", "m[{}]", "area[{}]", "v{}", "warea[{}]")
    emit(0, "")
    emit(1, "def drain(end_time):")
    emit(2, "nonlocal t_now, t_last, n_seq, compact_at, todo, capped" + "".join(
        f", v{i}" for i in watchers
    ))
    emit(2, "if capped:", "    return 0", f"{names('m', places)} = m")
    emit(2, *(f"{names(x, ii)} = {xs}" for x, ii, xs in unpacked if ii))
    emit(2, *(f"w{i} = v{i}" for i in watchers))
    emit(2, "now, last_time, seq = t_now, t_last, n_seq")
    emit(2, "executed = 0", "retest = todo", "todo = 0")
    # the enabling flags: between drains the marking is tangible, so every
    # immediate is disabled
    flags = [f"f{ti}" for ti in imm_order]
    if flags:
        emit(2, "if retest:")
        emit(3, *(f"f{ti} = {conditions[ti]}" for ti in imm_order))
        emit(2, "else:", "    " + " = ".join(flags) + " = False")
    emit(2, "try:")
    emit(3, "while True:")
    if levels:
        # the vanishing cascade: the first enabled transition of the highest
        # enabled priority fires, drawing against its enabled rivals
        emit(4, "chain = 0", "while True:")
        for k, level in enumerate(levels):
            keyword = "if" if k == 0 else "elif"
            emit(5, f"{keyword} " + " or ".join(f"f{ti}" for ti in level) + ":")
            if len(level) == 1:
                fire(6, level[0], "|=")
                continue
            pairs = ", ".join(f"({ti}, f{ti})" for ti in level)
            emit(6, f"conflict = [i for i, e in ({pairs}) if e]")
            emit(6, "if len(conflict) > 1:")
            emit(7, "w = np.array([weights[i] for i in conflict])")
            emit(7, "chosen = conflict[choice(len(conflict), p=w / w.sum())]")
            emit(6, "else:", "    chosen = conflict[0]")
            for n, ti in enumerate(level):
                emit(6, branch(n, len(level), f"chosen == {ti}"))
                fire(7, ti, "|=")
        emit(5, "else:", "    break", "chain += 1", "if chain > max_chain:")
        emit(6, "raise SimulationError(")
        emit(7, 'f"immediate-transition livelock: more than "')
        emit(7, 'f"{max_chain} zero-time firings at "')
        emit(7, 'f"t={now:.6g} in net {net_name!r}"')
        emit(6, ")")
    # the marking is tangible: re-read the watchers, then bring the timers
    # of the retest mask up to date in transition-index order
    emit(4, "if retest:")
    emit(5, *(f"w{i} = float(wf{i}(m))" for i in watchers))
    for t in c.timed_indices:
        emit(5, f"if retest & {1 << t}:")
        emit(6, f"if {conditions[t]}:")
        emit(7, f"if live[{t}] < 0:")
        emit(8, f"delay = float(draw{t}())", "if not delay >= 0.0:")  # NaN too
        emit(9, "invalid_delay(delay, now)")
        if policy[t] is MemoryPolicy.AGE:
            emit(8, f"due[{t}] = now + delay")
        emit(8, f"live[{t}] = seq", f"heappush(heap, (now + delay, seq, {t}))")
        emit(8, "seq += 1")
        emit(6, f"elif live[{t}] >= 0:", f"    live[{t}] = -1")
        if policy[t] is MemoryPolicy.AGE:
            emit(7, f"age_remaining[{t}] = max(due[{t}] - now, 0.0)")
    # after a timed firing: the firing cap, then the sweep of withdrawn
    # timers ((time, sequence) keys are unique: the order is unchanged)
    emit(5, "if executed:")
    fired = " + ".join(f"c{t}" for t in range(len(transitions)))
    emit(6, f"if limit is not None and {fired} >= limit:")
    emit(7, "capped = True", "return executed")
    emit(6, "if len(heap) > compact_at:")
    emit(7, "heap[:] = [e for e in heap if live[e[2]] == e[1]]", "heapify(heap)")
    emit(7, f"compact_at = max({_COMPACT_AT}, 2 * len(heap))")
    # the next live timer due by end_time
    emit(4, "while True:")
    emit(5, "if not heap:", "    return executed", "until, s, ti = heap[0]")
    emit(5, "if until > end_time:", "    return executed", "heappop(heap)")
    emit(5, "if live[ti] == s:", "    break")
    emit(4, "if until < now:")
    emit(5, 'raise SimulationError(f"event at t={until} popped while clock at {now}")')
    emit(4, "now = until")
    areas(4, "last_time", "m{}", "a{}", "w{}", "u{}")
    emit(4, "live[ti] = -1", "executed += 1")
    for n, t in enumerate(c.timed_indices):
        emit(4, branch(n, len(c.timed_indices), f"ti == {t}"))
        if policy[t] is MemoryPolicy.IDENTICAL:
            emit(5, f"identical_sample.pop({t}, None)")  # fired: sample consumed
        fire(5, t, "=")
    emit(2, "finally:")  # the token list m is written by every firing
    emit(3, *(f"{xs}[:] = {names(x, ii)}" for x, ii, xs in unpacked if ii))
    emit(3, *(f"v{i} = w{i}" for i in watchers))
    emit(3, "t_now, t_last, n_seq = now, last_time, seq")
    emit(1, "return drain, close")
    return "\n".join(lines) + "\n"
