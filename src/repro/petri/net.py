"""Net structure: places, transitions, arcs, and a compiled form.

:class:`PetriNet` is the user-facing builder.  Internally it *compiles* the
structure into index-based arrays (:class:`CompiledNet`) once, so the hot
token-game loop never touches dictionaries or strings.  The compiled form is
cached and invalidated on any structural mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.des.distributions import Distribution
from repro.petri.arcs import Arc, ArcKind
from repro.petri.marking import Marking
from repro.petri.transitions import (
    ImmediateTransition,
    MemoryPolicy,
    TimedTransition,
    Transition,
)

__all__ = [
    "Place",
    "PetriNet",
    "NetStructureError",
    "CompiledNet",
    "TokenVector",
    "enabling_conditions",
    "firing_statements",
    "guard_globals",
    "transition_kernels",
]

TokenVector = Union[np.ndarray, List[int]]
"""An integer-indexable token vector, indexed by place index.

The simulator and the reachability explorer both hold markings as plain
``list``s of ints, so a transition guard always receives a ``list``: index
it, do not rely on array methods.  :meth:`CompiledNet.enabled` and
:meth:`CompiledNet.fire` also accept ``int64`` arrays.
"""
TokenTest = Callable[[List[int]], bool]
TokenFire = Callable[[List[int], List[bool]], None]


class NetStructureError(ValueError):
    """Raised when a net is malformed (unknown node, duplicate name, …)."""


@dataclass(frozen=True)
class Place:
    """A token container.

    Attributes
    ----------
    name:
        Unique place name.
    initial:
        Tokens in the initial marking.
    capacity:
        Optional bound with *capacity semantics*: any transition whose
        firing would push the place above the capacity is disabled (a
        standard way to keep state spaces finite).  Firing an explicitly
        disabled transition past the bound raises.
    """

    name: str
    initial: int = 0
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise NetStructureError("place name must be non-empty")
        if self.initial < 0:
            raise NetStructureError(f"initial tokens must be >= 0 on {self.name!r}")
        if self.capacity is not None and self.capacity < max(self.initial, 1):
            raise NetStructureError(
                f"capacity on {self.name!r} must be >= max(initial, 1)"
            )


@dataclass
class CompiledNet:
    """Index-based view of a net, consumed by the simulator and analysis.

    All arrays are aligned: places by place index, transitions by transition
    index.  Arc lists are tuples of ``(place_index, multiplicity)``.
    """

    place_names: List[str]
    initial_marking: np.ndarray
    capacities: List[int]  # -1 means unbounded
    transitions: List[Transition]
    inputs: List[Tuple[Tuple[int, int], ...]]
    outputs: List[Tuple[Tuple[int, int], ...]]
    inhibitors: List[Tuple[Tuple[int, int], ...]]
    immediate_indices: List[int]
    timed_indices: List[int]
    # (place, net token delta) pairs that must satisfy the place capacity
    capacity_checks: List[Tuple[Tuple[int, int], ...]] = field(
        default_factory=list
    )
    # (place, net token delta) for every place a firing changes
    deltas: List[Tuple[Tuple[int, int], ...]] = field(default_factory=list)
    # transitions whose enabling may change when a given place changes
    affected_by_place: List[List[int]] = field(default_factory=list)
    guarded_indices: List[int] = field(default_factory=list)

    def enabled(self, t_index: int, marking: TokenVector) -> bool:
        """Enabling test for one transition under *marking*.

        Uses *capacity semantics*: a transition whose firing would push a
        bounded place above its capacity is disabled, not an error.
        """
        for p, mult in self.inputs[t_index]:
            if marking[p] < mult:
                return False
        for p, mult in self.inhibitors[t_index]:
            if marking[p] >= mult:
                return False
        for p, delta in self.capacity_checks[t_index]:
            if marking[p] + delta > self.capacities[p]:
                return False
        guard = self.transitions[t_index].guard
        if guard is not None and not guard(marking):
            return False
        return True

    def fire(self, t_index: int, marking: TokenVector) -> None:
        """Apply the firing of transition *t_index* to *marking* in place."""
        for p, mult in self.inputs[t_index]:
            marking[p] -= mult
        for p, mult in self.outputs[t_index]:
            marking[p] += mult
            cap = self.capacities[p]
            if cap >= 0 and marking[p] > cap:
                raise NetStructureError(
                    f"place {self.place_names[p]!r} exceeded capacity {cap} "
                    f"after firing {self.transitions[t_index].name!r}"
                )


def enabling_conditions(c: CompiledNet, token: str = "m[{}]") -> List[str]:
    """Each transition's enabling test as Python source: ``m[p] >= k and
    m[q] < j and m[r] <= c …`` (inputs, inhibitors, capacity checks, then
    ``bool(g<j>(m))`` for guard *j*), the order of
    :meth:`CompiledNet.enabled`; ``True`` when there is nothing to test.
    *token* formats place *p*'s token count (a guard always receives the
    list ``m``).  The one arc-to-condition builder behind every generated
    kernel."""
    conditions = []
    for j, t in enumerate(c.transitions):
        terms = [f"{token.format(p)} >= {k}" for p, k in c.inputs[j]]
        terms += [f"{token.format(p)} < {k}" for p, k in c.inhibitors[j]]
        terms += [
            f"{token.format(p)} <= {c.capacities[p] - d}"
            for p, d in c.capacity_checks[j]
        ]
        if t.guard is not None:
            terms.append(f"bool(g{j}(m))")
        conditions.append(" and ".join(terms) or "True")
    return conditions


def firing_statements(
    c: CompiledNet, t: int, on_overflow: str, token: str = "m[{}]"
) -> List[str]:
    """Transition *t*'s firing as Python statements: *on_overflow* when the
    firing would push a capacity-bounded output place past its bound, then
    the net token deltas.  *token* formats place *p*'s token count."""
    delta = dict(c.deltas[t])
    overflow = " or ".join(
        f"{token.format(p)} > {c.capacities[p] - delta.get(p, 0)}"
        for p in dict.fromkeys(p for p, _ in c.outputs[t])
        if c.capacities[p] >= 0
    )
    lines = [f"if {overflow}: {on_overflow}"] if overflow else []
    return lines + [f"{token.format(p)} += {d}" for p, d in c.deltas[t]]


def guard_globals(c: CompiledNet) -> Dict[str, Callable]:
    """Guard *j* as the global ``g<j>`` the generated conditions call."""
    return {
        f"g{j}": t.guard for j, t in enumerate(c.transitions) if t.guard is not None
    }


def transition_kernels(
    c: CompiledNet, refresh: Sequence[Sequence[int]]
) -> Tuple[List[TokenTest], List[TokenFire]]:
    """Straight-line enabling tests and firing functions, one per transition.

    Generated from the integer arc tuples by :func:`enabling_conditions`
    and :func:`firing_statements`, so nothing walks arc lists.
    ``tests[t](m)`` is *t*'s enabling condition.  ``fires[t](m, flags)``
    adds *t*'s net token deltas to *m*, then sets ``flags[j]`` to
    transition *j*'s enabling for every *j* in ``refresh[t]``.  A firing
    that would push a capacity-bounded output place past its bound is
    handed to :meth:`CompiledNet.fire`, which raises its
    :class:`NetStructureError` at the same arc.  On plain-list markings
    the kernels agree with :meth:`CompiledNet.enabled` and
    :meth:`CompiledNet.fire` exactly.  The reachability explorer
    (:mod:`repro.petri.analysis`) runs on them; the token game
    (:mod:`repro.petri.simulator`) generates one kernel per net from the
    same builders.

    Build them per exploration: stored on the cached :class:`CompiledNet`,
    these functions would stop a compiled :class:`PetriNet` from pickling.
    """
    guards = guard_globals(c)
    conditions = enabling_conditions(c)
    tests: List[TokenTest] = [
        eval(_compile(f"lambda m: {cond}", "eval"), guards) for cond in conditions
    ]
    fires: List[TokenFire] = []
    for t in range(len(c.transitions)):
        lines = firing_statements(c, t, "return fire(m)")
        lines += [f"f[{j}] = {conditions[j]}" for j in refresh[t]]
        namespace = dict(guards, fire=partial(c.fire, t))
        body = "".join(f"\n    {line}" for line in lines or ["pass"])
        exec(_compile(f"def kernel(m, f):{body}", "exec"), namespace)
        fires.append(namespace["kernel"])
    return tests, fires


@lru_cache(maxsize=1024)
def _compile(source: str, mode: str) -> CodeType:
    """Kernel source, compiled once: nets of one shape share the texts."""
    return compile(source, "<token-game kernel>", mode)


class PetriNet:
    """Mutable EDSPN builder.

    See the package docstring of :mod:`repro.petri` for a usage example.
    All ``add_*`` methods return ``self`` for chaining.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        self._arcs: List[Arc] = []
        self._compiled: Optional[CompiledNet] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_place(
        self, name: str, initial: int = 0, capacity: Optional[int] = None
    ) -> "PetriNet":
        """Add a place; raises on duplicate names."""
        if name in self._places or name in self._transitions:
            raise NetStructureError(f"duplicate node name {name!r}")
        self._places[name] = Place(name, initial, capacity)
        self._compiled = None
        return self

    def add_transition(self, transition: Transition) -> "PetriNet":
        """Add a pre-built transition object."""
        name = transition.name
        if name in self._transitions or name in self._places:
            raise NetStructureError(f"duplicate node name {name!r}")
        self._transitions[name] = transition
        self._compiled = None
        return self

    def add_immediate_transition(
        self,
        name: str,
        priority: int = 1,
        weight: float = 1.0,
        guard: Optional[Callable] = None,
    ) -> "PetriNet":
        """Convenience wrapper for :class:`ImmediateTransition`."""
        return self.add_transition(
            ImmediateTransition(name, priority=priority, weight=weight, guard=guard)
        )

    def add_timed_transition(
        self,
        name: str,
        distribution: Distribution,
        memory_policy: MemoryPolicy = MemoryPolicy.RESAMPLE,
        guard: Optional[Callable] = None,
    ) -> "PetriNet":
        """Convenience wrapper for :class:`TimedTransition`."""
        return self.add_transition(
            TimedTransition(name, distribution, memory_policy, guard)
        )

    def add_input_arc(
        self, place: str, transition: str, multiplicity: int = 1
    ) -> "PetriNet":
        """Arc place → transition (consumed on firing)."""
        self._check_nodes(place, transition)
        self._arcs.append(Arc(place, transition, ArcKind.INPUT, multiplicity))
        self._compiled = None
        return self

    def add_output_arc(
        self, transition: str, place: str, multiplicity: int = 1
    ) -> "PetriNet":
        """Arc transition → place (produced on firing)."""
        self._check_nodes(place, transition)
        self._arcs.append(Arc(place, transition, ArcKind.OUTPUT, multiplicity))
        self._compiled = None
        return self

    def add_inhibitor_arc(
        self, place: str, transition: str, multiplicity: int = 1
    ) -> "PetriNet":
        """Inhibitor arc: transition enabled only while tokens < multiplicity."""
        self._check_nodes(place, transition)
        self._arcs.append(Arc(place, transition, ArcKind.INHIBITOR, multiplicity))
        self._compiled = None
        return self

    def _check_nodes(self, place: str, transition: str) -> None:
        if place not in self._places:
            raise NetStructureError(f"unknown place {place!r}")
        if transition not in self._transitions:
            raise NetStructureError(f"unknown transition {transition!r}")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def places(self) -> List[Place]:
        return list(self._places.values())

    @property
    def place_names(self) -> List[str]:
        return list(self._places)

    @property
    def transitions(self) -> List[Transition]:
        return list(self._transitions.values())

    @property
    def transition_names(self) -> List[str]:
        return list(self._transitions)

    @property
    def arcs(self) -> List[Arc]:
        return list(self._arcs)

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise NetStructureError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise NetStructureError(f"unknown transition {name!r}") from None

    def initial_marking(self) -> Marking:
        return Marking(
            [p.initial for p in self._places.values()], self.place_names
        )

    # ------------------------------------------------------------------ #
    # validation & compilation
    # ------------------------------------------------------------------ #
    def validate(self) -> List[str]:
        """Return a list of structural issues (empty = clean).

        Checks: empty net, transitions without input arcs (token sources —
        legal but usually a modelling slip unless paired with an inhibitor
        or guard), transitions with no output arcs (token sinks), immediate
        transitions in zero-time cycles cannot be detected statically but
        self-loop immediates with no net marking change are flagged.
        """
        issues: List[str] = []
        if not self._places:
            issues.append("net has no places")
        if not self._transitions:
            issues.append("net has no transitions")
        by_transition: Dict[str, Dict[ArcKind, List[Arc]]] = {
            t: {k: [] for k in ArcKind} for t in self._transitions
        }
        for arc in self._arcs:
            by_transition[arc.transition][arc.kind].append(arc)
        for tname, groups in by_transition.items():
            t = self._transitions[tname]
            if not groups[ArcKind.INPUT] and not groups[ArcKind.INHIBITOR] \
                    and t.guard is None:
                issues.append(
                    f"transition {tname!r} has no input/inhibitor arcs or guard "
                    "(always enabled: it will fire forever)"
                )
            if t.is_immediate and not groups[ArcKind.INPUT]:
                issues.append(
                    f"immediate transition {tname!r} has no input arcs "
                    "(would fire in an infinite zero-time loop)"
                )
            inputs = {(a.place, a.multiplicity) for a in groups[ArcKind.INPUT]}
            outputs = {(a.place, a.multiplicity) for a in groups[ArcKind.OUTPUT]}
            if t.is_immediate and inputs and inputs == outputs:
                issues.append(
                    f"immediate transition {tname!r} does not change the marking "
                    "(zero-time livelock)"
                )
        return issues

    def check(self) -> None:
        """Raise :class:`NetStructureError` when :meth:`validate` finds issues."""
        issues = self.validate()
        if issues:
            raise NetStructureError("; ".join(issues))

    def compile(self) -> CompiledNet:
        """Build (and cache) the index-based view used by simulator/analysis."""
        if self._compiled is not None:
            return self._compiled
        place_names = self.place_names
        p_index = {name: i for i, name in enumerate(place_names)}
        transitions = self.transitions
        t_index = {t.name: i for i, t in enumerate(transitions)}

        n_t = len(transitions)
        inputs: List[List[Tuple[int, int]]] = [[] for _ in range(n_t)]
        outputs: List[List[Tuple[int, int]]] = [[] for _ in range(n_t)]
        inhibitors: List[List[Tuple[int, int]]] = [[] for _ in range(n_t)]
        for arc in self._arcs:
            ti = t_index[arc.transition]
            pi = p_index[arc.place]
            if arc.kind is ArcKind.INPUT:
                inputs[ti].append((pi, arc.multiplicity))
            elif arc.kind is ArcKind.OUTPUT:
                outputs[ti].append((pi, arc.multiplicity))
            else:
                inhibitors[ti].append((pi, arc.multiplicity))

        capacities = [
            -1 if p.capacity is None else p.capacity
            for p in self._places.values()
        ]
        capacity_checks: List[List[Tuple[int, int]]] = []
        deltas: List[Tuple[Tuple[int, int], ...]] = []
        for ti in range(n_t):
            delta: Dict[int, int] = {}
            for p, mult in inputs[ti]:
                delta[p] = delta.get(p, 0) - mult
            for p, mult in outputs[ti]:
                delta[p] = delta.get(p, 0) + mult
            deltas.append(tuple((p, d) for p, d in delta.items() if d))
            capacity_checks.append(
                [(p, d) for p, d in deltas[ti] if d > 0 and capacities[p] >= 0]
            )

        affected: List[List[int]] = [[] for _ in place_names]
        for ti in range(n_t):
            sensitive = (
                {p for p, _ in inputs[ti]}
                | {p for p, _ in inhibitors[ti]}
                | {p for p, _ in capacity_checks[ti]}
            )
            for p in sensitive:
                affected[p].append(ti)

        compiled = CompiledNet(
            place_names=place_names,
            initial_marking=np.array(
                [p.initial for p in self._places.values()], dtype=np.int64
            ),
            capacities=capacities,
            transitions=transitions,
            inputs=[tuple(x) for x in inputs],
            outputs=[tuple(x) for x in outputs],
            inhibitors=[tuple(x) for x in inhibitors],
            capacity_checks=[tuple(x) for x in capacity_checks],
            deltas=deltas,
            immediate_indices=[
                i for i, t in enumerate(transitions) if t.is_immediate
            ],
            timed_indices=[
                i for i, t in enumerate(transitions) if not t.is_immediate
            ],
            affected_by_place=affected,
            guarded_indices=[
                i for i, t in enumerate(transitions) if t.guard is not None
            ],
        )
        self._compiled = compiled
        return compiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, arcs={len(self._arcs)})"
        )
