"""Transitions: immediate and timed, with memory policies.

The paper's Table 1 uses exactly this taxonomy:

=============  ===================  =====================================
Transition     Firing distribution  Here
=============  ===================  =====================================
``AR``         exponential          ``TimedTransition(Exponential(λ))``
``T1``/``T2``  instantaneous        ``ImmediateTransition(priority=…)``
``SR``         exponential          ``TimedTransition(Exponential(μ))``
``PDT``        deterministic        ``TimedTransition(Deterministic(T))``
``PUT``        deterministic        ``TimedTransition(Deterministic(D))``
=============  ===================  =====================================

Memory policies
---------------
When a timed transition is disabled by another firing before its own timer
expires, three semantics are standard in the DSPN literature:

- :attr:`MemoryPolicy.RESAMPLE` (preemptive-repeat-different, **default**):
  the timer is discarded; a fresh delay is drawn on the next enabling.  For
  a deterministic transition this means "the full delay must elapse with
  the transition *continuously* enabled" — exactly the paper's Power Down
  Threshold semantics (the idle clock restarts whenever a job arrives).
- :attr:`MemoryPolicy.AGE` (preemptive-resume): the remaining time is
  frozen while disabled and resumes on re-enabling.
- :attr:`MemoryPolicy.IDENTICAL` (preemptive-repeat-identical): the timer
  restarts from zero but re-uses the originally sampled value.

A transition that *stays* enabled across someone else's firing keeps its
timer running untouched under every policy, and a transition that fires
always draws a fresh delay for its next enabling cycle.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.des.distributions import Distribution, Exponential

__all__ = ["MemoryPolicy", "Transition", "ImmediateTransition", "TimedTransition"]

Guard = Callable[["object"], bool]  # receives an integer-indexable token vector


class MemoryPolicy(enum.Enum):
    """What happens to a running timer when its transition is disabled."""

    RESAMPLE = "resample"  # preemptive repeat different (PRD)
    AGE = "age"  # preemptive resume (PRS)
    IDENTICAL = "identical"  # preemptive repeat identical (PRI)


class Transition:
    """Common base: name plus an optional marking guard.

    Guards receive an integer-indexable token vector (indexed by place
    index; index it, do not rely on array methods) and must be side-effect
    free.  A transition with a guard is re-evaluated on every marking
    change, so guards should be cheap.
    """

    __slots__ = ("name", "guard")

    def __init__(self, name: str, guard: Optional[Guard] = None) -> None:
        if not name:
            raise ValueError("transition name must be non-empty")
        self.name = name
        self.guard = guard

    @property
    def is_immediate(self) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ImmediateTransition(Transition):
    """Fires in zero time as soon as enabled.

    Parameters
    ----------
    priority:
        Higher fires first; among enabled immediates only the maximal
        priority group competes.  The paper's Table 1 assigns T1 the highest
        priority (4) so a fresh arrival is dispatched before anything else.
    weight:
        Relative probability within an equal-priority conflict set.
    """

    __slots__ = ("priority", "weight")

    def __init__(
        self,
        name: str,
        priority: int = 1,
        weight: float = 1.0,
        guard: Optional[Guard] = None,
    ) -> None:
        super().__init__(name, guard)
        if weight <= 0.0:
            raise ValueError(f"weight must be > 0, got {weight}")
        self.priority = int(priority)
        self.weight = float(weight)

    @property
    def is_immediate(self) -> bool:
        return True


class TimedTransition(Transition):
    """Fires after a random (or constant) enabling delay.

    Parameters
    ----------
    distribution:
        Delay distribution.  ``Exponential`` gives a classic SPN transition;
        ``Deterministic`` the DSPN transitions of the paper; any other
        :class:`~repro.des.distributions.Distribution` is allowed (that is
        the "Extended" in EDSPN).
    memory_policy:
        See :class:`MemoryPolicy`.  Irrelevant for exponential transitions
        (memorylessness makes all three identical in law).
    """

    __slots__ = ("distribution", "memory_policy")

    def __init__(
        self,
        name: str,
        distribution: Distribution,
        memory_policy: MemoryPolicy = MemoryPolicy.RESAMPLE,
        guard: Optional[Guard] = None,
    ) -> None:
        super().__init__(name, guard)
        if not isinstance(distribution, Distribution):
            raise TypeError(
                f"distribution must be a Distribution, got {distribution!r}"
            )
        if distribution.is_immediate():
            raise ValueError(
                f"timed transition {name!r} has a zero delay; "
                "use ImmediateTransition instead"
            )
        if not isinstance(memory_policy, MemoryPolicy):
            raise TypeError(f"memory_policy must be a MemoryPolicy")
        self.distribution = distribution
        self.memory_policy = memory_policy

    @property
    def is_immediate(self) -> bool:
        return False

    @property
    def is_exponential(self) -> bool:
        return isinstance(self.distribution, Exponential)

    @property
    def rate(self) -> float:
        """Firing rate, defined only for exponential transitions."""
        if not self.is_exponential:
            raise AttributeError(
                f"transition {self.name!r} is not exponential"
            )
        return self.distribution.rate  # type: ignore[attr-defined]
