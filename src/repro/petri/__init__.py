"""Extended Deterministic and Stochastic Petri Net (EDSPN) engine.

This package is the library's stand-in for TimeNET 4.0, the closed-source
tool the paper used to build and simulate its CPU model.  It implements the
subset of EDSPN semantics the paper relies on — and enough more to be a
generally useful modelling tool:

- **places** with initial tokens and optional capacity,
- **immediate transitions** with priorities and weights (vanishing markings
  are fired in zero time, highest priority first, weighted-random among
  equal priorities),
- **timed transitions** with exponential, deterministic, or general firing
  distributions and per-transition *memory policies* (resample / age /
  identical-repeat) governing what happens to a timer when the transition is
  disabled before firing,
- **input, output and inhibitor arcs** with integer multiplicities (the
  paper's Figure 3 uses inhibitor arcs — "the small circle at the ends of
  the arcs" — to detect an empty buffer),
- optional marking-dependent **guards**,
- an event-driven **token-game simulator** with time-averaged token
  statistics (the paper's "average number of tokens in a place" = steady
  state percentage),
- **reachability analysis** with vanishing-marking elimination, structural
  diagnostics, and **CTMC export** for exponential-only nets so small GSPNs
  can be solved exactly and used to validate the simulator.

Quick example (the paper's Figure 1 — two places, one transition)::

    from repro.petri import PetriNet
    from repro.des import Exponential

    net = PetriNet("figure1")
    net.add_place("P0", initial=1)
    net.add_place("P1")
    net.add_timed_transition("T0", Exponential(rate=1.0))
    net.add_input_arc("P0", "T0")
    net.add_output_arc("T0", "P1")

    from repro.petri import PetriNetSimulator
    sim = PetriNetSimulator(net, seed=1)
    result = sim.run(horizon=100.0)
    result.mean_tokens("P1")   # -> approaches 1.0

Importing the package does not import scipy: the token game and the
structural analyzers never need it.  The reachability and CTMC export
names (``ReachabilityGraph``, ``ReachabilityOptions``,
``explore_reachability``, ``GSPNSolution``, ``GSPNSolver``,
``ctmc_from_net``) are resolved on first access, which imports
:mod:`repro.petri.analysis` or :mod:`repro.petri.ctmc_export`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.petri.arcs import Arc, ArcKind
from repro.petri.dot_export import to_dot
from repro.petri.invariants import (
    InvariantSearchResult,
    incidence_matrix,
    invariant_report,
    p_invariants,
    p_invariants_detailed,
    t_invariants,
    t_invariants_detailed,
    verify_p_invariant,
)
from repro.petri.marking import Marking
from repro.petri.net import NetStructureError, PetriNet, Place
from repro.petri.simulator import PetriNetSimulator, SimulationResult
from repro.petri.structural import (
    CommonerResult,
    ConflictSet,
    SiphonSearchResult,
    commoner_check,
    immediate_conflicts,
    maximal_trap_within,
    minimal_siphons,
    minimal_traps,
    structural_bounds,
    structurally_dead_transitions,
)
from repro.petri.transitions import (
    ImmediateTransition,
    MemoryPolicy,
    TimedTransition,
    Transition,
)

__all__ = [
    "Arc",
    "ArcKind",
    "CommonerResult",
    "ConflictSet",
    "GSPNSolution",
    "GSPNSolver",
    "ImmediateTransition",
    "InvariantSearchResult",
    "Marking",
    "MemoryPolicy",
    "NetStructureError",
    "PetriNet",
    "PetriNetSimulator",
    "Place",
    "ReachabilityGraph",
    "ReachabilityOptions",
    "SimulationResult",
    "SiphonSearchResult",
    "TimedTransition",
    "Transition",
    "commoner_check",
    "ctmc_from_net",
    "explore_reachability",
    "immediate_conflicts",
    "incidence_matrix",
    "invariant_report",
    "maximal_trap_within",
    "minimal_siphons",
    "minimal_traps",
    "p_invariants",
    "p_invariants_detailed",
    "structural_bounds",
    "structurally_dead_transitions",
    "t_invariants",
    "t_invariants_detailed",
    "to_dot",
    "verify_p_invariant",
]

if TYPE_CHECKING:
    from repro.petri.analysis import (
        ReachabilityGraph,
        ReachabilityOptions,
        explore_reachability,
    )
    from repro.petri.ctmc_export import GSPNSolution, GSPNSolver, ctmc_from_net

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.petri.analysis": (
        "ReachabilityGraph",
        "ReachabilityOptions",
        "explore_reachability",
    ),
    "repro.petri.ctmc_export": ("GSPNSolution", "GSPNSolver", "ctmc_from_net"),
})
