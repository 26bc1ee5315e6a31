"""Markov-model substrate: CTMC numerics and queueing closed forms.

This package supplies the analytical half of the paper's comparison:

- :mod:`repro.markov.ctmc` — continuous-time Markov chains: generator
  matrices, steady-state solution, transient solution by uniformization,
  mean-reward evaluation.
- :mod:`repro.markov.birth_death` — birth–death chains (the skeleton of the
  paper's Figure 2) with both numerical and closed-form solutions.
- :mod:`repro.markov.queueing` — textbook queueing formulas (M/M/1, M/M/1/K,
  M/M/c, M/G/1, M/D/1, Little's law) used as ground truth in tests.
- :mod:`repro.markov.stationary` — what every steady-state solver
  shares (:class:`NumericalSolveError`, normalisation of a raw solve) on
  numpy alone.

Importing the package does not import scipy: the names defined in
:mod:`repro.markov.ctmc` and :mod:`repro.markov.birth_death` are resolved
on first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.markov.queueing import (
    MachineRepairQueue,
    MD1Queue,
    MG1Queue,
    MM1Queue,
    MM1KQueue,
    MMcQueue,
    little_l,
    little_w,
)
from repro.markov.stationary import NumericalSolveError

__all__ = [
    "BirthDeathChain",
    "CTMC",
    "ConvergenceError",
    "MachineRepairQueue",
    "MD1Queue",
    "MG1Queue",
    "MM1KQueue",
    "MM1Queue",
    "MMcQueue",
    "NumericalSolveError",
    "gmres_steady_state",
    "little_l",
    "little_w",
    "resolve_steady_state_method",
]

if TYPE_CHECKING:
    from repro.markov.birth_death import BirthDeathChain
    from repro.markov.ctmc import (
        CTMC,
        ConvergenceError,
        gmres_steady_state,
        resolve_steady_state_method,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.markov.birth_death": ("BirthDeathChain",),
    "repro.markov.ctmc": (
        "CTMC",
        "ConvergenceError",
        "gmres_steady_state",
        "resolve_steady_state_method",
    ),
})
