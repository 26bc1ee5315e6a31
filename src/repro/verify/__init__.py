"""Structural verification & model lint: diagnose nets *before* you pay
for state spaces.

The subsystem has three layers:

- **structural analyzers** (:mod:`repro.petri.structural`,
  :mod:`repro.petri.invariants`) — pure incidence-matrix/graph work:
  minimal siphons and traps, Commoner's deadlock-freedom condition,
  P-invariant boundedness, dead transitions, immediate-conflict
  detection.  Milliseconds at any state-space size;
- **chain-level preflight** (:mod:`repro.verify.chain`) — when a
  reachability template already exists, one strongly-connected-component
  pass classifies absorbing/transient structure and names the offending
  markings;
- **the lint driver** (:mod:`repro.verify.lint`,
  :mod:`repro.verify.diagnostics`) — typed :class:`Diagnostic` records
  with stable ``PN0xx``/``CH0xx``/``SW0xx`` codes, a
  :func:`lint_net` API and CLI (``repro-experiments lint``), and
  :func:`preflight_sweep`, which :class:`~repro.sweep.runner.SweepRunner`
  runs before solving or fanning out a grid.

See ``docs/verification.md`` for the code catalogue and examples.

Importing the package does not import scipy: the names defined in
:mod:`repro.verify.chain` and :mod:`repro.verify.lint` are resolved on
first access.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.verify.diagnostics import (
    CODES,
    LINT_LEVELS,
    Diagnostic,
    LintReport,
    PreflightError,
    Severity,
)

__all__ = [
    "CODES",
    "ChainClassification",
    "Diagnostic",
    "LINT_LEVELS",
    "LintReport",
    "PreflightError",
    "Severity",
    "chain_diagnostics",
    "classify_states",
    "lint_net",
    "preflight_sweep",
    "raise_on_errors",
]

if TYPE_CHECKING:
    from repro.verify.chain import (
        ChainClassification,
        chain_diagnostics,
        classify_states,
    )
    from repro.verify.lint import lint_net, preflight_sweep, raise_on_errors

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.verify.chain": (
        "ChainClassification",
        "chain_diagnostics",
        "classify_states",
    ),
    "repro.verify.lint": ("lint_net", "preflight_sweep", "raise_on_errors"),
})
