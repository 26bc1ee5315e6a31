"""What every steady-state solver shares, on numpy alone.

The error a numerically failed solve raises, and the
validation/normalisation of a raw stationary vector.  The CTMC solvers
in :mod:`repro.markov.ctmc` (scipy-backed) and the phase-type level
recursion in :mod:`repro.core.phase_type` (numpy only) both use them, so
they live here, where importing them does not import scipy.
:mod:`repro.markov.ctmc` re-exports every name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NumericalSolveError"]


class NumericalSolveError(ValueError):
    """A steady-state solve failed *numerically*.

    Raised for singular systems (reducible chains), non-finite or
    negative solution entries, and failed normalisations.  Subclasses
    ``ValueError`` for backward compatibility, but gives callers a type
    to distinguish a chain that cannot be solved from an API misuse —
    the sweep runner treats the former as one bad grid point (NaN row)
    and the latter as a configuration error that aborts the sweep.
    """


#: An entry below ``-NEGATIVE_RTOL * max(pi)`` is a true negative, not
#: round-off: the solve is rejected.
NEGATIVE_RTOL = 1e-9


def _finalize_pi(pi: np.ndarray) -> np.ndarray:
    """Validate and normalise a raw steady-state solve result.

    Negative round-off is clipped to zero; every positive entry is kept,
    however small, so the tail of a long chain still counts.  An entry
    more negative than ``NEGATIVE_RTOL`` times the largest one is
    rejected.
    """
    if not np.all(np.isfinite(pi)):
        raise NumericalSolveError(
            "steady-state solve produced non-finite entries"
        )
    if np.any(pi < -NEGATIVE_RTOL * pi.max()):
        raise NumericalSolveError(
            "steady-state solve produced negative probabilities; "
            "the chain is likely reducible"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not math.isfinite(total) or total <= 0.0:
        raise NumericalSolveError("steady-state normalisation failed")
    return pi / total
