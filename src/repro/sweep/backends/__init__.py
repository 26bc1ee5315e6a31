"""Model backends for the sweep runner.

Any parameterised Markov model family can ride the batched sweep path by
implementing :class:`~repro.sweep.backends.base.SweepBackend` — build the
rate-independent template once (``prepare``), bind a grid point per solve
(``solve``), map metric specs to numbers (``evaluate``).  Three backends
ship:

============  ========================================================
``gspn``      exponential-only Petri nets via ``GSPNSolver`` rate
              rebinding (the original sweep path, now behind the
              protocol)
``phase-type``  the deterministic-delay CPU model, stage-expanded into
              a CTMC solved exactly by a level recursion (no linear
              solve), run over whole spans of the grid in one
              vectorised call — Figure 4/5-style threshold/delay
              sweeps; see ``docs/batched.md``
``renewal``   the exact renewal-reward closed form, for ground-truth
              cross-checks of the other two
============  ========================================================

Importing the package does not import scipy: the ``gspn`` and
``phase-type`` backends (and their solution types) are resolved on first
access, which imports their modules then.
"""

from typing import TYPE_CHECKING, Any

from repro._lazy import lazy_exports
from repro.sweep.backends.base import (
    CPU_AXIS_ALIASES,
    CPUParamsAxesMixin,
    Metric,
    MetricSpec,
    SweepBackend,
    metric_name,
    parse_metric_spec,
    resolve_cpu_axis,
)
from repro.sweep.backends.renewal import RenewalBackend, RenewalSweepSolution

__all__ = [
    "BACKEND_NAMES",
    "BatchedPhaseTypeBackend",
    "CPU_AXIS_ALIASES",
    "CPUParamsAxesMixin",
    "GSPNBackend",
    "Metric",
    "MetricSpec",
    "PhaseTypeBackend",
    "PhaseTypeSweepSolution",
    "PhaseTypeTemplate",
    "RenewalBackend",
    "RenewalSweepSolution",
    "SweepBackend",
    "evaluate_gspn_metric",
    "make_backend",
    "metric_name",
    "parse_metric_spec",
    "resolve_cpu_axis",
]

if TYPE_CHECKING:
    from repro.sweep.backends.gspn import GSPNBackend, evaluate_gspn_metric
    from repro.sweep.backends.phase_type import (
        BatchedPhaseTypeBackend,
        PhaseTypeBackend,
        PhaseTypeSweepSolution,
        PhaseTypeTemplate,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sweep.backends.gspn": ("GSPNBackend", "evaluate_gspn_metric"),
    "repro.sweep.backends.phase_type": (
        "BatchedPhaseTypeBackend",
        "PhaseTypeBackend",
        "PhaseTypeSweepSolution",
        "PhaseTypeTemplate",
    ),
})

#: CLI-facing registry; ``gspn`` needs a net, the CPU backends take params.
BACKEND_NAMES = ("gspn", "phase-type", "renewal")


def make_backend(name: str, **kwargs: Any) -> SweepBackend:
    """Instantiate a backend by registry name.

    ``make_backend("gspn", net=..., ...)`` /
    ``make_backend("phase-type", params=..., stages=...)`` /
    ``make_backend("renewal", params=...)``.
    """
    if name == "gspn":
        from repro.sweep.backends import gspn

        return gspn.GSPNBackend(**kwargs)
    if name in ("phase-type", "phase-type-batched"):
        from repro.sweep.backends import phase_type

        return phase_type.PhaseTypeBackend(**kwargs)
    if name == "renewal":
        return RenewalBackend(**kwargs)
    raise KeyError(f"unknown backend {name!r} (have: {list(BACKEND_NAMES)})")
