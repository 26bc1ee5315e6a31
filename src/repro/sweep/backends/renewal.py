"""Exact-renewal backend: closed-form steady state for cross-checks.

:class:`~repro.core.exact_renewal.ExactRenewalModel` solves the
deterministic-delay CPU model *exactly* — renewal-reward over regeneration
cycles, no truncation, no stage expansion, microseconds per point.  Behind
the backend protocol it becomes the sweep's ground truth: run the same grid
through ``phase-type`` and ``renewal`` and the difference *is* the Erlang
approximation error (it vanishes as ``stages`` grows — asserted in the
test suite).

The model is closed-form steady state only, so the transient metric family
is deliberately unsupported; asking for ``energy@t`` here raises a
``ValueError`` pointing at the phase-type backend.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core.exact_renewal import ExactRenewalModel, ExactSteadyState
from repro.core.params import CPUModelParams, STATE_NAMES
from repro.sweep.backends.base import (
    CPUParamsAxesMixin,
    MetricSpec,
    SweepBackend,
)

__all__ = ["RenewalBackend", "RenewalSweepSolution"]


class RenewalSweepSolution:
    """One closed-form point: the exact steady state plus its parameters."""

    def __init__(self, params: CPUModelParams, steady: ExactSteadyState) -> None:
        self.params = params
        self.steady = steady

    def fractions(self):
        return self.steady.fractions()

    def power_mw(self) -> float:
        return self.params.profile.average_power_mw(self.steady.fractions())


class RenewalBackend(CPUParamsAxesMixin, SweepBackend):
    """Sweep the exact renewal-reward solution (closed form, no template).

    Axes match the phase-type backend (``AR``/``SR``/``T``/``D`` and their
    long spellings), so the same :class:`~repro.sweep.grid.SweepGrid` can
    drive both and the result tables line up row for row.

    There is no state space and no linear solve — each point is a few
    scalar formulas; see ``docs/solvers.md`` for where the closed form
    wins over every matrix method.

    Parameters
    ----------
    params : CPUModelParams, optional
        Base parameters (defaults to the paper's); grid points override
        individual fields through the shared CPU axis aliases.
    """

    name = "renewal"
    steady_kinds = (
        "fraction",
        "power",
        "mean_cycle_length",
        "power_down_rate",
        "jobs_per_cycle",
    )
    transient_kinds = ()

    def __init__(self, params: Optional[CPUModelParams] = None) -> None:
        self.params = params if params is not None else CPUModelParams.paper_defaults()

    def _prepare(self) -> CPUModelParams:
        return self.params  # closed form: nothing to amortise

    def solve(self, point: Mapping[str, float]) -> RenewalSweepSolution:
        params = self._point_params(point)
        return RenewalSweepSolution(params, ExactRenewalModel(params).solve())

    def describe(self) -> str:
        return "closed-form renewal-reward model (no state space)"

    # ------------------------------------------------------------------ #
    def _steady_metric(
        self, solution: RenewalSweepSolution, spec: MetricSpec
    ) -> float:
        if spec.kind == "fraction":
            if spec.arg not in STATE_NAMES:
                raise ValueError(
                    f"fraction metric needs a state in {list(STATE_NAMES)}, "
                    f"got {spec.arg!r}"
                )
            return getattr(solution.fractions(), spec.arg)
        if spec.arg is not None:
            raise ValueError(f"metric kind {spec.kind!r} takes no ':' argument")
        if spec.kind == "power":
            return solution.power_mw()
        return getattr(solution.steady, spec.kind)

    def _transient_metric(self, solution: Any, spec: MetricSpec) -> float:
        raise ValueError(
            "the renewal backend is closed-form steady state only; "
            "transient metrics like "
            f"{spec.kind!r} need the phase-type backend"
        )
