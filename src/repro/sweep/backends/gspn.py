"""GSPN rate-rebinding backend: the original sweep path behind the protocol.

The template is a :class:`~repro.petri.ctmc_export.GSPNSolver` — one
reachability exploration, one vanishing-marking elimination, one sparse rate
template — and each grid point costs an ``O(nnz)`` re-assembly plus the
steady-state solve.  Sweep axes are the net's exponential transitions.

Steady-state metrics are the classic GSPN trio (``mean_tokens:<place>``,
``probability_positive:<place>``, ``throughput:<transition>``); the
transient family adds ``mean_tokens:<place>@t`` (expected token count at
time *t*) and ``accumulated_reward:<place>@t`` (token-seconds integrated
over ``[0, t]``), both from the net's initial marking.  Energy-flavoured
transient metrics need per-state power semantics a bare net does not have —
use the phase-type backend for those.

The chain's size picks the steady-state solver: dense LU up to
:data:`~repro.markov.ctmc.DENSE_MAX_STATES` states, GMRES above it.  The
per-point GMRES solves share one state ordering — the sparsity pattern is
rate-independent — and nothing else: each starts cold and builds its own
ILU preconditioner, so a row depends on its own point alone.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.markov.ctmc import resolve_steady_state_method
from repro.petri.analysis import ReachabilityOptions
from repro.petri.ctmc_export import GSPNSolution, GSPNSolver
from repro.petri.net import PetriNet
from repro.sweep.backends.base import MetricSpec, SweepBackend

__all__ = ["GSPNBackend", "evaluate_gspn_metric"]

_STEADY_KINDS = ("mean_tokens", "probability_positive", "throughput")


def evaluate_gspn_metric(solution: GSPNSolution, metric) -> float:
    """Evaluate one steady-state metric spec against a solved GSPN.

    Kept as a module-level function because it predates the backend
    protocol (``repro.sweep.evaluate_metric`` re-exports it).
    """
    if callable(metric):
        return float(metric(solution))
    kind, sep, arg = metric.partition(":")
    if not sep or kind not in _STEADY_KINDS or not arg:
        raise ValueError(
            f"metric spec must be '<kind>:<name>' with kind in "
            f"{_STEADY_KINDS}, got {metric!r}"
        )
    return float(getattr(solution, kind)(arg))


class GSPNBackend(SweepBackend):
    """Sweep an exponential-only Petri net via rate rebinding.

    Parameters
    ----------
    net : PetriNet
        Exponential-only net; explored once, eagerly (construction *is*
        the prepare step, so errors surface where the net is named).
    options : ReachabilityOptions
        Reachability exploration limits (``max_markings`` bounds the
        state-space exploration).
    """

    name = "gspn"
    steady_kinds = _STEADY_KINDS
    transient_kinds = ("mean_tokens", "accumulated_reward")

    def __init__(
        self,
        net: PetriNet,
        options: ReachabilityOptions = ReachabilityOptions(),
    ) -> None:
        self.solver = GSPNSolver(net, options)
        self._place_names = tuple(self.solver.markings[0].place_names)

    def _prepare(self) -> GSPNSolver:
        return self.solver

    def solve(self, point: Mapping[str, float]) -> GSPNSolution:
        return self.solver.solve(rates=point)

    def axis_names(self) -> List[str]:
        return self.solver.exponential_transitions

    @property
    def n_states(self) -> int:
        return self.solver.n

    @property
    def steady_method(self) -> str:
        """The steady-state solver a point solve runs."""
        return resolve_steady_state_method(self.solver.n)

    def describe(self) -> str:
        return (
            f"{self.solver.n} tangible markings, graph explored once, "
            f"{self.steady_method} steady state"
        )

    # ------------------------------------------------------------------ #
    def _steady_metric(self, solution: GSPNSolution, spec: MetricSpec) -> float:
        if spec.arg is None:
            raise ValueError(
                f"metric kind {spec.kind!r} needs an argument, e.g. "
                f"'{spec.kind}:<name>'"
            )
        return float(getattr(solution, spec.kind)(spec.arg))

    def _token_rewards(self, solution: GSPNSolution, place: str) -> np.ndarray:
        if place not in self._place_names:
            raise KeyError(
                f"unknown place {place!r} (have: {sorted(self._place_names)})"
            )
        return solution.columns.token_row(place)

    def _transient_metric(self, solution: GSPNSolution, spec: MetricSpec) -> float:
        if spec.arg is None:
            raise ValueError(
                f"transient metric kind {spec.kind!r} needs a place, e.g. "
                f"'{spec.kind}:<place>@{spec.at}'"
            )
        rewards = self._token_rewards(solution, spec.arg)
        assert spec.at is not None
        if spec.kind == "mean_tokens":
            pt = solution.ctmc.transient(solution.initial_distribution, spec.at)
            return float(pt @ rewards)
        # accumulated_reward: token-seconds over [0, t]
        return float(solution.accumulated_reward(rewards, spec.at))
