"""The model-backend protocol behind :class:`~repro.sweep.runner.SweepRunner`.

A *sweep backend* packages one parameterised Markov model family so a sweep
can amortise everything rate-independent across a grid:

- :meth:`SweepBackend.prepare` builds the **template** — state space,
  sparsity pattern, absorption probabilities, whatever is expensive and
  does not depend on the swept values — exactly once (idempotent);
- :meth:`SweepBackend.solve` binds one grid point's values to the template
  and returns a solved model (the *solution*);
- :meth:`SweepBackend.evaluate` turns a solution plus a metric spec into a
  number — one result-table cell.

Metric specs are either callables ``solution -> float`` or compact strings
in a shared grammar::

    <kind>                  steady-state, no argument      e.g. power
    <kind>:<arg>            steady-state with an argument  e.g. fraction:idle
    <kind>@<t>              transient at horizon t         e.g. energy@5
    <kind>:<arg>@<t>        transient with an argument     e.g. fraction:idle@5
    time_to_threshold:<f>   transient settling time (no @)

Each backend declares the kinds it supports (``steady_kinds`` /
``transient_kinds``) and raises a ``ValueError`` naming them when handed
anything else, so CLI typos fail with the menu instead of a traceback.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "CPU_AXIS_ALIASES",
    "CPUParamsAxesMixin",
    "Metric",
    "MetricSpec",
    "SweepBackend",
    "metric_name",
    "parse_metric_spec",
    "resolve_cpu_axis",
]

Metric = Union[str, Callable[[Any], float]]

#: Accepted axis spellings for the CPU-parameter backends (phase-type and
#: exact-renewal), mapped to :class:`repro.core.params.CPUModelParams` fields.
CPU_AXIS_ALIASES: Dict[str, str] = {
    "arrival_rate": "arrival_rate",
    "AR": "arrival_rate",
    "lambda": "arrival_rate",
    "service_rate": "service_rate",
    "SR": "service_rate",
    "mu": "service_rate",
    "power_down_threshold": "power_down_threshold",
    "T": "power_down_threshold",
    "PDT": "power_down_threshold",
    "power_up_delay": "power_up_delay",
    "D": "power_up_delay",
    "PUT": "power_up_delay",
}


def resolve_cpu_axis(name: str) -> str:
    """Canonical ``CPUModelParams`` field for an axis name (or ``KeyError``)."""
    try:
        return CPU_AXIS_ALIASES[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a CPU model parameter (have: "
            f"{sorted(set(CPU_AXIS_ALIASES))})"
        ) from None


def metric_name(metric: Metric, index: int = 0) -> str:
    """Column name for *metric* in result tables."""
    if isinstance(metric, str):
        return metric
    return getattr(metric, "__name__", None) or f"metric{index}"


@dataclass(frozen=True)
class MetricSpec:
    """One parsed string metric: ``kind[:arg][@at]``."""

    kind: str
    arg: Optional[str]
    at: Optional[float]  # transient horizon; None for steady-state kinds

    @property
    def is_transient(self) -> bool:
        return self.at is not None or self.kind == "time_to_threshold"


@functools.lru_cache(maxsize=256)
def parse_metric_spec(spec: str) -> MetricSpec:
    """Parse a compact metric string (see module docstring for the grammar).

    Memoised: a sweep evaluates the same few specs once per cell.  A spec
    that fails to parse is not cached and raises on every call.
    """
    head, at_sep, tail = spec.rpartition("@")
    if at_sep:
        try:
            at: Optional[float] = float(tail)
        except ValueError:
            raise ValueError(
                f"metric {spec!r}: horizon {tail!r} after '@' must be a number"
            ) from None
        if at < 0.0:
            raise ValueError(f"metric {spec!r}: horizon must be >= 0")
    else:
        head, at = spec, None
    kind, colon, arg = head.partition(":")
    if not kind:
        raise ValueError(f"metric {spec!r}: missing metric kind before ':'")
    if colon and not arg:
        raise ValueError(f"metric {spec!r}: missing argument after ':'")
    return MetricSpec(kind=kind, arg=arg if colon else None, at=at)


class CPUParamsAxesMixin:
    """Axis handling shared by backends parameterised by ``CPUModelParams``.

    Subclasses set ``self.params`` (the base parameters); grid points
    override individual fields through the :data:`CPU_AXIS_ALIASES`
    spellings.  Two axes that alias the *same* field (e.g. ``T`` and
    ``PDT``) are rejected — accepting both would silently drop one.
    """

    params: Any  # CPUModelParams; typed loosely to keep base core-free

    def axis_names(self) -> List[str]:
        return sorted(CPU_AXIS_ALIASES)

    def check_axes(self, names: Iterable[str]) -> None:
        seen: Dict[str, str] = {}
        for name in names:
            canonical = resolve_cpu_axis(name)
            if canonical in seen:
                raise ValueError(
                    f"axes {seen[canonical]!r} and {name!r} both set the "
                    f"CPU parameter {canonical!r}; sweep it under one name"
                )
            seen[canonical] = name

    def _point_params(self, point: Mapping[str, float]) -> Any:
        """Base parameters with one grid point's overrides applied."""
        self.check_axes(point)
        overrides = {resolve_cpu_axis(k): float(v) for k, v in point.items()}
        return replace(self.params, **overrides)


class SweepBackend(abc.ABC):
    """One parameterised model family the sweep runner can drive.

    Subclasses set ``name``, ``steady_kinds`` and ``transient_kinds`` and
    implement the template/solve/metric hooks.  Instances must stay
    picklable (the runner ships them to worker processes once per pool);
    keep any unpicklable per-solve state on the solution objects.  A
    point's solve must depend on that point alone — serial, pool,
    distributed and service runs partition a grid differently and must
    return the same rows.

    Attributes
    ----------
    name : str
        Registry name, e.g. ``"gspn"`` (what the CLI's ``--model`` takes).
    steady_kinds : tuple of str
        Steady-state metric kinds :meth:`evaluate` accepts.
    transient_kinds : tuple of str
        Transient metric kinds (evaluated with an ``@t`` horizon).

    Notes
    -----
    The lifecycle is: :meth:`prepare` builds the rate-independent
    *template* exactly once (idempotent — state space, sparsity pattern,
    symbolic factorisation analysis); :meth:`solve` binds one grid
    point's values to the template and returns a *solution*;
    :meth:`evaluate` turns a solution plus a metric spec into one
    result-table cell.  The ``gspn`` backend, whose chains have no
    structure to exploit, solves by dense LU or GMRES by chain size (see
    ``docs/solvers.md``); the phase-type backend always runs its exact
    level recursion.
    """

    #: registry name, e.g. ``"gspn"``
    name: str = "?"
    #: supported steady-state metric kinds
    steady_kinds: Tuple[str, ...] = ()
    #: supported transient metric kinds (evaluated with an ``@t`` horizon)
    transient_kinds: Tuple[str, ...] = ()
    #: backends that can solve many grid points in one stacked operation
    #: set this ``True`` and implement :meth:`solve_batch` /
    #: :meth:`resolve_batch_size`; every execution path then feeds them
    #: whole spans of the grid instead of single points — serial and pool
    #: directly, the distributed workers as batched ``rows`` wire frames
    #: (protocol v2), and the service by stacking coalesced requests
    batch_capable: bool = False

    _template: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # template lifecycle
    # ------------------------------------------------------------------ #
    def prepare(self) -> Any:
        """Build (once) and return the rate-independent template."""
        if self._template is None:
            self._template = self._prepare()
        return self._template

    @property
    def template(self) -> Any:
        return self.prepare()

    @abc.abstractmethod
    def _prepare(self) -> Any:
        """Construct the template (called at most once)."""

    # ------------------------------------------------------------------ #
    # per-point work
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def solve(self, point: Mapping[str, float]) -> Any:
        """Bind one grid point to the template and solve it."""

    def resolve_batch_size(self, n_points: int) -> int:
        """Points per stacked solve for an *n_points* sweep (batch
        protocol; meaningful only when ``batch_capable``).  The default
        — one — makes the runner fall back to pointwise :meth:`solve`.
        """
        return 1

    def solve_batch(self, points: List[Mapping[str, float]]) -> List[Any]:
        """Solve many grid points in one stacked operation (batch
        protocol).

        Returns a list aligned with *points* whose entries are either a
        solution object (as :meth:`solve` would return) or the
        *exception* that felled that point — batching must preserve the
        runner's per-point failure isolation, so numerical failures are
        recorded in place rather than raised.  Configuration errors
        (unknown axes, malformed specs) still raise: they would fail on
        every point.  Only called when ``batch_capable`` is ``True``.
        """
        raise NotImplementedError(
            f"the {self.name} backend does not batch solves"
        )

    # ------------------------------------------------------------------ #
    # axes
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def axis_names(self) -> List[str]:
        """Axis names :meth:`solve` accepts in its point mapping."""

    def check_axes(self, names: Iterable[str]) -> None:
        """Raise ``KeyError`` naming any axis this backend cannot sweep."""
        known = set(self.axis_names())
        unknown = [n for n in names if n not in known]
        if unknown:
            raise KeyError(
                f"grid axes {unknown} are not sweepable by the {self.name} "
                f"backend (have: {sorted(known)})"
            )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def evaluate(self, solution: Any, metric: Metric) -> float:
        """Evaluate one metric (callable or compact string) on a solution."""
        if callable(metric):
            return float(metric(solution))
        spec = parse_metric_spec(metric)
        if spec.is_transient:
            if self.transient_kinds and spec.kind not in self.transient_kinds:
                raise ValueError(
                    f"metric {metric!r}: the {self.name} backend supports "
                    f"transient kinds {list(self.transient_kinds)} and "
                    f"steady kinds {list(self.steady_kinds)}"
                )
            # backends without transient kinds raise their own pointer at
            # a backend that has them
            return float(self._transient_metric(solution, spec))
        if spec.kind not in self.steady_kinds:
            raise ValueError(
                f"metric {metric!r}: the {self.name} backend supports "
                f"steady kinds {list(self.steady_kinds)} and transient "
                f"kinds {list(self.transient_kinds)}"
            )
        return float(self._steady_metric(solution, spec))

    @abc.abstractmethod
    def _steady_metric(self, solution: Any, spec: MetricSpec) -> float:
        """Evaluate one steady-state metric kind."""

    def _transient_metric(self, solution: Any, spec: MetricSpec) -> float:
        raise ValueError(
            f"the {self.name} backend has no transient metrics"
        )  # pragma: no cover - overridden where transient_kinds is non-empty

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line template summary for CLI footers."""
        return f"{self.name} backend"
