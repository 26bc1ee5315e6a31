"""Typed diagnostics: the currency of the verification subsystem.

Every analyzer in :mod:`repro.verify` reports through
:class:`Diagnostic` records with **stable codes**, so tooling (CI greps,
``--strict`` gates, tests) can match on ``d.code`` instead of message
text:

- ``PN0xx`` — structural net diagnostics (incidence-matrix / graph work,
  no state space);
- ``CH0xx`` — chain-level diagnostics (tangible reachability graph / CTMC
  communicating-class analysis);
- ``SW0xx`` — sweep-configuration diagnostics (grids, metrics, backend
  truncation knobs).

The full catalogue lives in :data:`CODES` and is documented for humans in
``docs/verification.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence


__all__ = [
    "CODES",
    "Diagnostic",
    "LINT_LEVELS",
    "LintReport",
    "PreflightError",
    "Severity",
]

#: Recognised lint levels of :func:`repro.verify.lint.lint_net`, cheapest
#: first (defined here, where the CLI reads them without importing scipy).
LINT_LEVELS = ("quick", "standard", "deep")


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst.

    ``INFO`` qualifies or annotates (never fails a lint run); ``WARNING``
    flags probable modelling mistakes and unproven properties (fails only
    under ``--strict``); ``ERROR`` marks nets/configurations that cannot
    produce meaningful results (fails always, and aborts sweep preflight).
    """

    INFO = 0
    WARNING = 1
    ERROR = 2


#: Stable diagnostic-code catalogue: code -> one-line meaning.  Codes are
#: append-only; retired codes are never reused.
CODES: Dict[str, str] = {
    "PN001": "malformed structure (zero-time livelock, unbounded source)",
    "PN002": "place not provably bounded (no P-invariant cover, no capacity)",
    "PN003": "structural note (token sink, capacity-bounded source)",
    "PN004": "minimal siphon without an initially marked trap (deadlock risk)",
    "PN005": "state-space exploration incomplete (truncated at max_markings)",
    "PN006": "invariant search truncated (budget hit; family may be partial)",
    "PN007": "equal-priority immediate conflict with all-default weights",
    "PN008": "non-free-choice immediate conflict (confusion risk)",
    "PN009": "dead transition (never fires)",
    "PN010": "proof qualification (inhibitors/guards/capacities/arc weights)",
    "CH001": "reachable dead marking (absorbing deadlock state)",
    "CH002": "multiple closed communicating classes (no unique steady state)",
    "CH003": "transient markings present (chain leaves them forever)",
    "SW001": "sweep grid value unusable (non-positive or non-finite rate)",
    "SW002": "phase-type truncation unmonitored (truncation_mass not swept)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One verification finding.

    Attributes
    ----------
    code:
        Stable identifier from :data:`CODES` (``PN0xx``/``CH0xx``/``SW0xx``).
    severity:
        :class:`Severity` of the finding.
    subject:
        The net element or configuration item the finding is about — a
        place, transition, marking repr, axis name, or ``"net"``.
    message:
        Human-readable statement of the problem.
    fix_hint:
        Actionable next step (may be empty).
    """

    code: str
    severity: Severity
    subject: str
    message: str
    fix_hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(
                f"unknown diagnostic code {self.code!r} "
                f"(catalogue: {sorted(CODES)})"
            )

    def render(self) -> str:
        """One display line: ``CODE severity subject: message (hint)``."""
        hint = f"  [{self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.code} {self.severity.name.lower():7s} "
            f"{self.subject}: {self.message}{hint}"
        )


@dataclass
class LintReport:
    """The outcome of a lint or preflight pass.

    Attributes
    ----------
    diagnostics:
        Findings, worst first (sorted on access by severity then code).
    facts:
        Positive statements the analyzers *proved* (bounds, invariants,
        deadlock freedom) — rendered above the findings so a clean run
        still says what was verified rather than printing nothing.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    facts: List[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.diagnostics)

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), d.code, d.subject)
        )

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.sorted() if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """No errors (warnings and infos allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def extend(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def render(self, title: str = "lint report") -> str:
        """Multi-line human-readable report."""
        lines = [title, "-" * len(title)]
        for fact in self.facts:
            lines.append(f"proved  {fact}")
        if self.facts and self.diagnostics:
            lines.append("")
        for d in self.sorted():
            lines.append(d.render())
        if not self.diagnostics:
            lines.append("no findings")
        n_e, n_w, n_i = len(self.errors), len(self.warnings), len(self.infos)
        lines.append("")
        lines.append(
            f"{n_e} error(s), {n_w} warning(s), {n_i} note(s)"
        )
        return "\n".join(lines)


class PreflightError(ValueError):
    """A sweep was aborted by its verification preflight.

    Subclasses ``ValueError`` so existing CLI error handling (``error:
    ... exit 2``) and caller ``except`` clauses catch it without change.
    Carries the full :class:`LintReport` as :attr:`report`; the message
    summarises the error-severity findings.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        errors = report.errors
        detail = "; ".join(
            f"{d.code} {d.subject}: {d.message}" for d in errors[:3]
        )
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"sweep preflight failed with {len(errors)} error(s): "
            f"{detail}{more} — fix the model or pass preflight=False "
            f"(--no-preflight) to run anyway"
        )
