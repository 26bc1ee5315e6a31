"""The lint driver: run analyzers, collect diagnostics, gate sweeps.

Two entry points:

- :func:`lint_net` — lint one net at a chosen *level*:

  - ``"quick"`` — incidence-matrix work only: malformed structure
    (PN001/PN003), structural boundedness via P-invariant coverage and
    capacities (PN002/PN006), immediate-conflict hygiene (PN007/PN008),
    structurally dead transitions (PN009);
  - ``"standard"`` (default) — adds the siphon/trap deadlock-freedom
    check (PN004) and the proof-qualification notes (PN010).  Still
    **zero reachability exploration** — milliseconds at any marking
    count;
  - ``"deep"`` — additionally explores the state space (bounded by
    *max_markings*) and classifies the chain: dead markings (CH001),
    closed communicating classes (CH002/CH003), behaviourally dead
    transitions (PN009, exact), truncation (PN005).

- :func:`preflight_sweep` — the gate :class:`repro.sweep.SweepRunner`
  runs before solving (or fanning out) a grid.  For GSPN backends the
  reachability template already exists, so the chain-level checks are
  *free*; grid values are vetted (SW001) and the phase-type truncation
  knob is cross-referenced (SW002).  Error-severity findings abort the
  sweep via :class:`~repro.verify.diagnostics.PreflightError` before any
  point is solved or any worker receives a template.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.petri.analysis import ReachabilityOptions, explore_reachability
from repro.petri.invariants import p_invariants_detailed
from repro.petri.net import PetriNet
from repro.petri.structural import (
    commoner_check,
    immediate_conflicts,
    structurally_dead_transitions,
    _skeleton_qualifications,
)
from repro.verify.chain import chain_diagnostics, classify_states
from repro.verify.diagnostics import (
    LINT_LEVELS,
    Diagnostic,
    LintReport,
    PreflightError,
    Severity,
)

__all__ = [
    "LINT_LEVELS",
    "lint_net",
    "preflight_sweep",
]

#: Exploration cap of the deep level (deliberately below the solver
#: default: lint should stay interactive even on a mis-modelled net).
DEEP_MAX_MARKINGS = 50_000


# --------------------------------------------------------------------- #
# structural passes
# --------------------------------------------------------------------- #
def _structure_diagnostics(net: PetriNet) -> List[Diagnostic]:
    """PN001 (malformed) / PN003 (notes) from the raw arc structure."""
    diags: List[Diagnostic] = []
    compiled = net.compile()
    if not compiled.place_names or not compiled.transitions:
        diags.append(
            Diagnostic(
                code="PN001",
                severity=Severity.ERROR,
                subject="net",
                message="net has no places or no transitions",
                fix_hint="a model needs at least one of each",
            )
        )
        return diags
    for ti, trans in enumerate(compiled.transitions):
        inputs = compiled.inputs[ti]
        outputs = compiled.outputs[ti]
        unconstrained = (
            not inputs
            and not compiled.inhibitors[ti]
            and trans.guard is None
        )
        if trans.is_immediate and not inputs:
            diags.append(
                Diagnostic(
                    code="PN001",
                    severity=Severity.ERROR,
                    subject=trans.name,
                    message=(
                        "immediate transition without input arcs fires in "
                        "an infinite zero-time loop"
                    ),
                    fix_hint="give it an input arc or make it timed",
                )
            )
        elif unconstrained:
            all_capped = outputs and all(
                compiled.capacities[p] >= 0 for p, _ in outputs
            )
            if all_capped:
                diags.append(
                    Diagnostic(
                        code="PN003",
                        severity=Severity.INFO,
                        subject=trans.name,
                        message=(
                            "source transition (no input arcs); bounded "
                            "only by the capacities of its output places"
                        ),
                    )
                )
            else:
                diags.append(
                    Diagnostic(
                        code="PN001",
                        severity=Severity.ERROR,
                        subject=trans.name,
                        message=(
                            "always-enabled source transition feeding an "
                            "uncapacitated place: the state space is "
                            "unbounded"
                        ),
                        fix_hint=(
                            "add an input/inhibitor arc, a guard, or a "
                            "capacity on its output places"
                        ),
                    )
                )
        if trans.is_immediate and inputs and set(inputs) == set(outputs):
            diags.append(
                Diagnostic(
                    code="PN001",
                    severity=Severity.ERROR,
                    subject=trans.name,
                    message=(
                        "immediate transition leaves the marking unchanged "
                        "(zero-time livelock)"
                    ),
                    fix_hint="remove it or make it change the marking",
                )
            )
        if not outputs:
            diags.append(
                Diagnostic(
                    code="PN003",
                    severity=Severity.INFO,
                    subject=trans.name,
                    message="token sink (no output arcs): tokens leave the net here",
                )
            )
    return diags


def _boundedness_diagnostics(
    net: PetriNet,
) -> Tuple[List[Diagnostic], List[str]]:
    """PN002/PN006 plus the proven invariant and bound facts."""
    diags: List[Diagnostic] = []
    facts: List[str] = []
    compiled = net.compile()
    names = compiled.place_names
    m0 = compiled.initial_marking
    search = p_invariants_detailed(net)

    bounds = {}
    for i, name in enumerate(names):
        cap = int(compiled.capacities[i])
        bounds[name] = (cap, "capacity") if cap >= 0 else None
    for inv in search.invariants:
        total = sum(w * int(m0[names.index(p)]) for p, w in inv.items())
        terms = " + ".join(
            (f"{w}*{p}" if w != 1 else p) for p, w in inv.items()
        )
        facts.append(f"P-invariant: {terms} = {total}")
        for p, w in inv.items():
            bound = total // w
            if bounds[p] is None or bound < bounds[p][0]:
                bounds[p] = (bound, "invariant")

    covered = {p: b for p, b in bounds.items() if b is not None}
    if covered:
        worst = max(b for b, _ in covered.values())
        ones = sum(1 for b, _ in covered.values() if b <= 1)
        detail = (
            f"{ones} of them 1-bounded; worst bound {worst}"
            if 0 < ones < len(covered)
            else (
                f"every place {'1-bounded' if worst <= 1 else f'<= {worst} tokens'}"
            )
        )
        head = (
            f"all {len(names)} places"
            if len(covered) == len(names)
            else f"{len(covered)} of {len(names)} places"
        )
        facts.append(f"{head} structurally bounded ({detail})")
    if len(covered) != len(names):
        for name in names:
            if bounds[name] is None:
                diags.append(
                    Diagnostic(
                        code="PN002",
                        severity=Severity.WARNING,
                        subject=name,
                        message=(
                            "not covered by any semi-positive P-invariant "
                            "and no capacity declared: boundedness is "
                            "unproven (the place may still be bounded "
                            "behaviourally)"
                        ),
                        fix_hint=(
                            "declare a capacity, or verify with "
                            "lint level 'deep' (explores the state space)"
                        ),
                    )
                )
    if search.truncated:
        diags.append(
            Diagnostic(
                code="PN006",
                severity=Severity.WARNING,
                subject="net",
                message=(
                    "P-invariant combination search truncated after "
                    f"{search.candidates_tried} candidates (basis size "
                    f"{search.basis_size}); missing coverage proves nothing"
                ),
                fix_hint="raise the budget via p_invariants_detailed(budget=...)",
            )
        )
    return diags, facts


def _conflict_diagnostics(net: PetriNet) -> List[Diagnostic]:
    """PN007/PN008 immediate-conflict hygiene."""
    diags: List[Diagnostic] = []
    for conflict in immediate_conflicts(net):
        competitors = ", ".join(conflict.transitions)
        if conflict.untied_default_weights:
            diags.append(
                Diagnostic(
                    code="PN007",
                    severity=Severity.WARNING,
                    subject=conflict.place,
                    message=(
                        f"immediates {{{competitors}}} compete at priority "
                        f"{conflict.priority} with every weight at the 1.0 "
                        "default — the conflict resolves as a uniform "
                        "split the model probably never chose"
                    ),
                    fix_hint=(
                        "set explicit weights, or separate the competitors "
                        "by priority"
                    ),
                )
            )
        if not conflict.free_choice:
            diags.append(
                Diagnostic(
                    code="PN008",
                    severity=Severity.WARNING,
                    subject=conflict.place,
                    message=(
                        f"immediates {{{competitors}}} form a "
                        "non-free-choice conflict (their enabling depends "
                        "on other places): confusion — the winner depends "
                        "on firing order, not only on weights"
                    ),
                    fix_hint=(
                        "restructure so competing immediates share exactly "
                        "one input place, or separate them by priority"
                    ),
                )
            )
    return diags


def _dead_transition_diagnostics(net: PetriNet) -> List[Diagnostic]:
    """PN009 — transitions provably unable to ever fire."""
    return [
        Diagnostic(
            code="PN009",
            severity=Severity.WARNING,
            subject=name,
            message=(
                "structurally dead: its input places can never all be "
                "marked from the initial marking"
            ),
            fix_hint="remove the transition or fix the token flow into it",
        )
        for name in structurally_dead_transitions(net)
    ]


def _commoner_diagnostics(
    net: PetriNet,
) -> Tuple[List[Diagnostic], List[str]]:
    """PN004 deadlock risks, or the deadlock-freedom fact."""
    diags: List[Diagnostic] = []
    facts: List[str] = []
    result = commoner_check(net)
    if result.holds:
        n = len(result.siphons.sets)
        qualifier = (
            " (for the skeleton: see the PN010 notes)"
            if result.qualifications
            else ""
        )
        facts.append(
            f"deadlock-free by Commoner's condition: every one of the "
            f"{n} minimal siphons contains an initially marked "
            f"trap{qualifier}"
        )
    else:
        for siphon in result.unmarked_siphons:
            members = ", ".join(sorted(siphon))
            diags.append(
                Diagnostic(
                    code="PN004",
                    severity=Severity.WARNING,
                    subject=f"{{{members}}}",
                    message=(
                        "minimal siphon without an initially marked trap: "
                        "once these places empty together they stay "
                        "empty — a structural deadlock risk"
                    ),
                    fix_hint=(
                        "mark a trap inside the siphon initially, or add "
                        "a refilling transition"
                    ),
                )
            )
        if not result.siphons.complete:
            diags.append(
                Diagnostic(
                    code="PN006",
                    severity=Severity.WARNING,
                    subject="net",
                    message=(
                        "minimal-siphon search hit its node budget after "
                        f"{result.siphons.nodes_expanded} nodes; the "
                        "deadlock-freedom verdict is unavailable"
                    ),
                    fix_hint="raise the budget via commoner_check(budget=...)",
                )
            )
    return diags, facts


def _qualification_diagnostics(net: PetriNet) -> List[Diagnostic]:
    """PN010 — features limiting structural proofs to the skeleton."""
    return [
        Diagnostic(
            code="PN010",
            severity=Severity.INFO,
            subject="net",
            message=qualification,
        )
        for qualification in _skeleton_qualifications(net)
    ]


def _exploration_diagnostics(
    net: PetriNet, max_markings: int, steady: bool = True
) -> Tuple[List[Diagnostic], List[str]]:
    """Deep level: explore, then PN005/PN009/CH00x from the real graph."""
    diags: List[Diagnostic] = []
    facts: List[str] = []
    graph = explore_reachability(
        net, ReachabilityOptions(max_markings=max_markings)
    )
    if not graph.complete:
        diags.append(
            Diagnostic(
                code="PN005",
                severity=Severity.WARNING,
                subject="net",
                message=(
                    f"state space exceeded {max_markings} markings; "
                    "exploration truncated, chain-level verdicts "
                    "unavailable (the net may be unbounded)"
                ),
                fix_hint="raise max_markings, or bound the net",
            )
        )
        return diags, facts

    bound = int(graph.counts.max(initial=0))
    facts.append(
        f"state space explored completely: {graph.n_markings} markings, "
        f"{bound}-bounded"
    )
    for name in graph.dead_transitions():
        diags.append(
            Diagnostic(
                code="PN009",
                severity=Severity.WARNING,
                subject=name,
                message="never enabled in any reachable marking",
                fix_hint="remove the transition or fix the token flow into it",
            )
        )
    rows = []
    cols = []
    for mi, edges in enumerate(graph.edges_out):
        for e in edges:
            rows.append(mi)
            cols.append(e.target)
    classification = classify_states(graph.n_markings, rows, cols)
    chain = chain_diagnostics(
        classification, labels=graph.markings, steady=steady
    )
    diags.extend(chain)
    if not any(d.code.startswith("CH") for d in chain):
        facts.append(
            "chain is irreducible on the reachable markings: a unique "
            "stationary distribution exists"
        )
    return diags, facts


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def lint_net(
    net: PetriNet,
    level: str = "standard",
    max_markings: int = DEEP_MAX_MARKINGS,
) -> LintReport:
    """Lint one net; see the module docstring for what each level runs.

    Parameters
    ----------
    net:
        The net to analyse (any EDSPN — timed-transition distributions
        are irrelevant to the structural levels).
    level:
        ``"quick"``, ``"standard"`` (default) or ``"deep"``.
    max_markings:
        Exploration cap of the deep level; ignored below it.

    Returns
    -------
    LintReport
        Findings plus the positive facts the analyzers proved.
    """
    if level not in LINT_LEVELS:
        raise ValueError(
            f"level must be one of {LINT_LEVELS}, got {level!r}"
        )
    report = LintReport()
    report.extend(_structure_diagnostics(net))
    bound_diags, bound_facts = _boundedness_diagnostics(net)
    report.extend(bound_diags)
    report.facts.extend(bound_facts)
    report.extend(_conflict_diagnostics(net))
    report.extend(_dead_transition_diagnostics(net))
    if level in ("standard", "deep"):
        commoner_diags, commoner_facts = _commoner_diagnostics(net)
        report.extend(commoner_diags)
        report.facts.extend(commoner_facts)
        report.extend(_qualification_diagnostics(net))
    if level == "deep":
        deep_diags, deep_facts = _exploration_diagnostics(net, max_markings)
        report.extend(deep_diags)
        report.facts.extend(deep_facts)
    return report


def _wants_steady_metrics(metrics: Sequence[Any]) -> bool:
    """True when at least one *string* metric is a steady-state kind.

    Callable metrics are opaque — they do not escalate chain findings to
    errors (permissive by design).
    """
    from repro.sweep.backends.base import parse_metric_spec

    for metric in metrics:
        if isinstance(metric, str):
            try:
                if not parse_metric_spec(metric).is_transient:
                    return True
            except ValueError:
                continue  # malformed specs fail later, with their own error
    return False


def _grid_value_diagnostics(
    points: Sequence[Mapping[str, float]], what: str
) -> List[Diagnostic]:
    """SW001 — non-positive / non-finite values on any axis."""
    diags: List[Diagnostic] = []
    flagged: set = set()
    for point in points:
        for axis, value in point.items():
            if axis in flagged:
                continue
            v = float(value)
            if not math.isfinite(v) or v <= 0.0:
                flagged.add(axis)
                diags.append(
                    Diagnostic(
                        code="SW001",
                        severity=Severity.ERROR,
                        subject=axis,
                        message=(
                            f"grid value {v!r} is not a usable {what} "
                            "(must be finite and > 0)"
                        ),
                        fix_hint="fix the axis spec before sweeping",
                    )
                )
    return diags


def preflight_sweep(
    model: Any,
    points: Sequence[Mapping[str, float]],
    metrics: Sequence[Any],
) -> LintReport:
    """Verify a sweep configuration before any point is solved.

    Dispatches on the backend type:

    - **GSPN backends** — the reachability template already exists, so
      the chain-level classification (CH001/CH002/CH003) costs one
      linear pass over the rate template; immediate-conflict hygiene
      (PN007/PN008) and grid-rate vetting (SW001) ride along.  Dead
      markings and fragmented chains are errors when a steady-state
      metric is requested, warnings otherwise (transient sweeps over
      absorbing chains are legitimate).
    - **CPU-parameter backends** (phase-type, renewal) — grid values are
      vetted (SW001); the phase-type queue truncation is cross-referenced
      (SW002) when ``truncation_mass`` is not monitored.
    - anything else — no opinion (custom backends lint themselves).

    Returns the report; *callers* decide whether to raise — the sweep
    runner aborts on error-severity findings via
    :class:`~repro.verify.diagnostics.PreflightError`.
    """
    from repro.sweep.backends import GSPNBackend, PhaseTypeBackend
    from repro.sweep.backends.base import CPUParamsAxesMixin

    report = LintReport()
    steady = _wants_steady_metrics(metrics)

    if isinstance(model, GSPNBackend):
        solver = model.solver
        report.extend(_conflict_diagnostics(solver.net))
        rows, cols = solver.tangible_edges()
        classification = classify_states(solver.n, rows, cols)
        report.extend(
            chain_diagnostics(
                classification, labels=solver.markings, steady=steady
            )
        )
        for name in solver.graph.dead_transitions():
            report.diagnostics.append(
                Diagnostic(
                    code="PN009",
                    severity=Severity.WARNING,
                    subject=name,
                    message="never enabled in any reachable marking",
                )
            )
        report.extend(_grid_value_diagnostics(points, "exponential rate"))
    elif isinstance(model, CPUParamsAxesMixin):
        report.extend(_grid_value_diagnostics(points, "CPU parameter"))
        if isinstance(model, PhaseTypeBackend):
            monitored = any(
                isinstance(m, str) and m.startswith("truncation_mass")
                for m in metrics
            )
            if not monitored:
                from repro.sweep.backends.base import resolve_cpu_axis

                axes = {
                    resolve_cpu_axis(a) for p in points[:1] for a in p
                }
                severity = (
                    Severity.WARNING
                    if "arrival_rate" in axes
                    else Severity.INFO
                )
                report.diagnostics.append(
                    Diagnostic(
                        code="SW002",
                        severity=severity,
                        subject="n_max",
                        message=(
                            f"the queue is truncated at n_max="
                            f"{model.n_max} and no 'truncation_mass' "
                            "metric is swept; truncation error goes "
                            "unmonitored"
                            + (
                                " (and the swept arrival rate grows it)"
                                if severity is Severity.WARNING
                                else ""
                            )
                        ),
                        fix_hint=(
                            "add --metric truncation_mass, or raise "
                            "--n-max for the heaviest grid point"
                        ),
                    )
                )
    return report


def raise_on_errors(report: LintReport) -> None:
    """Raise :class:`PreflightError` when *report* carries errors."""
    if not report.ok:
        raise PreflightError(report)
