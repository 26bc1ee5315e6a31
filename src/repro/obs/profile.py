"""``--profile`` rendering: a phase-breakdown table for a trace.

Self-time semantics: each span's exclusive time (duration minus its direct
children) is summed per span name, so in a single-process run the per-phase
percentages partition wall-clock.  On pool/distributed runs worker spans
overlap in real time, so the percentages measure *CPU-seconds relative to
wall* and may exceed 100% in aggregate — that is the point: it shows how much
parallel work the wall-clock bought.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.obs.summary import build_summary
from repro.obs.trace import Trace

__all__ = ["attribution_fraction", "render_profile"]

# Counters surfaced under the phase table (satellite: iteration counts).
_PROFILE_COUNTERS = (
    "solver.gmres.solves",
    "solver.gmres.iterations",
    "solver.ilu.builds",
    "sweep.rows.completed",
    "sweep.rows.failed",
    "dist.chunks.dispatched",
    "dist.requeues",
    "dist.points.poisoned",
)


def attribution_fraction(trace: Trace) -> float:
    """Fraction of span-covered wall-clock attributed to named phases.

    Computed as 1 minus the root spans' share of exclusive time: whatever
    wall time no named child phase accounts for.  1.0 when every moment
    inside the root span(s) is covered by some named sub-phase.
    """
    wall = trace.wall_seconds()
    if wall <= 0.0:
        return 1.0
    self_times = trace.self_times()
    root_self = sum(
        self_times[i] for i, sp in enumerate(trace.spans) if sp.parent is None
    )
    # With a single root span covering the run, root_self is exactly the
    # unattributed remainder; with parallel workers the coverage can only be
    # better than this estimate, so clamp into [0, 1].
    return min(1.0, max(0.0, 1.0 - root_self / wall))


def _format_rows(trace: Trace) -> Tuple[List[Tuple[str, str, str, str, str]], float]:
    summary = build_summary(trace)
    wall = float(summary["wall_s"])
    rows: List[Tuple[str, str, str, str, str]] = []
    phases = sorted(
        summary["phases"].items(), key=lambda kv: kv[1]["self_s"], reverse=True
    )
    for name, ph in phases:
        pct = 100.0 * ph["self_s"] / wall if wall > 0 else 0.0
        rows.append(
            (
                name,
                f"{int(ph['count'])}",
                f"{ph['total_s']:.4f}",
                f"{ph['self_s']:.4f}",
                f"{pct:.1f}%",
            )
        )
    return rows, wall


def render_profile(trace: Trace, title: str = "phase breakdown") -> str:
    """Render the phase table + counter lines as a plain-text block."""
    rows, wall = _format_rows(trace)
    header = ("phase", "count", "total s", "self s", "% wall")
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [f"-- {title}: wall {wall:.4f}s --"]
    for j, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(header))]
        lines.append("  ".join(cells))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    coverage = attribution_fraction(trace)
    lines.append(f"attributed to named phases: {100.0 * coverage:.1f}%")
    counter_lines = [
        f"{name} = {trace.counters[name]:g}"
        for name in _PROFILE_COUNTERS
        if name in trace.counters
    ]
    extra = sorted(set(trace.counters) - set(_PROFILE_COUNTERS))
    counter_lines += [f"{name} = {trace.counters[name]:g}" for name in extra]
    if counter_lines:
        lines.append("-- counters --")
        lines.extend(counter_lines)
    if trace.gauges:
        lines.append("-- gauges --")
        lines.extend(
            f"{name} = {trace.gauges[name]:g}" for name in sorted(trace.gauges)
        )
    return "\n".join(lines)
