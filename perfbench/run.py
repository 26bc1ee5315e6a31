"""The repository benchmark: one command, three workloads and a fourth
that runs by hand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout's root; it imports the program from ``src/`` and
builds nothing.  Workloads (``BENCHMARK.json`` lists the first three and
records why each exists):

- ``paper-tables``  Figures 4-5 / Tables 4-5, fast config (paper_tables.py)
- ``sweep-stages``  phase-type grid at stages 2/16/32/64 (sweep_stages.py)
- ``service-mixed`` daemon under 2 closed-loop clients (service_mixed.py)
- ``fanout``        distributed runner and service pool (fanout.py)

``fanout`` is not in ``BENCHMARK.json``: on a shared two-core VM its
coordinator and shard processes outnumber the cores, and its end-to-end
figures spread too far between runs for a bound.  Its layers (``dist.*``, ``pool.*``)
are still measured by every traced run.

Every workload is a loop of *passes* made of *operations* (one point of
the paper's sweep, one grid solve, one request, one fan-out).  A pass is
the workload's fixed work, or for paper-tables one of its *parts* (one
of the artifact's 15 points), the passes cycling through the parts.
After set-up and one unmeasured warm-up pass, passes repeat until every
part has run and the next pass would end after ``--seconds``.  Every
pass's output is checked against an in-process reference or a bound; a
failed check prints ``"correct": false`` and exits 1.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median of three cold starts, from spawning a fresh
  interpreter to ready (imports and template preparation, or the daemon
  answering ``ping`` with its workers connected);
- ``wall_s``: time of the fixed work: the median pass time, summed
  over the parts;
- ``requests_per_s``: operations completed per second of pass time;
- ``latency_p50_ms``/``latency_p95_ms``: per-operation latency, failed
  operations counting as slower than any other;
- ``peak_rss_mb``: peak RSS of the process doing the work.

Failures are the ``failed`` field (against ``attempted``), not a metric:
a metric that is normally zero has no relative bound.

``--trace 1`` prints the per-layer metrics instead.  Half of the time
runs untraced passes and half traced ones (benchmark-side wrappers plus
``repro.obs`` tracing); ``obs.overhead_pct`` compares their ``wall_s``.
Times and counts are per fixed work (medians over traced passes).
Layers that belong to another workload are measured by one traced pass
of that workload, so every run reports every layer.  What each layer
should move, and on which workload it is measured:

- ``import.*`` -> ``setup_s``, every workload (a fresh ``-X importtime``);
- ``petri.sim.*``, ``des.sim.*`` -> ``wall_s``, paper-tables;
  ``core.closed_form.busy_s`` should not move (a guard);
- ``sweep.*.us_per_point``, ``markov.*``, ``engine.self_s``,
  ``verify.preflight_s`` -> ``wall_s``, sweep-stages;
  ``backend.prepare_s`` -> ``setup_s``; ``sweep.batched.s2`` also
  -> ``latency_p50_ms`` on service-mixed;
- ``petri.explore.*`` -> ``latency_p95_ms`` and ``setup_s``,
  service-mixed;
- ``service.*``, ``verify.lint_ms`` -> ``requests_per_s`` and the
  latencies, service-mixed;
- ``dist.*``, ``pool.*`` -> ``wall_s``, fanout;
- ``obs.overhead_pct``, ``failed_fraction`` should not move (guards).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Measurement:
    def __init__(self) -> None:
        self.walls: Dict[Any, List[float]] = {}  # pass times, per part
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0

    def wall_s(self) -> float:
        """The fixed work's time: each part's median pass, summed."""
        from harness import median

        return sum(median(walls) for walls in self.walls.values())


def measure(workload, seconds: float, traced: bool) -> Measurement:
    """Run passes until every part has run and the next pass would end
    after *seconds*."""
    from harness import median

    parts = getattr(workload, "parts", (None,))
    m = Measurement()
    t_start = time.perf_counter()
    while True:
        gc.collect()  # start each pass from the same heap, untimed
        part = getattr(workload, "part", None)
        latencies, failed, wall = workload.run_pass(traced=traced)
        m.walls.setdefault(part, []).append(wall)
        m.latencies.extend(latencies)
        m.attempted += len(latencies)
        m.failed += failed
        m.elapsed = time.perf_counter() - t_start
        if len(m.walls) < len(parts):
            continue
        following = m.walls[getattr(workload, "part", None)]
        if m.elapsed + median(following) > seconds:
            return m


def end_to_end(workload, seed: int, seconds: float, workdir: Path):
    from harness import median, percentile

    wl = workload(seed, workdir)
    try:
        setup_s = wl.start(probe=True)
        wl.run_pass()  # warm-up: checked, not measured
        m = measure(wl, seconds, traced=False)
        wl.final_checks()
        rss = wl.peak_rss_mb()
    finally:
        wl.close()
    metrics = {
        "setup_s": setup_s,
        "wall_s": m.wall_s(),
        "requests_per_s": (m.attempted - m.failed) / sum(map(sum, m.walls.values())),
        "latency_p50_ms": 1e3 * median(m.latencies),
        "latency_p95_ms": 1e3 * percentile(m.latencies, 95),
        "peak_rss_mb": rss,
    }
    return metrics, m.attempted, m.failed


def per_layer(workload, others, seed: int, seconds: float, workdir: Path):
    from harness import import_profile, log

    metrics: Dict[str, float] = dict(import_profile())
    wl = workload(seed, workdir)
    try:
        wl.start(probe=False)
        wl.run_pass()  # warm-up
        plain = measure(wl, seconds / 2, traced=False)
        if hasattr(wl, "enable_tracing"):
            wl.enable_tracing()
        traced = measure(wl, seconds / 2, traced=True)
        wl.final_checks()
        metrics.update(wl.layer_metrics())
    finally:
        wl.close()
    base = plain.wall_s()
    metrics["obs.overhead_pct"] = 100.0 * (traced.wall_s() - base) / base
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics["failed_fraction"] = failed / attempted
    for other in others:
        log(f"[census: one traced pass of each part of {other.name}]")
        census = other(seed, workdir)
        try:
            census.start(probe=False, traced=True)
            for _ in getattr(census, "parts", (None,)):
                census.run_pass(traced=True)
            census.final_checks()
            metrics.update(census.layer_metrics())
        finally:
            census.close()
    return metrics, attempted, failed


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # a caller's timeout arrives as SIGTERM: unwind so daemons are drained
    # (forked shard workers inherit the handler and keep the default)
    main_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_sigterm)

    from fanout import Fanout
    from harness import CheckFailed, log
    from paper_tables import PaperTables
    from service_mixed import ServiceMixed
    from sweep_stages import SweepStages

    workloads = {w.name: w for w in (PaperTables, SweepStages, ServiceMixed, Fanout)}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} "
              f"(have: {sorted(workloads)})", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    correct = True
    try:
        if args.trace:
            others = [w for w in workloads.values() if w is not workload]
            values, attempted, failed = per_layer(
                workload, others, args.seed, args.seconds, workdir
            )
        else:
            values, attempted, failed = end_to_end(
                workload, args.seed, args.seconds, workdir
            )
    except CheckFailed as exc:
        log(f"correctness check failed: {exc}")
        correct, values, attempted, failed = False, {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if correct and set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with "
            f"BENCHMARK.json {section}"
        )
    for name in units:
        if name in values:
            log(f"{args.workload:>14}  {name:<40} {values[name]:>14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
