"""Benchmark-side timing wrappers for the traced run.

Nothing here is installed in an untraced run.  :class:`LayerRecorder`
patches public entry points of the in-process layers for the duration
of a ``with`` block and accumulates, per layer, the busy time and the
work count; :func:`span_totals` reads the ``repro.obs`` spans and
counters the program already records.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple


class LayerRecorder:
    """Busy seconds and work counts per layer, from wrapped calls."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._depth: Dict[str, int] = defaultdict(int)

    def timed(self, layer: str, fn: Callable) -> Callable:
        """Wrap *fn* so its outermost calls add to ``busy[layer]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[layer] -= 1
                if self._depth[layer] == 0:
                    self.busy[layer] += time.perf_counter() - t0

        return wrapper

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def patch_timed(self, owner: Any, name: str, layer: str) -> None:
        self.patch(owner, name, self.timed(layer, getattr(owner, name)))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


@contextmanager
def kernel_layers(recorder: LayerRecorder) -> Iterator[None]:
    """Time the paper-tables layers: the Petri token game, the CPU event
    simulation, and the closed forms; count firings and events."""
    import repro.core.comparison as comparison
    import repro.core.simulation_cpu as simulation_cpu
    from repro.core.exact_renewal import ExactRenewalModel
    from repro.core.markov_supplementary import MarkovSupplementaryModel
    from repro.core.petri_cpu import PetriCPUModel
    from repro.des.engine import Simulator
    from repro.petri.simulator import PetriNetSimulator

    class CountingSimulator(Simulator):
        """The DES engine, tallying the events each run executes."""

        def run_until(self, end_time):
            before = self.events_executed
            try:
                return super().run_until(end_time)
            finally:
                recorder.count["des.sim"] += self.events_executed - before

    original_petri_run = PetriNetSimulator.run

    def counting_petri_run(self, *args, **kwargs):
        result = original_petri_run(self, *args, **kwargs)
        # every firing of the run, warm-up included: each timed firing is
        # one executed engine event (a withdrawn timer never executes)
        recorder.count["petri.sim"] += result.events_executed + result.immediate_firings
        return result

    try:
        recorder.patch_timed(PetriCPUModel, "run_replicated", "petri.sim")
        recorder.patch(PetriNetSimulator, "run", counting_petri_run)
        recorder.patch_timed(comparison, "replicate_cpu_simulation", "des.sim")
        recorder.patch(simulation_cpu, "Simulator", CountingSimulator)
        recorder.patch_timed(MarkovSupplementaryModel, "solve", "core.closed_form")
        recorder.patch_timed(ExactRenewalModel, "solve", "core.closed_form")
        yield
    finally:
        recorder.restore()


def span_totals(trace: Any) -> Dict[str, float]:
    """Per-name duration and self-time sums of a ``repro.obs`` trace."""
    totals: Dict[str, float] = defaultdict(float)
    for span, self_s in zip(trace.spans, trace.self_times()):
        totals[span.name] += span.duration
        totals["self:" + span.name] += self_s
    return totals


def markov_self_s(totals: Dict[str, float]) -> float:
    """Self time of every ``solve.*`` span (the ``repro.markov`` solvers)."""
    return sum(v for k, v in totals.items() if k.startswith("self:solve."))
