"""Bad metric specs fail the same way on every call, memo or not.

``parse_metric_spec`` is memoised, and it must not remember a failure:
a bad spec raises the same exception type and message on its
first and its second use — directly, through ``SweepRunner`` (with and
without the preflight lint), and on batched wire framing, where
``WorkerConfigError`` names the first point whose metrics raised.
"""

import asyncio

import pytest

from repro.core.params import CPUModelParams
from repro.sweep import PhaseTypeBackend, SweepGrid, SweepRunner
from repro.sweep.backends.base import parse_metric_spec
from repro.sweep.engine import WorkerConfigError, stream_partition

FRACTION_MENU = "['idle', 'standby', 'powerup', 'active']"

#: spec -> (exception type, message), as the unmemoised code raised them
BAD_SPECS = {
    "fraction": (
        ValueError,
        f"fraction metric needs a state in {FRACTION_MENU}, got None",
    ),
    "fraction:bogus": (
        ValueError,
        f"fraction metric needs a state in {FRACTION_MENU}, got 'bogus'",
    ),
    "power:x": (ValueError, "metric kind 'power' takes no ':' argument"),
    "energy@-1": (ValueError, "metric 'energy@-1': horizon must be >= 0"),
    "energy@abc": (
        ValueError,
        "metric 'energy@abc': horizon 'abc' after '@' must be a number",
    ),
}
PARSE_ERRORS = ("energy@-1", "energy@abc")


def backend():
    return PhaseTypeBackend(CPUModelParams.paper_defaults(), stages=2, n_max=10)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("spec", sorted(BAD_SPECS))
def test_direct_evaluation_raises_every_time(spec):
    model = backend()
    solution = model.solve({"T": 0.5})
    model.evaluate(solution, "power")  # a good spec is memoised meanwhile
    for _ in range(2):
        assert raised(lambda: model.evaluate(solution, spec)) == BAD_SPECS[spec]
    if spec in PARSE_ERRORS:
        for _ in range(2):
            assert raised(lambda: parse_metric_spec(spec)) == BAD_SPECS[spec]


@pytest.mark.parametrize("preflight", [True, False])
@pytest.mark.parametrize("spec", sorted(BAD_SPECS))
def test_runner_raises_every_time(spec, preflight):
    model = backend()
    grid = SweepGrid({"T": [0.5, 1.0]})
    for _ in range(2):
        got = raised(
            lambda: SweepRunner(
                model, ["power", spec], preflight=preflight
            ).run(grid)
        )
        assert got == BAD_SPECS[spec]


class NullWriter:
    def write(self, data):
        pass

    async def drain(self):
        pass


@pytest.mark.parametrize("spec", sorted(BAD_SPECS))
def test_batched_wire_framing_names_the_first_point_whose_metrics_raised(spec):
    """Point 10 fails at binding (zero delay), so it never reaches the
    metrics: point 11 is the first whose metrics raise."""
    model = backend()
    points = [{"T": 0.3, "D": 0.0}, {"T": 0.5, "D": 0.1}, {"T": 0.9, "D": 0.1}]
    assert model.resolve_batch_size(len(points)) == len(points)
    for _ in range(2):
        with pytest.raises(WorkerConfigError) as info:
            asyncio.run(
                stream_partition(
                    NullWriter(), model, ["power", spec], [10, 11, 12], points
                )
            )
        assert info.value.index == 11
        assert (type(info.value.error), str(info.value.error)) == BAD_SPECS[spec]
