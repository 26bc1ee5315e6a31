"""GSPN rows past ``DENSE_MAX_STATES`` depend on their own point alone.

A GMRES steady-state solve starts cold and builds its ILU preconditioner
from its own generator; the only thing a template shares between points
is the rate-independent state ordering.  So a grid solved forward or
reversed, cut into any partitions, or sent through the process pool, the
distributed runner or the service comes back with bit-identical rows and
failure records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.markov.ctmc as ctmc_mod
from repro.markov.ctmc import DENSE_MAX_STATES
from repro.sweep import SweepGrid, SweepRunner, build_mm1k_net, build_wsn_cluster_net
from repro.sweep.backends import GSPNBackend
from repro.sweep.distributed import DistributedSweepRunner
from repro.sweep.engine import SerialExecutor, build_plan
from tests.sweep.service.fixture import ServiceFixture

MM1K_METRICS = ["mean_tokens:queue", "throughput:serve"]
WSN_METRICS = ["mean_tokens:buf0", "probability_positive:ch", "throughput:rel0"]


def table(result, metrics):
    return np.array([[row[m] for m in metrics] for row in result.values])


def failures(result):
    return [e.to_dict() for e in result.errors]


class TestRowIsItsOwnPoint:
    @pytest.fixture(scope="class")
    def backend(self):
        backend = GSPNBackend(build_mm1k_net(K=2000))
        assert backend.n_states > DENSE_MAX_STATES
        return backend

    def test_same_row_in_every_grid(self, backend):
        """The row at ``arrive=2.0`` once depended on its neighbours: after
        ``1.5`` the chained warm start and ILU stalled GMRES there."""
        rows = []
        for grid in ([2.0], [1.5, 2.0], [1.9, 2.0], np.linspace(0.5, 2.0, 6)):
            result = SweepRunner(backend, ["mean_tokens:queue"]).run(
                SweepGrid({"arrive": grid})
            )
            assert result.errors == []
            rows.append(result.values[-1]["mean_tokens:queue"])
        assert np.isfinite(rows[0])
        assert rows == [rows[0]] * len(rows)

    @settings(max_examples=12, deadline=None)
    @given(
        arrive=st.lists(
            st.sampled_from([0.2, 0.6, 1.0, 1.4, 1.8, 2.0, 2.2, 2.6, 3.0]),
            min_size=2,
            max_size=7,
        ),
        n_partitions=st.integers(min_value=1, max_value=7),
    )
    def test_forward_reversed_and_partitioned_agree(self, arrive, n_partitions):
        """A 20-iteration budget makes the overloaded points stall, so the
        NaN pattern and failure records are compared as well."""
        backend = GSPNBackend(build_mm1k_net(K=600))
        points = [{"arrive": a} for a in arrive]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc_mod, "GMRES_MAX_ITER", 20)
            runner = SweepRunner(backend, MM1K_METRICS, preflight=False)
            forward = runner.run(points)
            reversed_ = runner.run(points[::-1])
            plan = build_plan(
                backend, runner.metrics, points, n_partitions=n_partitions
            )
            rows, errors = SerialExecutor().run(
                plan, backend, runner.metrics, points
            )
        want = table(forward, MM1K_METRICS)
        np.testing.assert_array_equal(table(reversed_, MM1K_METRICS)[::-1], want)
        np.testing.assert_array_equal(np.array(rows), want)
        n = len(points)
        assert sorted(
            (n - 1 - e["index"], e["message"]) for e in failures(reversed_)
        ) == [(e["index"], e["message"]) for e in failures(forward)]
        assert [e.to_dict() for e in errors] == failures(forward)


CASES = {
    # arrive=3.0 stalls GMRES under every ILU strength: one failure record
    "mm1k": (
        lambda: GSPNBackend(build_mm1k_net(K=2000)),
        {"net": "mm1k", "buffer": 2000},
        {"arrive": [0.5, 1.5, 1.9, 2.0, 3.0]},
        MM1K_METRICS,
    ),
    "wsn-cluster": (
        lambda: GSPNBackend(build_wsn_cluster_net(n_nodes=3, buffer_capacity=8)),
        {"net": "wsn-cluster", "nodes": 3, "buffer": 8},
        {"arr0": [0.4, 0.8, 1.2, 1.6], "snd1": [1.5, 2.5]},
        WSN_METRICS,
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, spec, axes, metrics = CASES[request.param]
    serial = SweepRunner(make(), metrics, preflight=False).run(SweepGrid(axes))
    return request.param, make, spec, axes, metrics, serial


def test_serial_reference(case):
    name, _, _, _, metrics, serial = case
    assert [e.index for e in serial.errors] == ([4] if name == "mm1k" else [])
    healthy = [i for i in range(len(serial)) if i not in serial.failed_indices()]
    assert np.all(np.isfinite(table(serial, metrics)[healthy]))


@pytest.mark.parametrize(
    "path", ["reversed", "pool", "distributed-inline", "distributed-process"]
)
def test_execution_paths_match_serial_bitwise(case, path):
    _, make, _, axes, metrics, serial = case
    if path == "reversed":
        points = SweepGrid(axes).points()[::-1]
        result = SweepRunner(make(), metrics, preflight=False).run(points)
        np.testing.assert_array_equal(
            table(result, metrics)[::-1], table(serial, metrics)
        )
        assert [e.message for e in result.errors][::-1] == [
            e.message for e in serial.errors
        ]
        return
    if path == "pool":
        runner = SweepRunner(make(), metrics, n_workers=2, preflight=False)
    else:
        runner = DistributedSweepRunner(
            make(),
            metrics,
            n_shards=2,
            worker_mode=path.split("-")[1],
            preflight=False,
        )
    result = runner.run(SweepGrid(axes))
    assert result.points == serial.points
    np.testing.assert_array_equal(
        table(result, metrics), table(serial, metrics)
    )
    assert failures(result) == failures(serial)


def test_service_matches_serial_bitwise(case):
    _, _, spec, axes, metrics, serial = case
    with ServiceFixture(telemetry=False) as svc:
        reply = svc.request({
            "op": "sweep",
            "model": spec,
            "axes": axes,
            "metrics": metrics,
        })
    assert reply["kind"] == "result", reply
    np.testing.assert_array_equal(
        np.array(reply["rows"]), table(serial, metrics)
    )
    assert reply["errors"] == failures(serial)
