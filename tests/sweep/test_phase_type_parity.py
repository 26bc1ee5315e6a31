"""One phase-type backend, every execution path, every spelling.

A ``T`` x ``D`` grid whose ``D = 1e-310`` column overflows the stage rate
(the kernel returns non-finite rows, which fail alone inside the stacked
call) plus one zero-delay point (which fails at parameter binding, before
the stack) must come back bit-identical — rows *and* ``PointFailure``
records — from the serial runner, a one-point-at-a-time loop, the
process pool, the distributed runner, the inline service and the service
with workers.  A point that kills every worker touching it is poisoned
identically by the distributed runner and the service worker pool.  The
deprecated batched spellings (the ``BatchedPhaseTypeBackend`` name, the
``phase-type-batched`` registry and service kind, ``--model
phase-type-batched`` and ``--batched``) are aliases and must give the
same rows as ``phase-type``.
"""

import csv

import numpy as np
import pytest

from repro.core.params import CPUModelParams
from repro.experiments.cli import main as cli_main
from repro.sweep import (
    BatchedPhaseTypeBackend,
    PhaseTypeBackend,
    SweepGrid,
    SweepRunner,
    make_backend,
)
from repro.sweep.distributed import DistributedSweepRunner
from repro.sweep.service import RequestError, canonical_model_spec
from tests.sweep.service.fixture import ServiceFixture
from tests.sweep.test_batched import PinnedBatchBackend

METRICS = ["power", "fraction:standby", "mean_jobs"]
MODEL_KWARGS = dict(stages=2, n_max=10)
T_VALUES = [0.1, 0.4, 0.7, 1.0]
D_VALUES = [1e-310, 0.05, 0.5]
GRID = SweepGrid({"T": T_VALUES, "D": D_VALUES})
ZERO_DELAY = {"T": 0.3, "D": 0.0}
POINTS = GRID.points() + [ZERO_DELAY]


def backend(cls=PhaseTypeBackend):
    return cls(CPUModelParams.paper_defaults(), **MODEL_KWARGS)


def table(result):
    return np.array([[row[m] for m in METRICS] for row in result.rows()])


def failures(result):
    return [e.to_dict() for e in result.errors]


@pytest.fixture(scope="module")
def serial():
    return SweepRunner(backend(), METRICS, preflight=False).run(POINTS)


def test_reference_fails_in_the_kernel_and_at_binding(serial):
    n_grid = len(GRID.points())
    by_index = {e.index: e for e in serial.errors}
    in_kernel = [i for i, p in enumerate(POINTS) if p["D"] == 1e-310]
    assert sorted(by_index) == in_kernel + [n_grid]
    assert {by_index[i].error_type for i in in_kernel} == {
        "NumericalSolveError"
    }
    binding = by_index[n_grid]
    assert (binding.stage, binding.error_type) == ("solve", "ValueError")
    assert "power_up_delay" in binding.message
    healthy = [i for i in range(len(POINTS)) if i not in by_index]
    assert np.all(np.isfinite(table(serial)[healthy]))


@pytest.mark.parametrize(
    "path", ["pointwise", "pool", "distributed", "service-workers"]
)
def test_execution_paths_match_serial_bitwise(serial, path):
    if path == "service-workers":
        # the service takes grids only (a zero axis value is a request
        # error), so it answers the grid part of the reference
        n_grid = len(GRID.points())
        with ServiceFixture(telemetry=False, n_workers=2) as svc:
            reply = service_sweep(svc, "phase-type")
        assert reply["kind"] == "result", reply
        np.testing.assert_array_equal(
            np.array(reply["rows"]), table(serial)[:n_grid]
        )
        assert reply["errors"] == [
            e for e in failures(serial) if e["index"] < n_grid
        ]
        return
    if path == "pointwise":
        runner = SweepRunner(
            backend(PinnedBatchBackend), METRICS, preflight=False
        )
    elif path == "pool":
        runner = SweepRunner(
            backend(), METRICS, n_workers=2, preflight=False
        )
    else:
        runner = DistributedSweepRunner(
            backend(), METRICS, n_shards=2, preflight=False
        )
    result = runner.run(POINTS)
    assert result.points == serial.points
    np.testing.assert_array_equal(table(result), table(serial))
    assert failures(result) == failures(serial)


def service_sweep(svc, kind):
    return svc.request({
        "op": "sweep",
        "model": {"kind": kind, **MODEL_KWARGS},
        "axes": {"T": T_VALUES, "D": D_VALUES},
        "metrics": METRICS,
    })


def test_inline_service_and_its_alias_kind_match_serial(serial):
    """The service takes grids only (a zero axis value is a request
    error), so it answers the grid part of the reference."""
    n_grid = len(GRID.points())
    want_rows = table(serial)[:n_grid]
    want_errors = [e for e in failures(serial) if e["index"] < n_grid]
    with ServiceFixture(telemetry=False) as svc:
        replies = [
            service_sweep(svc, kind)
            for kind in ("phase-type", "phase-type-batched")
        ]
    for reply in replies:
        assert reply["kind"] == "result", reply
        np.testing.assert_array_equal(np.array(reply["rows"]), want_rows)
        assert reply["errors"] == want_errors
    assert replies[0]["fingerprint"] == replies[1]["fingerprint"]


#: a healthy grid point (T=0.4, D=0.05) that kills every worker touching it
KILLER = 4


def test_worker_killing_point_poisons_identically_on_every_wire_path(serial):
    """A point that kills whichever worker solves it, with a zero retry
    budget: the distributed runner and the service worker pool must both
    poison it alone — NaN row, identical ``stage="worker"`` record — and
    return every other row bit-identical to serial.

    The grid is one stacked batch, so the first death is batch-framed
    (unblamed; the retry is downgraded to pointwise) and the second is
    the blamed pointwise one: the distributed run needs three shards for
    one to survive both, the service respawns its two workers (the
    replacements meet the poisonous point too).
    """
    n_grid = len(GRID.points())
    fault = {"die_worker": -1, "die_at_index": KILLER}
    distributed = DistributedSweepRunner(
        backend(), METRICS, n_shards=3, worker_mode="inline",
        max_requeues=0, preflight=False, _fault_injection=fault,
    ).run(GRID)
    with ServiceFixture(
        telemetry=False, n_workers=2, max_retries=0, worker_fault=fault
    ) as svc:
        reply = service_sweep(svc, "phase-type")
        deaths = svc.stats()["workers"]["deaths"]
    assert reply["kind"] == "result", reply
    assert deaths == 2  # the batch-framed death, then the blamed one
    want = table(serial)[:n_grid].copy()
    want[KILLER] = np.nan
    np.testing.assert_array_equal(table(distributed), want)
    np.testing.assert_array_equal(np.array(reply["rows"]), want)
    poisoned = [e for e in failures(distributed) if e["stage"] == "worker"]
    assert [e["index"] for e in poisoned] == [KILLER]
    assert "died on this point" in poisoned[0]["message"]
    assert [e for e in failures(distributed) if e["index"] != KILLER] == [
        e for e in failures(serial) if e["index"] < n_grid
    ]
    assert reply["errors"] == failures(distributed)


@pytest.mark.parametrize(
    "make",
    [
        lambda: backend(BatchedPhaseTypeBackend),
        lambda: make_backend(
            "phase-type-batched",
            params=CPUModelParams.paper_defaults(),
            **MODEL_KWARGS,
        ),
    ],
    ids=["BatchedPhaseTypeBackend", "make_backend"],
)
def test_python_aliases_match(serial, make):
    model = make()
    assert type(model) is PhaseTypeBackend
    result = SweepRunner(model, METRICS, preflight=False).run(POINTS)
    np.testing.assert_array_equal(table(result), table(serial))
    assert failures(result) == failures(serial)


def read_csv_metrics(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(row[m]) for m in METRICS] for row in rows])


def test_cli_spellings_match(serial, tmp_path):
    """``--model phase-type``, ``--model phase-type-batched`` and
    ``--batched`` write the same CSV, equal to the serial grid rows."""
    n_grid = len(GRID.points())
    base = [
        "sweep", "--quiet",
        "--rate", "T=" + ",".join(map(repr, T_VALUES)),
        "--rate", "D=" + ",".join(map(repr, D_VALUES)),
        "--stages", "2", "--n-max", "10",
    ]
    for metric in METRICS:
        base += ["--metric", metric]
    spellings = {
        "plain": ["--model", "phase-type"],
        "alias": ["--model", "phase-type-batched"],
        "flag": ["--model", "phase-type", "--batched"],
    }
    tables = {}
    for name, extra in spellings.items():
        out = tmp_path / name
        assert cli_main(base + extra + ["--csv-dir", str(out)]) == 0
        tables[name] = read_csv_metrics(out / "sweep.csv")
    for name in spellings:
        np.testing.assert_array_equal(tables[name], table(serial)[:n_grid])


@pytest.mark.parametrize("kind", ["phase-type", "phase-type-batched"])
def test_service_rejects_batch_size_key(kind):
    with pytest.raises(RequestError, match="batch_size"):
        canonical_model_spec({"kind": kind, "batch_size": 4})


def test_batched_flag_is_hidden_from_help(capsys):
    with pytest.raises(SystemExit):
        cli_main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "--batched" not in out
    assert "--batch-size" not in out
