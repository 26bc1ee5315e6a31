"""The phase-type template against the per-state loop it replaced.

``PhaseTypeBackend.prepare`` fills the collapse vectors by slicing the
level-recursion lattice's blocks and leaves the generator skeleton (the
state list and the CSR pattern) to the first ``solution.Q``.  The oracle
here is a copy of the eager construction that walked the state list of
:func:`repro.core.phase_type.build_stage_structure` one state at a time:
every vector must be ``np.array_equal`` to it (and of the same dtype),
the lazy generator must have its exact CSR arrays — also after the
template went through ``pickle`` — and the transient metrics read off
either must agree bit for bit.
"""

import pickle

import numpy as np
import pytest
from scipy import sparse

from repro.core.params import STATE_NAMES, CPUModelParams
from repro.core.phase_type import build_stage_structure, state_power_vector
from repro.sweep import PhaseTypeBackend, SweepGrid, SweepRunner
from repro.sweep.backends.phase_type import (
    GeneratorSkeleton,
    PhaseTypeSweepSolution,
    PhaseTypeTemplate,
)
from repro.sweep.distributed import DistributedSweepRunner
from tests.sweep.service.fixture import ServiceFixture

KIND_TO_STATE = {
    "busy": "active",
    "powerup": "powerup",
    "standby": "standby",
    "idle": "idle",
}

STAGE_CONFIGS = [
    dict(stages=1),
    dict(stages=2),
    dict(stages=16),
    dict(stages=64),
    dict(stages=4, stages_powerup=3, stages_idle=7),
]
N_MAX = [2, None, 40]
CONFIGS = [dict(cfg, n_max=n) for cfg in STAGE_CONFIGS for n in N_MAX]


def config_id(cfg):
    return "-".join(f"{k}={v}" for k, v in cfg.items())


def eager_template(backend):
    """The eager ``_prepare``: skeleton and vectors from the state list."""
    states, _, rows, cols, rate_ids = build_stage_structure(
        backend.k_d, backend.k_t, backend.n_max, True, True
    )
    n = len(states)
    order = np.lexsort((cols, rows))
    rows, cols, rate_ids = rows[order], cols[order], rate_ids[order]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    kind_masks = {name: np.zeros(n) for name in STATE_NAMES}
    jobs = np.zeros(n)
    trunc = np.zeros(n)
    for i, s in enumerate(states):
        kind_masks[KIND_TO_STATE[s[0]]][i] = 1.0
        if s[0] in ("powerup", "busy"):
            jobs[i] = s[-1]
            if s[-1] == backend.n_max:
                trunc[i] = 1.0
    p0 = np.zeros(n)
    p0[0] = 1.0
    return PhaseTypeTemplate(
        n_states=n,
        lattice=backend.prepare().lattice,
        kind_masks=kind_masks,
        jobs=jobs,
        trunc_mask=trunc,
        power_mw=state_power_vector(states, backend.params.profile),
        p0=p0,
    ), GeneratorSkeleton(states, indptr, cols, rate_ids)


def eager_generator(skeleton, n, rate_vec):
    off = sparse.csr_matrix(
        (rate_vec[skeleton.rate_pick], skeleton.indices, skeleton.indptr),
        shape=(n, n),
    )
    exit_rates = np.asarray(off.sum(axis=1)).ravel()
    return (off - sparse.diags(exit_rates)).tocsr()


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_sliced_vectors_equal_the_per_state_loop(cfg):
    backend = PhaseTypeBackend(**cfg)
    tpl = backend.prepare()
    want, _ = eager_template(backend)
    assert tpl.n_states == want.n_states == tpl.lattice.n_states
    assert list(tpl.kind_masks) == list(want.kind_masks)
    for name in STATE_NAMES:
        assert_same_array(tpl.kind_masks[name], want.kind_masks[name])
    for field in ("jobs", "trunc_mask", "power_mw", "p0"):
        assert_same_array(getattr(tpl, field), getattr(want, field))
    # prepare leaves the skeleton for the first generator
    assert "skeleton" not in vars(tpl)


@pytest.mark.parametrize(
    "cfg", [dict(stages=2), dict(stages=4, stages_powerup=3, stages_idle=7, n_max=40)],
    ids=config_id,
)
@pytest.mark.parametrize("when", ["fresh", "pickled", "pickled-after-Q"])
def test_lazy_generator_matches_the_eager_csr(cfg, when):
    backend = PhaseTypeBackend(**cfg)
    tpl = backend.prepare()
    point = {"T": 0.7, "D": 0.2}
    if when == "pickled-after-Q":
        backend.solve(point).Q  # the skeleton travels with the template
        assert "skeleton" in vars(tpl)
    if when != "fresh":
        tpl = pickle.loads(pickle.dumps(tpl))
        assert ("skeleton" in vars(tpl)) == (when == "pickled-after-Q")
    sol = backend.solve(point)
    sol = PhaseTypeSweepSolution(tpl, sol.params, sol.rate_vec, sol.pi)
    want_tpl, want_skeleton = eager_template(backend)
    assert sol.template.skeleton.states == want_skeleton.states
    assert_same_csr(
        sol.Q, eager_generator(want_skeleton, want_tpl.n_states, sol.rate_vec)
    )


@pytest.mark.parametrize("stages", [2, 16])
def test_transient_metrics_read_the_eager_path_bitwise(stages):
    backend = PhaseTypeBackend(stages=stages)
    want_tpl, want_skeleton = eager_template(backend)
    want_tpl.__dict__["skeleton"] = want_skeleton  # the eager generator
    for point in ({"T": 0.05, "D": 0.001}, {"T": 1.3, "D": 0.3}):
        sol = backend.solve(point)
        eager = PhaseTypeSweepSolution(want_tpl, sol.params, sol.rate_vec, sol.pi)
        for metric in ("energy@10", "time_to_threshold:0.01"):
            assert backend.evaluate(sol, metric) == backend.evaluate(
                eager, metric
            )


def test_steady_metrics_equal_the_state_fractions_path():
    backend = PhaseTypeBackend(stages=16)
    for T in (0.05, 0.7, 2.0):
        sol = backend.solve({"T": T, "D": 0.3})
        fractions = sol.fractions()
        for _ in range(2):  # the second read comes from the stored vector
            for name in STATE_NAMES:
                got = backend.evaluate(sol, f"fraction:{name}")
                assert got == getattr(fractions, name)
            assert backend.evaluate(sol, "power") == sol.power_mw()
            assert backend.evaluate(sol, "mean_jobs") == sol.mean_jobs()
            assert (
                backend.evaluate(sol, "truncation_mass")
                == sol.truncation_mass()
            )


GRID = SweepGrid({"T": [0.2, 0.9], "D": [0.05, 0.4]})
WORKER_METRICS = ["power", "energy@2", "fraction:idle@1"]


def worker_backend(with_skeleton):
    backend = PhaseTypeBackend(CPUModelParams.paper_defaults(), stages=2, n_max=10)
    if with_skeleton:
        backend.solve({"T": 0.5}).Q
    return backend


@pytest.fixture(scope="module")
def serial_rows():
    result = SweepRunner(
        worker_backend(False), WORKER_METRICS, preflight=False
    ).run(GRID)
    return np.array([[r[m] for m in WORKER_METRICS] for r in result.rows()])


@pytest.mark.parametrize("with_skeleton", [False, True], ids=["lazy", "built"])
@pytest.mark.parametrize("path", ["pool", "distributed"])
def test_shipped_templates_give_serial_rows(serial_rows, path, with_skeleton):
    backend = worker_backend(with_skeleton)
    if path == "pool":
        runner = SweepRunner(
            backend, WORKER_METRICS, n_workers=2, preflight=False
        )
    else:
        runner = DistributedSweepRunner(
            backend, WORKER_METRICS, n_shards=2, preflight=False
        )
    result = runner.run(GRID)
    rows = np.array([[r[m] for m in WORKER_METRICS] for r in result.rows()])
    np.testing.assert_array_equal(rows, serial_rows)


def test_service_workers_give_serial_rows(serial_rows):
    with ServiceFixture(telemetry=False, n_workers=2) as svc:
        reply = svc.request({
            "op": "sweep",
            "model": {"kind": "phase-type", "stages": 2, "n_max": 10},
            "axes": {"T": [0.2, 0.9], "D": [0.05, 0.4]},
            "metrics": WORKER_METRICS,
        })
    assert reply["kind"] == "result", reply
    np.testing.assert_array_equal(np.array(reply["rows"]), serial_rows)
