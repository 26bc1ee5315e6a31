"""GSPN steady-state solvers by chain size: the measurement behind
``repro.markov.ctmc.DENSE_MAX_STATES``.

A GSPN chain's steady state is solved by dense LU up to
``DENSE_MAX_STATES`` states and by ILU-GMRES above it.  This benchmark
times, per chain size of the repo's three GSPN demo nets (``cpu-gspn``,
``mm1k``, ``wsn-cluster``), best of N cold solves of

- dense LU (LAPACK on the augmented system, the production small-chain
  path, which solves twice when the first solve's most probable state is
  not the last),
- sparse LU (SuperLU, the reference in ``tests/markov/reference_solvers``),
- ILU-GMRES (``gmres_steady_state``, the production large-chain path),

prints the table, and asserts what the size rule rests on:

1. **Rows**: at every size, the rows the size rule produces agree with
   the sparse-LU reference to 1e-12 relative.
2. **Below**: at half the constant or less, dense LU beats GMRES.
3. **Above**: at twice the constant or more, GMRES beats both LUs.
4. **Regret**: at every size, the rule's pick is within 2x + 5 ms of the
   fastest of the three, so no size band is left to a third regime.
5. **Order-free rows**: past the constant, an 8-point sweep of the
   chain's first exponential rate solved forward and reversed gives
   bit-identical rows and failures — a GMRES solve depends on its own
   point alone.

Run from the repo root (it imports ``tests.markov``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_gspn_solvers.py -q -s
"""

import time

import numpy as np
import pytest

from repro.markov.ctmc import DENSE_MAX_STATES, dense_steady_state, gmres_steady_state
from repro.petri.analysis import ReachabilityOptions
from repro.petri.ctmc_export import GSPNSolver
from repro.sweep import SweepRunner
from repro.sweep.backends import GSPNBackend
from repro.sweep.nets import DEMO_NETS
from tests.markov.reference_solvers import sparse_steady_state

#: (net, constructor keywords) per measured chain
CASES = [
    ("cpu-gspn", {"buffer_capacity": b}) for b in (20, 60, 120, 160, 250, 300)
] + [
    ("mm1k", {"K": k}) for k in (100, 200, 500, 1000, 2000)
] + [
    ("wsn-cluster", {"n_nodes": n, "buffer_capacity": b})
    for n, b in ((2, 5), (2, 10), (2, 15), (3, 7), (3, 9))
]


def dense_lu(Q):
    """The production dense path: LAPACK on ``Q^T`` with the most probable
    state's balance equation replaced by ones."""
    return dense_steady_state(Q.toarray())


#: passes over the whole table (each cell keeps its best)
PASSES = 2

SOLVERS = {
    "dense": dense_lu,
    "sparse": lambda Q: sparse_steady_state(Q)[0],
    "gmres": gmres_steady_state,
}


def best_of(fn, rounds):
    fn()  # warm-up: first-call BLAS/SuperLU set-up is not the solve
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def metric_rows(solution, metrics):
    return np.array([getattr(solution, k)(a) for k, _, a in
                     (m.partition(":") for m in metrics)])


def measure_case(net, kwargs):
    """Build one chain; its size, rule pick and rule-vs-reference rows."""
    factory, metrics = DEMO_NETS[net]
    solver = GSPNSolver(
        factory(**kwargs), ReachabilityOptions(max_markings=2_000_000)
    )
    Q = solver.assemble_generator()
    solution = solver.solve()
    rule = metric_rows(solution, metrics)
    solution._pi = sparse_steady_state(Q)[0]
    reference = metric_rows(solution, metrics)
    return dict(
        net=net,
        kwargs=kwargs,
        Q=Q,
        n=solver.n,
        chosen="dense" if solver.n <= DENSE_MAX_STATES else "gmres",
        deviation=float(np.max(np.abs(rule - reference) / np.abs(reference))),
        ms={name: float("inf") for name in SOLVERS},
    )


@pytest.fixture(scope="module")
def table():
    rows = [measure_case(net, kwargs) for net, kwargs in CASES]
    # two passes over the whole table, keeping each cell's best: a
    # seconds-long stall of the shared machine (dense LU at 125 states has
    # been seen taking 110 ms in one pass, 0.2 ms in the next) then has
    # to hit the same cell twice to count
    for _ in range(PASSES):
        for r in rows:
            rounds = 5 if r["n"] <= 1000 else 2
            for name, fn in SOLVERS.items():
                ms = 1e3 * best_of(lambda f=fn: f(r["Q"]), rounds)
                r["ms"][name] = min(r["ms"][name], ms)
    print(f"\nDENSE_MAX_STATES = {DENSE_MAX_STATES}; best-of-N solve, ms")
    print(f"{'net':12s} {'size':>5s} {'states':>7s} {'dense LU':>9s} "
          f"{'sparse LU':>9s} {'GMRES':>9s}  rule   rows vs LU")
    for r in rows:
        size = ",".join(str(v) for v in r["kwargs"].values())
        ms = r["ms"]
        print(f"{r['net']:12s} {size:>5s} {r['n']:7d} {ms['dense']:9.2f} "
              f"{ms['sparse']:9.2f} {ms['gmres']:9.2f}  {r['chosen']:6s} "
              f"{r['deviation']:.1e}")
    return rows


def test_rows_match_sparse_lu_to_1e12(table):
    worst = max(table, key=lambda r: r["deviation"])
    assert worst["deviation"] <= 1e-12, worst


def test_dense_lu_wins_below_the_constant(table):
    below = [r for r in table if r["n"] <= DENSE_MAX_STATES // 2]
    assert below
    for r in below:
        assert r["ms"]["dense"] < r["ms"]["gmres"], r


def test_gmres_wins_above_the_constant(table):
    above = [r for r in table if r["n"] >= 2 * DENSE_MAX_STATES]
    assert above
    for r in above:
        assert r["ms"]["gmres"] < min(r["ms"]["dense"], r["ms"]["sparse"]), r


def test_rule_pick_within_2x_plus_5ms_of_fastest(table):
    for r in table:
        best = min(r["ms"].values())
        assert r["ms"][r["chosen"]] <= 2.0 * best + 5.0, r


#: the order-free check's grid, as rates of each net's first exponential
#: transition (``AR``, ``arrive``, ``arr0``: every net stays stable)
ORDER_RATES = list(np.linspace(0.4, 1.2, 8))


def test_rows_are_order_free_past_the_constant(table):
    past = [r for r in table if r["n"] > DENSE_MAX_STATES]
    assert past
    for r in past:
        factory, metrics = DEMO_NETS[r["net"]]
        backend = GSPNBackend(
            factory(**r["kwargs"]), ReachabilityOptions(max_markings=2_000_000)
        )
        axis = backend.axis_names()[0]
        points = [{axis: rate} for rate in ORDER_RATES]
        runner = SweepRunner(backend, list(metrics), preflight=False)
        forward = runner.run(points)
        backward = runner.run(points[::-1])
        rows = np.array([list(v.values()) for v in forward.values])
        back = np.array([list(v.values()) for v in backward.values])[::-1]
        np.testing.assert_array_equal(back, rows, err_msg=str(r["kwargs"]))
        assert [e.message for e in backward.errors][::-1] == [
            e.message for e in forward.errors
        ], r["kwargs"]
