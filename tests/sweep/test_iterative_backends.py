"""Solver-method threading through the sweep subsystem and the demo nets."""

import numpy as np
import pytest

from repro.core.params import CPUModelParams
from repro.markov.ctmc import (
    CTMC,
    ConvergenceError,
    SolverCache,
    gmres_steady_state,
    power_steady_state,
    sparse_steady_state,
)
from repro.petri.ctmc_export import GSPNSolver
from repro.sweep import (
    PhaseTypeBackend,
    SweepGrid,
    SweepRunner,
    build_mm1k_net,
    build_wsn_cluster_net,
)
from repro.sweep.backends import GSPNBackend

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)


class TestGSPNMethodThreading:
    def test_solver_methods_agree_on_mm1k(self):
        solver = GSPNSolver(build_mm1k_net(K=15))
        lu = solver.solve(method="lu")
        gmres = solver.solve(method="gmres")
        power = solver.solve(method="power", tol=1e-13)
        ref = lu.mean_tokens("queue")
        assert abs(gmres.mean_tokens("queue") - ref) < 1e-8
        assert abs(power.mean_tokens("queue") - ref) < 1e-7

    def test_unknown_method_rejected_before_assembly(self):
        solver = GSPNSolver(build_mm1k_net(K=5))
        with pytest.raises(ValueError, match="qr"):
            solver.solve(method="qr")

    def test_backend_forwards_method_and_budget(self):
        backend = GSPNBackend(
            build_mm1k_net(K=15), method="power", tol=1e-15, max_iter=1
        )
        with pytest.raises(ConvergenceError):
            backend.solve({}).mean_tokens("queue")

    def test_backend_describe_names_solver(self):
        backend = GSPNBackend(build_mm1k_net(K=5), method="gmres")
        assert "gmres" in backend.describe()

    def test_runner_forwards_solver_to_wrapped_net(self):
        runner = SweepRunner(
            build_mm1k_net(K=10), ["mean_tokens:queue"], method="gmres"
        )
        result = runner.run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))
        reference = SweepRunner(
            build_mm1k_net(K=10), ["mean_tokens:queue"]
        ).run(SweepGrid({"arrive": [0.5, 1.0, 1.5]}))
        np.testing.assert_allclose(
            result.column("mean_tokens:queue"),
            reference.column("mean_tokens:queue"),
            rtol=0,
            atol=1e-8,
        )

    def test_runner_rejects_solver_args_with_backend_instance(self):
        backend = GSPNBackend(build_mm1k_net(K=5))
        with pytest.raises(ValueError, match="configure the backend"):
            SweepRunner(backend, ["mean_tokens:queue"], method="gmres")
        with pytest.raises(ValueError, match="configure the backend"):
            SweepRunner(backend, ["mean_tokens:queue"], tol=1e-8)

    def test_gmres_sweep_warm_starts_through_shared_cache(self):
        backend = GSPNBackend(build_mm1k_net(K=15), method="gmres")
        SweepRunner(backend, ["mean_tokens:queue"]).run(
            SweepGrid({"arrive": [0.5, 1.0, 1.5]})
        )
        assert "pi0" in backend.solver._factor_cache


class TestPhaseTypeMethodThreading:
    """The phase-type backend has one solver, the exact level recursion;
    the generic solvers on each point's own generator cross-check it."""

    def test_methods_agree_to_1e8(self):
        solution = PhaseTypeBackend(PARAMS, stages=8, n_max=25).solve({})
        pi_lu, _ = sparse_steady_state(solution.Q)
        pi_gmres = gmres_steady_state(solution.Q)
        pi_power = power_steady_state(solution.Q, tol=1e-13)
        np.testing.assert_allclose(solution.pi, pi_lu, rtol=0, atol=1e-8)
        np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-8)
        np.testing.assert_allclose(pi_power, pi_lu, rtol=0, atol=1e-8)

    def test_gmres_sweep_matches_lu_sweep(self):
        """A warm-started generic GMRES sweep over the points' generators
        matches both the backend's rows and their sparse LU."""
        backend = PhaseTypeBackend(PARAMS, stages=8, n_max=25)
        cache = SolverCache()
        for T in (0.2, 0.3, 0.4, 0.5):
            solution = backend.solve({"T": T})
            pi_gmres = gmres_steady_state(solution.Q, cache=cache)
            pi_lu, _ = sparse_steady_state(solution.Q)
            np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-7)
            np.testing.assert_allclose(solution.pi, pi_lu, rtol=0, atol=1e-7)
        assert "pi0" in cache

    def test_unknown_method_rejected_at_construction(self):
        for knob in (
            {"method": "cholesky"},
            {"method": "lu"},
            {"tol": 1e-8},
            {"max_iter": 10},
        ):
            with pytest.raises(TypeError, match=next(iter(knob))):
                PhaseTypeBackend(PARAMS, **knob)

    def test_convergence_error_carries_budget(self):
        solution = PhaseTypeBackend(PARAMS, stages=8, n_max=25).solve({})
        with pytest.raises(ConvergenceError) as exc_info:
            CTMC(solution.Q, backend="sparse").steady_state(
                method="power", tol=1e-15, max_iter=3
            )
        assert exc_info.value.iterations == 3

    def test_describe_names_solver(self):
        backend = PhaseTypeBackend(PARAMS, stages=8, n_max=25)
        assert backend.steady_method == "exact level-recursion"
        assert "exact level-recursion steady state" in backend.describe()

    def test_transient_metrics_reuse_iterative_solution(self):
        """Transient metrics of a recursion-solved point equal those of a
        fresh CTMC of the same generator, steady state from GMRES."""
        backend = PhaseTypeBackend(PARAMS, stages=8, n_max=20)
        solution = backend.solve({})
        energy = backend.evaluate(solution, "energy@5")
        tpl = solution.template
        reference = CTMC(solution.Q, backend="sparse")
        np.testing.assert_allclose(
            reference.steady_state(method="gmres"), solution.pi,
            rtol=0, atol=1e-8,
        )
        expected = reference.accumulated_reward(tpl.p0, tpl.power_mw, 5.0)
        assert abs(energy - expected / 1000.0) < 1e-6


class TestWSNClusterNet:
    def test_state_space_is_the_product_formula(self):
        solver = GSPNSolver(build_wsn_cluster_net(n_nodes=2, buffer_capacity=3))
        assert solver.n == (3 + 1) ** 2 * (2 + 1)

    def test_solves_and_channel_is_conserved(self):
        solver = GSPNSolver(build_wsn_cluster_net(n_nodes=2, buffer_capacity=4))
        solution = solver.solve(method="gmres")
        # the channel token is either free or held by exactly one tx place
        for marking in solution.tangible_markings:
            held = sum(marking[f"tx{i}"] for i in range(2))
            assert marking["ch"] + held == 1
        # stationary solve agrees with lu
        lu = solver.solve(method="lu")
        assert (
            abs(solution.mean_tokens("buf0") - lu.mean_tokens("buf0")) < 1e-8
        )

    def test_nodes_contend_for_the_channel(self):
        # with contention, a node's throughput is below its solo service
        # capacity even at light load; sanity-check both are positive
        solver = GSPNSolver(build_wsn_cluster_net(n_nodes=3, buffer_capacity=2))
        solution = solver.solve()
        for i in range(3):
            assert solution.throughput(f"rel{i}") > 0.0

    def test_axes_are_per_node_rates(self):
        backend = GSPNBackend(build_wsn_cluster_net(n_nodes=2, buffer_capacity=2))
        axes = backend.axis_names()
        assert {"arr0", "snd0", "rel0", "arr1", "snd1", "rel1"} <= set(axes)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            build_wsn_cluster_net(n_nodes=0)
        with pytest.raises(ValueError, match="buffer_capacity"):
            build_wsn_cluster_net(buffer_capacity=0)
