"""The steady-state size rule through the sweep subsystem and the demo
nets, cross-checked against the reference solvers."""

import numpy as np
import pytest

import repro.markov.ctmc as ctmc_mod
from repro import obs
from repro.core.params import CPUModelParams
from repro.markov.ctmc import (
    CTMC,
    DENSE_MAX_STATES,
    ConvergenceError,
    gmres_steady_state,
)
from repro.des.distributions import Exponential
from repro.petri.ctmc_export import GSPNSolver
from repro.petri.net import PetriNet
from repro.sweep import (
    PhaseTypeBackend,
    SweepGrid,
    SweepRunner,
    build_mm1k_net,
    build_wsn_cluster_net,
)
from repro.sweep.backends import GSPNBackend
from repro.sweep.nets import DEMO_NETS
from tests.markov.reference_solvers import (
    power_steady_state,
    sparse_steady_state,
)

PARAMS = CPUModelParams.paper_defaults(T=0.3, D=0.05)


#: an mm1k capacity whose chain (K + 1 states) is past the size rule
BIG_K = DENSE_MAX_STATES + 99


class TestGSPNMethodThreading:
    def test_solver_methods_agree_on_mm1k(self):
        solver = GSPNSolver(build_mm1k_net(K=15))
        solution = solver.solve()
        Q = solver.assemble_generator()
        pi = solution.ctmc.steady_state()
        np.testing.assert_allclose(
            pi, sparse_steady_state(Q)[0], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(pi, gmres_steady_state(Q), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            pi, power_steady_state(Q, tol=1e-13), rtol=0, atol=1e-7
        )

    def test_unknown_method_rejected_before_assembly(self):
        solver = GSPNSolver(build_mm1k_net(K=5))
        for knob in ({"method": "qr"}, {"backend": "dense"}, {"tol": 1e-8}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                solver.solve(**knob)

    def test_backend_forwards_method_and_budget(self, monkeypatch):
        """A chain past the size rule runs GMRES under the module budget;
        a stall fails the solve with ConvergenceError."""
        backend = GSPNBackend(build_mm1k_net(K=BIG_K))
        assert backend.steady_method == "gmres"
        monkeypatch.setattr(ctmc_mod, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(ctmc_mod, "ILU_SETTINGS", ((1.0, 1),))
        with pytest.raises(ConvergenceError):
            backend.solve({}).mean_tokens("queue")

    def test_backend_describe_names_solver(self):
        assert "lu steady state" in GSPNBackend(build_mm1k_net(K=5)).describe()
        backend = GSPNBackend(build_mm1k_net(K=BIG_K))
        assert "gmres steady state" in backend.describe()

    def test_runner_forwards_solver_to_wrapped_net(self):
        """A net handed to the runner is wrapped in a GSPNBackend, whose
        solver is the size rule's: rows equal the explicit backend's."""
        grid = SweepGrid({"arrive": [0.5, 1.0, 1.5]})
        runner = SweepRunner(build_mm1k_net(K=BIG_K), ["mean_tokens:queue"])
        assert runner.model.steady_method == "gmres"
        reference = SweepRunner(
            GSPNBackend(build_mm1k_net(K=BIG_K)), ["mean_tokens:queue"]
        ).run(grid)
        np.testing.assert_array_equal(
            runner.run(grid).column("mean_tokens:queue"),
            reference.column("mean_tokens:queue"),
        )

    def test_runner_rejects_solver_args_with_backend_instance(self):
        backend = GSPNBackend(build_mm1k_net(K=5))
        for knob in ("method", "tol", "max_iter", "backend"):
            with pytest.raises(TypeError, match=knob):
                SweepRunner(backend, ["mean_tokens:queue"], **{knob: None})
            with pytest.raises(TypeError, match=knob):
                SweepRunner(build_mm1k_net(K=5), ["mean_tokens:queue"],
                            **{knob: None})



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
        """A generic GMRES sweep over the points' generators, sharing one
        state ordering, matches both the backend's rows and their sparse
        LU."""
        backend = PhaseTypeBackend(PARAMS, stages=8, n_max=25)
        cache = {}
        for T in (0.2, 0.3, 0.4, 0.5):
            solution = backend.solve({"T": T})
            pi_gmres = gmres_steady_state(solution.Q, cache=cache)
            pi_lu, _ = sparse_steady_state(solution.Q)
            np.testing.assert_allclose(pi_gmres, pi_lu, rtol=0, atol=1e-7)
            np.testing.assert_allclose(solution.pi, pi_lu, rtol=0, atol=1e-7)
        assert "rcm_perm" in cache

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
            power_steady_state(solution.Q, tol=1e-15, max_iter=3)
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
            gmres_steady_state(solution.Q), solution.pi, rtol=0, atol=1e-8
        )
        expected = reference.accumulated_reward(tpl.p0, tpl.power_mw, 5.0)
        assert abs(energy - expected / 1000.0) < 1e-6


class TestWSNClusterNet:
    def test_state_space_is_the_product_formula(self):
        solver = GSPNSolver(build_wsn_cluster_net(n_nodes=2, buffer_capacity=3))
        assert solver.n == (3 + 1) ** 2 * (2 + 1)

    def test_solves_and_channel_is_conserved(self):
        solver = GSPNSolver(build_wsn_cluster_net(n_nodes=2, buffer_capacity=4))
        solution = solver.solve()
        # the channel token is either free or held by exactly one tx place
        for marking in solution.tangible_markings:
            held = sum(marking[f"tx{i}"] for i in range(2))
            assert marking["ch"] + held == 1
        # stationary solve agrees with GMRES
        solution._pi = gmres_steady_state(solution.ctmc.Q_sparse)
        assert (
            abs(solution.mean_tokens("buf0") - solver.solve().mean_tokens("buf0"))
            < 1e-8
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


def _split_net(capacity=30):
    """Arrivals split 3:1 by immediate weights between two bounded
    queues: a 962-state chain whose weak ILU hits a zero pivot."""
    net = PetriNet("split")
    net.add_place("gen", initial=1)
    net.add_place("staging")
    net.add_place("qa", capacity=capacity)
    net.add_place("qb", capacity=capacity)
    net.add_timed_transition("arrive", Exponential(1.0))
    net.add_input_arc("gen", "arrive")
    net.add_output_arc("arrive", "staging")
    for name, queue, weight in (("to_a", "qa", 3.0), ("to_b", "qb", 1.0)):
        net.add_immediate_transition(name, weight=weight)
        net.add_input_arc("staging", name)
        net.add_output_arc(name, queue)
        net.add_output_arc(name, "gen")
    for queue in ("qa", "qb"):
        net.add_timed_transition(f"serve_{queue}", Exponential(5.0))
        net.add_input_arc(queue, f"serve_{queue}")
    return net


class TestGMRESPreconditionerFallback:
    def test_split_net_solves_through_the_strong_ilu(self):
        solver = GSPNSolver(_split_net())
        assert solver.n > DENSE_MAX_STATES
        with obs.tracing("split") as trace:
            solution = solver.solve()
            rows = [solution.mean_tokens(q) for q in ("qa", "qb")]
        solution._pi = sparse_steady_state(solver.assemble_generator())[0]
        reference = [solution.mean_tokens(q) for q in ("qa", "qb")]
        np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=0)
        builds = [sp for sp in trace.spans if sp.name == "solve.ilu_build"]
        assert "failed" not in builds[-1].attrs  # preconditioned


class TestSizeRuleRows:
    """On both sides of ``DENSE_MAX_STATES``, a sweep's rows agree with the
    reference sparse LU of each point to 1e-12 relative."""

    @pytest.mark.parametrize("net, size, axis, method", [
        ("mm1k", {"K": 400}, "arrive", "lu"),
        ("mm1k", {"K": 1000}, "arrive", "gmres"),
        ("cpu-gspn", {"buffer_capacity": 160}, "AR", "lu"),
        ("cpu-gspn", {"buffer_capacity": 250}, "AR", "gmres"),
        ("wsn-cluster", {"n_nodes": 2, "buffer_capacity": 10}, "arr0", "lu"),
        ("wsn-cluster", {"n_nodes": 3, "buffer_capacity": 7}, "arr0", "gmres"),
    ], ids=lambda v: "-".join(map(str, v.values())) if isinstance(v, dict) else v)
    def test_rows_match_reference_lu(self, net, size, axis, method):
        factory, metrics = DEMO_NETS[net]
        backend = GSPNBackend(factory(**size))
        assert backend.steady_method == method
        base = backend.solver._base_rates[backend.solver._exp_names[axis]]
        values = [0.8 * base, base, 1.2 * base]
        result = SweepRunner(backend, list(metrics)).run(SweepGrid({axis: values}))
        for i, value in enumerate(values):
            solution = backend.solver.solve({axis: value})
            solution._pi = sparse_steady_state(solution.ctmc.Q_sparse)[0]
            for metric in metrics:
                kind, _, arg = metric.partition(":")
                assert result.column(metric)[i] == pytest.approx(
                    getattr(solution, kind)(arg), rel=1e-12, abs=0
                ), (metric, value)
