"""Rate rebinding: GSPNSolver re-solves nets without re-exploration."""

import numpy as np
import pytest

from repro.des.distributions import Exponential
from repro.markov.ctmc import CTMC
from repro.petri.ctmc_export import GSPNSolver, ctmc_from_net
from repro.petri.net import PetriNet


def mm1k_net(lam: float, mu: float, K: int = 6) -> PetriNet:
    net = PetriNet("mm1k")
    net.add_place("free", initial=K)
    net.add_place("queue")
    net.add_timed_transition("arrive", Exponential(lam))
    net.add_input_arc("free", "arrive")
    net.add_output_arc("arrive", "queue")
    net.add_timed_transition("serve", Exponential(mu))
    net.add_input_arc("queue", "serve")
    net.add_output_arc("serve", "free")
    return net


def staged_net(lam: float, mu: float, K: int = 5) -> PetriNet:
    """Arrivals through an immediate stage — exercises vanishing reuse."""
    net = PetriNet("staged")
    net.add_place("free", initial=K)
    net.add_place("staging")
    net.add_place("queue")
    net.add_timed_transition("arrive", Exponential(lam))
    net.add_input_arc("free", "arrive")
    net.add_output_arc("arrive", "staging")
    net.add_immediate_transition("route")
    net.add_input_arc("staging", "route")
    net.add_output_arc("route", "queue")
    net.add_timed_transition("serve", Exponential(mu))
    net.add_input_arc("queue", "serve")
    net.add_output_arc("serve", "free")
    return net


class TestRebindMatchesFreshSolve:
    @pytest.mark.parametrize("factory", [mm1k_net, staged_net])
    @pytest.mark.parametrize("lam,mu", [(0.4, 3.0), (1.3, 2.2), (2.0, 2.1)])
    def test_rebound_equals_rebuilt(self, factory, lam, mu):
        solver = GSPNSolver(factory(1.0, 1.0))
        rebound = solver.solve(rates={"arrive": lam, "serve": mu})
        fresh = ctmc_from_net(factory(lam, mu))
        for place in ("free", "queue"):
            assert rebound.mean_tokens(place) == pytest.approx(
                fresh.mean_tokens(place), rel=1e-9
            )
        assert rebound.throughput("serve") == pytest.approx(
            fresh.throughput("serve"), rel=1e-9
        )

    def test_partial_override_keeps_net_rates(self):
        solver = GSPNSolver(mm1k_net(1.0, 2.0))
        sol = solver.solve(rates={"arrive": 1.5})
        fresh = ctmc_from_net(mm1k_net(1.5, 2.0))
        assert sol.mean_tokens("queue") == pytest.approx(
            fresh.mean_tokens("queue"), rel=1e-9
        )
        assert sol.rates == {"arrive": 1.5, "serve": 2.0}

    def test_default_solve_equals_ctmc_from_net(self):
        net = mm1k_net(1.0, 2.0)
        a = GSPNSolver(net).solve()
        b = ctmc_from_net(mm1k_net(1.0, 2.0))
        assert np.allclose(a.ctmc.steady_state(), b.ctmc.steady_state())
        assert a.rates == b.rates == {"arrive": 1.0, "serve": 2.0}

    def test_transient_after_rebind(self):
        solver = GSPNSolver(mm1k_net(1.0, 2.0))
        sol = solver.solve(rates={"arrive": 0.7})
        fresh = ctmc_from_net(mm1k_net(0.7, 2.0))
        p_sol = sol.ctmc.transient(sol.initial_distribution, 2.5)
        p_fresh = fresh.ctmc.transient(fresh.initial_distribution, 2.5)
        assert np.max(np.abs(p_sol - p_fresh)) < 1e-9

    def test_many_points_share_one_graph(self):
        solver = GSPNSolver(mm1k_net(1.0, 2.0))
        graph = solver.graph
        for lam in (0.3, 0.9, 1.7):
            sol = solver.solve(rates={"arrive": lam})
            assert sol.graph is graph  # no re-exploration


class TestRebindValidation:
    def test_unknown_transition_rejected(self):
        solver = GSPNSolver(mm1k_net(1.0, 2.0))
        with pytest.raises(KeyError, match="nope"):
            solver.solve(rates={"nope": 1.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_rate_rejected(self, bad):
        solver = GSPNSolver(mm1k_net(1.0, 2.0))
        with pytest.raises(ValueError, match="finite and > 0"):
            solver.solve(rates={"arrive": bad})

    def test_exponential_transitions_listed(self):
        solver = GSPNSolver(staged_net(1.0, 2.0))
        assert sorted(solver.exponential_transitions) == ["arrive", "serve"]


class TestSolutionCaching:
    """GSPNSolution solves pi once and reuses it everywhere."""

    def test_steady_state_solved_once_across_queries(self, monkeypatch):
        from repro.markov.ctmc import CTMC

        calls = {"n": 0}
        original = CTMC._solve_steady_state

        def counting(self, *args):
            calls["n"] += 1
            return original(self, *args)

        monkeypatch.setattr(CTMC, "_solve_steady_state", counting)
        sol = ctmc_from_net(mm1k_net(1.0, 2.0))
        sol.steady_state()
        sol.mean_tokens("queue")
        sol.probability_positive("queue")
        sol.throughput("serve")
        sol.throughput("arrive")
        assert calls["n"] == 1

    def test_cached_queries_match_fresh_solution(self):
        sol = ctmc_from_net(mm1k_net(1.0, 2.0))
        warm = (sol.mean_tokens("queue"), sol.throughput("serve"))
        fresh = ctmc_from_net(mm1k_net(1.0, 2.0))
        assert warm[0] == pytest.approx(fresh.mean_tokens("queue"), rel=1e-12)
        assert warm[1] == pytest.approx(fresh.throughput("serve"), rel=1e-12)


class TestBackendChoice:
    def test_solver_backends_agree(self):
        """Dense and sparse storage of the solver's generator agree."""
        solver = GSPNSolver(staged_net(1.3, 2.2))
        Q = solver.assemble_generator()
        dense = CTMC(Q.toarray(), backend="dense")
        sp = CTMC(Q, backend="sparse")
        assert (dense.backend, sp.backend) == ("dense", "sparse")
        assert solver.solve().ctmc.backend == "dense"  # small: dense LU
        assert np.max(np.abs(dense.steady_state() - sp.steady_state())) < 1e-9

    def test_auto_backend_small_net_is_dense(self):
        sol = ctmc_from_net(mm1k_net(1.0, 2.0))
        assert sol.ctmc.backend == "dense"
