"""Token-game simulator semantics: immediates, priorities, weights,
inhibitors, memory policies, and statistics."""

import math

import numpy as np
import pytest

from repro.des.distributions import Deterministic, Exponential, Uniform
from repro.des.engine import SimulationError
from repro.markov.queueing import MM1Queue
from repro.petri.net import PetriNet
from repro.petri.simulator import PetriNetSimulator
from repro.petri.transitions import MemoryPolicy


def figure1_net(rate: float = 1.0) -> PetriNet:
    """The paper's Figure 1: P0 --T0--> P1."""
    net = PetriNet("figure1")
    net.add_place("P0", initial=1)
    net.add_place("P1")
    net.add_timed_transition("T0", Exponential(rate))
    net.add_input_arc("P0", "T0")
    net.add_output_arc("T0", "P1")
    return net


class TestBasicTokenGame:
    def test_single_firing_moves_token(self):
        res = PetriNetSimulator(figure1_net(), seed=1).run(horizon=1000.0)
        assert res.final_marking["P0"] == 0
        assert res.final_marking["P1"] == 1
        assert res.firing_counts["T0"] == 1

    def test_mean_tokens_approach_one(self):
        # token moves to P1 after Exp(1) ~ 1s out of 100s
        res = PetriNetSimulator(figure1_net(1.0), seed=2).run(horizon=100.0)
        assert res.mean_tokens("P1") > 0.9
        assert res.mean_tokens("P0") + res.mean_tokens("P1") == pytest.approx(1.0)

    def test_unknown_place_raises(self):
        res = PetriNetSimulator(figure1_net(), seed=1).run(horizon=1.0)
        with pytest.raises(KeyError):
            res.mean_tokens("nope")
        with pytest.raises(KeyError):
            res.throughput("nope")

    def test_reproducible_with_seed(self):
        r1 = PetriNetSimulator(figure1_net(), seed=3).run(horizon=50.0)
        r2 = PetriNetSimulator(figure1_net(), seed=3).run(horizon=50.0)
        assert r1.mean_tokens("P1") == r2.mean_tokens("P1")

    def test_horizon_validation(self):
        sim = PetriNetSimulator(figure1_net(), seed=1)
        with pytest.raises(ValueError):
            sim.run(horizon=0.0)
        with pytest.raises(ValueError):
            sim.run(horizon=10.0, warmup=10.0)


class TestImmediateSemantics:
    def test_cascade_until_tangible(self):
        # a1 -> a2 -> a3 via two immediates, all at t=0
        net = PetriNet("cascade")
        net.add_place("a1", initial=1)
        net.add_place("a2")
        net.add_place("a3")
        net.add_immediate_transition("i1")
        net.add_input_arc("a1", "i1")
        net.add_output_arc("i1", "a2")
        net.add_immediate_transition("i2")
        net.add_input_arc("a2", "i2")
        net.add_output_arc("i2", "a3")
        res = PetriNetSimulator(net, seed=1).run(horizon=10.0)
        assert res.final_marking["a3"] == 1
        assert res.mean_tokens("a3") == pytest.approx(1.0)
        assert res.immediate_firings == 2

    def test_priority_selects_winner(self):
        # both immediates want the same token; higher priority wins always
        net = PetriNet("prio")
        net.add_place("src", initial=1)
        net.add_place("hi_out")
        net.add_place("lo_out")
        net.add_immediate_transition("hi", priority=5)
        net.add_immediate_transition("lo", priority=1)
        net.add_input_arc("src", "hi")
        net.add_input_arc("src", "lo")
        net.add_output_arc("hi", "hi_out")
        net.add_output_arc("lo", "lo_out")
        res = PetriNetSimulator(net, seed=1).run(horizon=1.0)
        assert res.final_marking["hi_out"] == 1
        assert res.final_marking["lo_out"] == 0

    def test_weights_split_conflicts(self):
        # 3:1 weighted conflict, resolved independently per token
        net = PetriNet("weights")
        net.add_place("src", initial=1)
        net.add_place("a_out")
        net.add_place("b_out")
        net.add_place("reload")
        net.add_timed_transition("feeder", Exponential(100.0))
        net.add_input_arc("reload", "feeder")
        net.add_output_arc("feeder", "src")
        net.add_immediate_transition("a", weight=3.0)
        net.add_immediate_transition("b", weight=1.0)
        net.add_input_arc("src", "a")
        net.add_input_arc("src", "b")
        net.add_output_arc("a", "a_out")
        net.add_output_arc("b", "b_out")
        # recycle outputs so the conflict repeats
        net.add_immediate_transition("recycle_a", priority=0)
        net.add_immediate_transition("recycle_b", priority=0)
        net.add_input_arc("a_out", "recycle_a")
        net.add_output_arc("recycle_a", "reload")
        net.add_input_arc("b_out", "recycle_b")
        net.add_output_arc("recycle_b", "reload")
        res = PetriNetSimulator(net, seed=7).run(horizon=200.0)
        total = res.firing_counts["a"] + res.firing_counts["b"]
        assert total > 1000
        share = res.firing_counts["a"] / total
        assert share == pytest.approx(0.75, abs=0.03)

    def test_zero_time_livelock_detected(self):
        # two immediates shuttle a token forever at t=0
        net = PetriNet("livelock")
        net.add_place("x", initial=1)
        net.add_place("y")
        net.add_immediate_transition("fwd")
        net.add_input_arc("x", "fwd")
        net.add_output_arc("fwd", "y")
        net.add_immediate_transition("back")
        net.add_input_arc("y", "back")
        net.add_output_arc("back", "x")
        sim = PetriNetSimulator(net, seed=1, max_immediate_chain=1000)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(horizon=1.0)


class TestInhibitors:
    def test_inhibitor_blocks_until_cleared(self):
        # t can only fire once 'blocker' drains via 'drain'
        net = PetriNet("inhibit")
        net.add_place("blocker", initial=1)
        net.add_place("src", initial=1)
        net.add_place("out")
        net.add_place("sink")
        net.add_timed_transition("drain", Deterministic(5.0))
        net.add_input_arc("blocker", "drain")
        net.add_output_arc("drain", "sink")
        net.add_timed_transition("t", Deterministic(1.0))
        net.add_input_arc("src", "t")
        net.add_inhibitor_arc("blocker", "t")
        net.add_output_arc("t", "out")
        res = PetriNetSimulator(net, seed=1).run(horizon=20.0)
        assert res.final_marking["out"] == 1
        # t could only start its 1s delay after the drain at t=5
        assert res.mean_tokens("out") == pytest.approx((20.0 - 6.0) / 20.0)

    def test_inhibitor_multiplicity_threshold(self):
        # t enabled while tokens < 2
        net = PetriNet("thresh")
        net.add_place("level", initial=1)
        net.add_place("src", initial=1)
        net.add_place("out")
        net.add_immediate_transition("t")
        net.add_input_arc("src", "t")
        net.add_inhibitor_arc("level", "t", multiplicity=2)
        net.add_output_arc("t", "out")
        res = PetriNetSimulator(net, seed=1).run(horizon=1.0)
        assert res.final_marking["out"] == 1  # 1 < 2: enabled


class TestMemoryPolicies:
    @staticmethod
    def _preemption_net(policy: MemoryPolicy) -> PetriNet:
        """'slow' (det 10) races 'fast' (det 3); fast disables slow via a
        shared token and returns it after 2s; measure slow's firing time."""
        net = PetriNet(f"preempt_{policy.value}")
        net.add_place("shared", initial=1)
        net.add_place("fast_src", initial=1)
        net.add_place("slow_done")
        net.add_place("fast_hold")
        net.add_timed_transition("slow", Deterministic(10.0), memory_policy=policy)
        net.add_input_arc("shared", "slow")
        net.add_output_arc("slow", "slow_done")
        net.add_timed_transition("fast", Deterministic(3.0))
        net.add_input_arc("fast_src", "fast")
        net.add_input_arc("shared", "fast")
        net.add_output_arc("fast", "fast_hold")
        net.add_timed_transition("release", Deterministic(2.0))
        net.add_input_arc("fast_hold", "release")
        net.add_output_arc("release", "shared")
        return net

    def _slow_firing_time(self, policy: MemoryPolicy) -> float:
        net = self._preemption_net(policy)
        sim = PetriNetSimulator(net, seed=1)
        res = sim.run(horizon=100.0)
        assert res.firing_counts["slow"] == 1
        # slow_done holds its token from the firing instant to the horizon
        return 100.0 * (1.0 - res.mean_tokens("slow_done"))

    def test_resample_restarts_clock(self):
        # slow enabled [0,3) preempted, re-enabled at 5, fires at 15
        assert self._slow_firing_time(MemoryPolicy.RESAMPLE) == pytest.approx(15.0)

    def test_age_resumes_clock(self):
        # 3s of age at preemption; remaining 7s after re-enable at 5 -> 12
        assert self._slow_firing_time(MemoryPolicy.AGE) == pytest.approx(12.0)

    def test_identical_repeats_same_sample(self):
        # deterministic: identical == resample
        assert self._slow_firing_time(MemoryPolicy.IDENTICAL) == pytest.approx(15.0)

    @staticmethod
    def _uniform_slow_net(policy: MemoryPolicy, preempt: bool) -> PetriNet:
        """Like _preemption_net but slow ~ Uniform(6, 20); identical net
        name so both variants draw the same first sample for 'slow'."""
        net = PetriNet("uniform_preempt")
        net.add_place("shared", initial=1)
        net.add_place("fast_src", initial=1 if preempt else 0)
        net.add_place("slow_done")
        net.add_place("fast_hold")
        net.add_timed_transition("slow", Uniform(6.0, 20.0), memory_policy=policy)
        net.add_input_arc("shared", "slow")
        net.add_output_arc("slow", "slow_done")
        net.add_timed_transition("fast", Deterministic(3.0))
        net.add_input_arc("fast_src", "fast")
        net.add_input_arc("shared", "fast")
        net.add_output_arc("fast", "fast_hold")
        net.add_timed_transition("release", Deterministic(2.0))
        net.add_input_arc("fast_hold", "release")
        net.add_output_arc("release", "shared")
        return net

    def test_identical_reuses_random_sample(self):
        # IDENTICAL: preempted at t=3, re-enabled at t=5, restarts the SAME
        # sample S -> fires at 5 + S, exactly 5 later than the
        # non-preempted run firing at S (same seed => same first sample).
        horizon = 200.0

        def firing_time(preempt: bool) -> float:
            net = self._uniform_slow_net(MemoryPolicy.IDENTICAL, preempt)
            res = PetriNetSimulator(net, seed=31).run(horizon=horizon)
            assert res.firing_counts["slow"] == 1
            return horizon * (1.0 - res.mean_tokens("slow_done"))

        assert firing_time(True) - firing_time(False) == pytest.approx(5.0)

    def test_age_memory_accumulates_across_multiple_preemptions(self):
        # 'slow' needs 10s of cumulative enabling; it is enabled in windows
        # of 3s (then preempted for 2s, repeatedly).  Under AGE it fires
        # after accumulating 10s of age: windows [0,3),[5,8),[10,13),[15,16]
        # -> 3+3+3+1 = 10 at t=16.
        net = self._preemption_net(MemoryPolicy.AGE)
        # make the preemption cycle repeat: feed fast_src from release
        net.add_output_arc("release", "fast_src")
        sim = PetriNetSimulator(net, seed=2)
        res = sim.run(horizon=100.0)
        assert res.firing_counts["slow"] == 1
        fired_at = 100.0 * (1.0 - res.mean_tokens("slow_done"))
        assert fired_at == pytest.approx(16.0)

    def test_exponential_unaffected_by_policy_in_mean(self):
        # memorylessness: resample vs age give the same steady state
        def build(policy):
            net = PetriNet("expo")
            net.add_place("on", initial=1)
            net.add_place("off")
            net.add_timed_transition(
                "down", Exponential(1.0), memory_policy=policy
            )
            net.add_input_arc("on", "down")
            net.add_output_arc("down", "off")
            net.add_timed_transition("up", Exponential(1.0))
            net.add_input_arc("off", "up")
            net.add_output_arc("up", "on")
            return net

        r1 = PetriNetSimulator(build(MemoryPolicy.RESAMPLE), seed=5).run(5000.0)
        r2 = PetriNetSimulator(build(MemoryPolicy.AGE), seed=5).run(5000.0)
        assert r1.mean_tokens("on") == pytest.approx(0.5, abs=0.03)
        assert r2.mean_tokens("on") == pytest.approx(0.5, abs=0.03)


class TestStatistics:
    def test_mm1_mean_queue_matches_theory(self):
        lam, mu = 1.0, 2.0
        net = PetriNet("mm1")
        net.add_place("gen", initial=1)
        net.add_place("queue")
        net.add_timed_transition("arrive", Exponential(lam))
        net.add_input_arc("gen", "arrive")
        net.add_output_arc("arrive", "gen")
        net.add_output_arc("arrive", "queue")
        net.add_timed_transition("serve", Exponential(mu))
        net.add_input_arc("queue", "serve")
        res = PetriNetSimulator(net, seed=11).run(horizon=30_000.0, warmup=500.0)
        q = MM1Queue(lam, mu)
        assert res.mean_tokens("queue") == pytest.approx(
            q.mean_number_in_system(), rel=0.05
        )
        assert res.throughput("serve") == pytest.approx(lam, rel=0.03)

    def test_watchers(self):
        net = figure1_net(1.0)
        sim = PetriNetSimulator(net, seed=4)
        sim.watch_place_positive("p1_busy", "P1")
        res = sim.run(horizon=100.0)
        assert res.watcher("p1_busy") == pytest.approx(res.mean_tokens("P1"))

    def test_watch_unknown_place_raises_key_error(self):
        sim = PetriNetSimulator(figure1_net(), seed=4)
        with pytest.raises(KeyError, match="unknown place 'nope'"):
            sim.watch_place_positive("busy", "nope")

    def test_warmup_excludes_initial_transient(self):
        # token leaves P0 around t~1; with warmup 50 P1 should read ~1.0
        res = PetriNetSimulator(figure1_net(1.0), seed=6).run(
            horizon=100.0, warmup=50.0
        )
        assert res.mean_tokens("P1") == pytest.approx(1.0)
        assert res.observed_time == pytest.approx(50.0)

    def test_max_firings_stops_early(self):
        net = PetriNet("loop")
        net.add_place("a", initial=1)
        net.add_place("b")
        net.add_timed_transition("go", Exponential(10.0))
        net.add_input_arc("a", "go")
        net.add_output_arc("go", "b")
        net.add_timed_transition("back", Exponential(10.0))
        net.add_input_arc("b", "back")
        net.add_output_arc("back", "a")
        res = PetriNetSimulator(net, seed=2).run(horizon=1e9, max_firings=100)
        total = sum(res.firing_counts.values())
        assert total == 100

    def test_max_firings_reached_in_warmup_ends_the_run(self):
        # every timed 'go' is followed by one immediate 'back': the cap of
        # 10 firings is reached at t ~ 1, long before the warm-up ends
        net = PetriNet("pingpong")
        net.add_place("a", initial=1)
        net.add_place("b")
        net.add_timed_transition("go", Exponential(5.0))
        net.add_input_arc("a", "go")
        net.add_output_arc("go", "b")
        net.add_immediate_transition("back")
        net.add_input_arc("b", "back")
        net.add_output_arc("back", "a")
        res = PetriNetSimulator(net, seed=4).run(
            horizon=1e9, warmup=1e6, max_firings=10
        )
        assert res.events_executed == 5 and res.immediate_firings == 5
        # no event runs after the cap: the window sees the frozen marking
        assert res.firing_counts == {"go": 0, "back": 0}
        assert res.mean_tokens_dict() == {"a": 1.0, "b": 0.0}
        assert res.observed_time == 1e9 - 1e6
