"""Simulator engine: clock monotonicity, scheduling rules, stop conditions."""

import pytest

from repro.des.engine import SimulationError, Simulator


class TestScheduling:
    def test_actions_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_actions_can_schedule_followups(self):
        sim = Simulator()
        log = []

        def chain(n: int) -> None:
            log.append(sim.now)
            if n > 0:
                sim.schedule(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert log == [0.0, 1.0, 2.0, 3.0]


class TestRunUntil:
    def test_clock_lands_exactly_on_horizon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_events_at_horizon_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == [True]

    def test_events_beyond_horizon_do_not_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0001, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == []
        assert sim.pending_count() == 1

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_resume_after_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(7.0, lambda: log.append(7))
        sim.run_until(5.0)
        assert log == [1]
        sim.run_until(10.0)
        assert log == [1, 7]


class TestStopAndBudget:
    def test_stop_halts_run(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, lambda: log.append(2))
        sim.run()
        assert log[0] == 1
        assert 2 not in log

    def test_event_budget_raises(self):
        sim = Simulator(max_events=10)

        def loop() -> None:
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_cancel_prevents_action(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(True))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_leaves_no_pending_count(self):
        sim = Simulator()
        cancelled = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(cancelled)
        sim.run()
        assert sim.pending_count() == 0
        assert not sim.queue

    def test_cancel_after_fire_keeps_pending_count(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        sim.cancel(fired)
        assert sim.pending_count() == 1
        sim.run()
        assert (sim.events_executed, sim.pending_count()) == (2, 0)

    def test_trace_hook_sees_every_event(self):
        seen = []
        sim = Simulator(trace_hook=lambda t, ev: seen.append(t))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPerCallBudget:
    """``max_events`` caps the events of one ``run``/``run_until`` call."""

    @staticmethod
    def _ticker(sim: Simulator) -> None:
        def tick() -> None:
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)

    def test_run_until_budget_counts_from_the_call(self):
        sim = Simulator(max_events=10)
        self._ticker(sim)
        sim.run_until(10.0)  # a warm-up: exactly the budget
        sim.run_until(20.0)  # ten more, not a lifetime cap of ten
        assert sim.events_executed == 20
        with pytest.raises(SimulationError, match="budget of 10"):
            sim.run_until(100.0)
        assert sim.events_executed == 30

    def test_run_budget_counts_from_the_call(self):
        sim = Simulator(max_events=5)
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run_until(2.0)
        assert sim.events_executed == 3
        sim.run()  # two left: within this call's budget
        assert sim.events_executed == 5
        self._ticker(sim)
        with pytest.raises(SimulationError, match="budget of 5"):
            sim.run()
        assert sim.events_executed == 10


class TestDrainLoop:
    def test_compaction_mid_run_keeps_order_and_counts(self):
        # three far-future timers withdrawn per firing: dead entries pile up
        # until the compaction every 4096 events rebuilds the heap, and the
        # loop must keep popping from the rebuilt one
        sim = Simulator()
        fired = []
        peak = [0]

        def fire(i: int) -> None:
            fired.append((sim.now, i))
            peak[0] = max(peak[0], len(sim.queue._heap))
            if i + 1 < 10_000:
                for k in range(3):
                    sim.cancel(sim.schedule(1e6 + k, lambda: None))
                sim.schedule(1.0, lambda: fire(i + 1))

        sim.schedule(0.0, lambda: fire(0))
        sim.run_until(1e9)
        assert fired == [(float(i), i) for i in range(10_000)]
        assert sim.events_executed == 10_000
        assert sim.pending_count() == 0
        assert peak[0] < 3 * 4096 + 8, "dead timers were never compacted"

    def test_same_time_events_keep_scheduling_order_across_compaction(self):
        sim = Simulator()
        order = []
        doomed = [sim.schedule(5.0, lambda: None) for _ in range(9000)]
        for i in range(5000):
            sim.schedule(1.0, lambda i=i: order.append(i))
        for ev in doomed:
            sim.cancel(ev)
        sim.run()
        assert order == list(range(5000))
        assert sim.events_executed == 5000

    def test_raising_action_is_not_counted(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: 1 / 0)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert sim.events_executed == 1
        assert sim.now == 2.0
        sim.run()  # the queue is intact after the failure
        assert sim.events_executed == 2

    def test_step_is_a_single_event(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append(2))
        sim.cancel(sim.schedule(1.0, lambda: log.append(1)))
        assert sim.step() is True
        assert (log, sim.now, sim.events_executed) == ([2], 2.0, 1)
        assert sim.step() is False


class TestKernelMode:
    """A kernel engine is the clock and event counter of a caller's heap."""

    @staticmethod
    def _kernel(times):
        """A drain over a sorted list of event times; logs each call."""
        calls = []

        def drain(end_time: float) -> int:
            ran = 0
            while times and times[0] <= end_time:
                times.pop(0)
                ran += 1
            calls.append((end_time, ran))
            return ran

        return drain, calls

    def test_count_is_added_per_run_until(self):
        drain, calls = self._kernel([1.0, 2.0, 3.0, 7.0])
        sim = Simulator(kernel=drain)
        sim.run_until(2.5)
        assert sim.events_executed == 2
        sim.run_until(10.0)
        assert sim.events_executed == 4
        assert calls == [(2.5, 2), (10.0, 2)]

    def test_clock_ends_at_end_time(self):
        drain, _ = self._kernel([1.0])
        sim = Simulator(kernel=drain)
        assert sim.run_until(5.0) == 5.0 and sim.now == 5.0
        assert sim.run_until(5.0) == 5.0  # an empty step is allowed
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_run_drains_the_kernel(self):
        drain, calls = self._kernel([1.0, 9.0])
        sim = Simulator(kernel=drain)
        sim.run()
        assert sim.events_executed == 2
        assert calls == [(float("inf"), 2)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.schedule(1.0, lambda: None),
            lambda sim: sim.schedule_at(1.0, lambda: None),
            lambda sim: sim.step(),
            lambda sim: sim.stop(),
            lambda sim: sim.cancel(None),
        ],
    )
    def test_event_path_calls_are_rejected(self, call):
        sim = Simulator(kernel=self._kernel([])[0])
        with pytest.raises(SimulationError, match="Event path"):
            call(sim)

    @pytest.mark.parametrize(
        "option", [{"max_events": 10}, {"trace_hook": lambda t, ev: None}]
    )
    def test_event_path_options_are_rejected(self, option):
        drain, calls = self._kernel([1.0])
        with pytest.raises(SimulationError, match="Event path"):
            Simulator(kernel=drain, **option)
        # set after construction: rejected before the kernel runs
        sim = Simulator(kernel=drain)
        for name, value in option.items():
            setattr(sim, name, value)
        with pytest.raises(SimulationError, match="Event path"):
            sim.run_until(5.0)
        assert calls == [] and sim.events_executed == 0

    def test_subclass_forwarding_init_and_run_until(self):
        seen = []

        class Counting(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)

            def run_until(self, end_time):
                before = self.events_executed
                try:
                    return super().run_until(end_time)
                finally:
                    seen.append(self.events_executed - before)

        drain, _ = self._kernel([1.0, 2.0, 6.0])
        sim = Counting(kernel=drain)
        sim.run_until(3.0)
        sim.run_until(8.0)
        assert seen == [2, 1] and sim.now == 8.0
