"""Event queue semantics: ordering, cancellation, compaction."""

import pytest

from repro.des.events import Event, EventQueue


def _noop() -> None:
    pass


class TestEventOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in (3.0, 1.0, 2.0):
            q.push(Event(t, _noop))
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        low = q.push(Event(1.0, _noop, priority=5, tag="low"))
        high = q.push(Event(1.0, _noop, priority=0, tag="high"))
        assert q.pop() is high
        assert q.pop() is low

    def test_fifo_within_same_time_and_priority(self):
        q = EventQueue()
        first = q.push(Event(1.0, _noop, tag="first"))
        second = q.push(Event(1.0, _noop, tag="second"))
        assert q.pop() is first
        assert q.pop() is second

    def test_peek_time_does_not_remove(self):
        q = EventQueue()
        q.push(Event(2.5, _noop))
        assert q.peek_time() == 2.5
        assert len(q) == 1

    def test_empty_queue_pop_and_peek(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        ev1 = q.push(Event(1.0, _noop))
        ev2 = q.push(Event(2.0, _noop))
        q.cancel(ev1)
        assert q.pop() is ev2
        assert q.pop() is None

    def test_cancel_updates_length(self):
        q = EventQueue()
        ev = q.push(Event(1.0, _noop))
        q.push(Event(2.0, _noop))
        q.cancel(ev)
        assert len(q) == 1

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.push(Event(1.0, _noop))
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_cancel_after_pop_is_a_no_op(self):
        q = EventQueue()
        fired = q.push(Event(1.0, _noop))
        q.push(Event(2.0, _noop))
        assert q.pop() is fired
        q.cancel(fired)
        assert len(q) == 1 and q
        assert not fired.cancelled
        q.compact()
        assert q.pop().time == 2.0
        assert len(q) == 0 and not q

    def test_cancel_of_cleared_or_unqueued_event_is_a_no_op(self):
        q = EventQueue()
        dropped = q.push(Event(1.0, _noop))
        q.clear()
        q.cancel(dropped)
        q.cancel(Event(3.0, _noop))  # never pushed
        assert len(q) == 0 and not q
        kept = q.push(Event(2.0, _noop))
        assert len(q) == 1
        assert q.pop() is kept

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        ev1 = q.push(Event(1.0, _noop))
        q.push(Event(2.0, _noop))
        q.cancel(ev1)
        assert q.peek_time() == 2.0

    def test_dead_fraction_and_compact(self):
        q = EventQueue()
        events = [q.push(Event(float(i), _noop)) for i in range(100)]
        for ev in events[:90]:
            q.cancel(ev)
        assert q.dead_fraction() > 0.8
        q.compact()
        assert q.dead_fraction() == 0.0
        assert len(q) == 10

    def test_clear(self):
        q = EventQueue()
        q.push(Event(1.0, _noop))
        q.clear()
        assert len(q) == 0
        assert q.pop() is None


class TestValidation:
    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(Event(float("nan"), _noop))

    def test_iter_pending_skips_cancelled(self):
        q = EventQueue()
        keep = q.push(Event(1.0, _noop))
        drop = q.push(Event(2.0, _noop))
        q.cancel(drop)
        assert list(q.iter_pending()) == [keep]
