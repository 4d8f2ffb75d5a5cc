"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine
from repro.util.errors import ReproError


def test_events_run_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, lambda: order.append("b"))
    eng.schedule(1.0, lambda: order.append("a"))
    eng.schedule(9.0, lambda: order.append("c"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 9.0


def test_same_time_events_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(3.0, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_callbacks_can_schedule_more_events():
    eng = Engine()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 5:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert hits == [0, 1, 2, 3, 4, 5]
    assert eng.now == 5.0


def test_cancelled_event_does_not_run():
    eng = Engine()
    hits = []
    ev = eng.schedule(1.0, lambda: hits.append("cancelled"))
    eng.schedule(2.0, lambda: hits.append("kept"))
    ev.cancel()
    eng.run()
    assert hits == ["kept"]


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    hits = []
    eng.schedule(1.0, lambda: hits.append(1))
    eng.schedule(10.0, lambda: hits.append(10))
    eng.run(until=5.0)
    assert hits == [1]
    assert eng.now == 5.0
    eng.run()
    assert hits == [1, 10]


def test_run_until_inclusive():
    eng = Engine()
    hits = []
    eng.schedule(5.0, lambda: hits.append(5))
    eng.run(until=5.0)
    assert hits == [5]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ReproError):
        eng.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    eng = Engine()
    hits = []
    eng.schedule(2.0, lambda: eng.schedule_at(7.0, lambda: hits.append(7)))
    eng.run()
    assert hits == [7]
    assert eng.now == 7.0


def test_max_events_guard_trips_on_livelock():
    eng = Engine()

    def forever():
        eng.schedule(1.0, forever)

    eng.schedule(0.0, forever)
    with pytest.raises(ReproError, match="max_events"):
        eng.run(max_events=100)


def test_pending_counts_uncancelled():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev1.cancel()
    assert eng.pending() == 1


def test_step_returns_false_when_empty():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_peek_time_skips_cancelled():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(3.0, lambda: None)
    ev.cancel()
    assert eng.peek_time() == 3.0


def test_pending_counter_tracks_schedule_cancel_execute():
    eng = Engine()
    evs = [eng.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert eng.pending() == 5
    evs[0].cancel()
    evs[1].cancel()
    assert eng.pending() == 3
    evs[0].cancel()  # double-cancel must not decrement twice
    assert eng.pending() == 3
    eng.step()
    assert eng.pending() == 2
    eng.run()
    assert eng.pending() == 0


def test_cancel_after_execution_does_not_corrupt_counter():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.pending() == 0
    ev.cancel()  # already executed: must be a no-op for the counter
    assert eng.pending() == 0


def test_pending_large_queue_mostly_cancelled():
    # cancelled events stay in the heap (lazy deletion); pending()
    # must not count them
    eng = Engine()
    events = [eng.schedule(float(i), lambda: None) for i in range(1000)]
    for ev in events[::2]:
        ev.cancel()
    assert eng.pending() == 500


def test_event_is_slotted():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    assert not hasattr(ev, "__dict__")
    with pytest.raises(AttributeError):
        ev.arbitrary_attribute = 1
