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


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ReproError):
        eng.schedule(-1.0, lambda: None)


def test_max_events_guard_trips_on_livelock():
    eng = Engine()

    def forever():
        eng.schedule(1.0, forever)

    eng.schedule(0.0, forever)
    with pytest.raises(ReproError, match="max_events"):
        eng.run(max_events=100)
    assert eng.events_executed == 100


def test_max_events_is_the_number_that_may_execute():
    eng = Engine()
    fired = []
    for i in range(3):
        eng.schedule(float(i), fired.append, i)
    eng.run(max_events=3)
    assert fired == [0, 1, 2]


def test_pending_counts_uncancelled():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev1.cancel()
    assert eng.pending() == 1


def test_pending_counter_tracks_schedule_cancel_execute():
    eng = Engine()
    seen = []
    evs = [eng.schedule(float(i + 1), lambda: seen.append(eng.pending())) for i in range(5)]
    assert eng.pending() == 5
    evs[0].cancel()
    evs[1].cancel()
    assert eng.pending() == 3
    evs[0].cancel()  # double-cancel must not decrement twice
    assert eng.pending() == 3
    eng.run()
    # each executed event has left the queue when its callback runs
    assert seen == [2, 1, 0]
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
