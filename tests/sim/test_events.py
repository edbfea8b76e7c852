"""Unit tests for the event queue."""

from repro.sim.events import Event, EventQueue


def test_push_pop_in_time_order():
    q = EventQueue()
    fired = []
    q.push(5.0, fired.append, ("b",))
    q.push(1.0, fired.append, ("a",))
    q.push(9.0, fired.append, ("c",))
    order = []
    while True:
        event = q.pop()
        if event is None:
            break
        order.append(event.time)
    assert order == [1.0, 5.0, 9.0]


def test_same_time_fifo_order():
    q = EventQueue()
    events = [q.push(3.0, lambda: None, ()) for _ in range(5)]
    popped = [q.pop() for _ in range(5)]
    assert [e.seq for e in popped] == [e.seq for e in events]


def test_priority_breaks_time_ties():
    q = EventQueue()
    low = q.push(3.0, lambda: None, (), priority=5)
    high = q.push(3.0, lambda: None, (), priority=-5)
    assert q.pop() is high
    assert q.pop() is low


def test_cancelled_events_are_skipped():
    q = EventQueue()
    keep = q.push(1.0, lambda: None, ())
    drop = q.push(0.5, lambda: None, ())
    drop.cancel()
    assert q.pop() is keep
    assert q.pop() is None


def test_cancel_is_idempotent():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    event.cancel()
    event.cancel()
    assert q.pop() is None


def test_len_ignores_cancelled():
    q = EventQueue()
    a = q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    assert len(q) == 2
    a.cancel()
    assert len(q) == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    first = q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    first.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None, ())
    q.clear()
    assert q.pop() is None


def test_len_is_exact_under_mixed_push_cancel_pop():
    # The live-size counter is O(1); it must agree with a full scan
    # through an arbitrary interleaving of push/cancel/pop.
    q = EventQueue()
    held = []
    for i in range(200):
        held.append(q.push(float(i % 13), lambda: None, ()))
        if i % 3 == 0:
            held[i // 2].cancel()
        if i % 7 == 0:
            q.pop()
    assert len(q) == sum(1 for _ in q.live_events())

    while q.pop() is not None:
        pass
    assert len(q) == 0


def test_cancel_is_idempotent_for_len():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    event.cancel()
    event.cancel()
    assert len(q) == 1


def test_cancel_after_pop_does_not_corrupt_len():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    assert q.pop() is event
    event.cancel()  # already out of the queue: must not double-count
    assert len(q) == 1


def test_cancel_after_clear_is_safe():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    q.clear()
    event.cancel()
    assert len(q) == 0


def test_compaction_when_cancelled_dominate():
    # Cancel-heavy churn (the retransmission-timer pattern) must not
    # inflate the heap: once dead entries dominate, the queue rebuilds.
    q = EventQueue()
    survivors = []
    for i in range(500):
        doomed = q.push(1_000.0 + i, lambda: None, ())
        if i % 50 == 0:
            survivors.append(q.push(2_000.0 + i, lambda: None, ()))
        doomed.cancel()
    assert len(q) == len(survivors)
    assert len(q._heap) <= 2 * len(survivors) + EventQueue.COMPACT_MIN

    # Compaction preserves ordering: survivors pop in schedule order.
    popped = [q.pop() for _ in range(len(survivors))]
    assert popped == survivors
    assert q.pop() is None


def test_cancel_then_peek_compacts_front():
    q = EventQueue()
    first = q.push(1.0, lambda: None, ())
    second = q.push(2.0, lambda: None, ())
    first.cancel()
    assert q.peek_time() == 2.0
    # peek discarded the cancelled front entry outright.
    assert [entry[3] for entry in q._heap] == [second]
    assert len(q) == 1


def test_event_repr_mentions_state():
    event = Event(1.0, 0, 0, lambda: None, ())
    assert "pending" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)
