"""Unit tests for the SODAL QUEUE type (§4.1.4)."""

import pytest

from repro.sodal.queueing import Queue, QueueEmptyError, QueueFullError


def test_fifo_order():
    q = Queue(3)
    for x in "abc":
        q.enqueue(x)
    assert [q.dequeue() for _ in range(3)] == ["a", "b", "c"]


def test_enqueue_full_raises():
    q = Queue(1)
    q.enqueue(1)
    with pytest.raises(QueueFullError):
        q.enqueue(2)


def test_dequeue_empty_raises():
    with pytest.raises(QueueEmptyError):
        Queue(1).dequeue()


def test_is_empty_is_full():
    q = Queue(2)
    assert q.is_empty() and not q.is_full()
    q.enqueue(1)
    assert not q.is_empty() and not q.is_full()
    q.enqueue(2)
    assert q.is_full()


def test_almost_empty_and_almost_full():
    q = Queue(3)
    q.enqueue(1)
    assert q.almost_empty()
    q.enqueue(2)
    assert q.almost_full()  # capacity 3, holds 2
    assert not q.almost_empty()


def test_almost_full_capacity_one():
    q = Queue(1)
    assert q.almost_full()  # can hold exactly one more
    q.enqueue(1)
    assert not q.almost_full()
    assert q.almost_empty()


def test_initial_items():
    q = Queue(4, items=[1, 2])
    assert len(q) == 2
    assert q.peek() == 1


def test_initial_items_overflow_raises():
    with pytest.raises(QueueFullError):
        Queue(1, items=[1, 2])


def test_remove_and_contains():
    q = Queue(4, items=["a", "b", "c"])
    assert "b" in q
    assert q.remove("b")
    assert "b" not in q
    assert not q.remove("zz")
    assert q.items() == ["a", "c"]


def test_capacity_validation():
    with pytest.raises(ValueError):
        Queue(0)


def test_peek_empty_raises():
    with pytest.raises(QueueEmptyError):
        Queue(2).peek()
