import collections
import random
import threading
import time

import pytest

from minimon.queues import BlockingLinkedQueue, QueueKind, SyncRingQueue, make_queue


class FifoModel:
    """Reference FIFO, optionally with ring-style overwrite when full."""

    def __init__(self, capacity, overwrite):
        self.capacity = capacity
        self.overwrite = overwrite
        self.items = collections.deque()
        self.enqueued = 0
        self.dequeued = 0
        self.overwritten = 0

    def put(self, item):
        if len(self.items) == self.capacity:
            assert self.overwrite, "model put on a full blocking queue"
            self.items.popleft()
            self.overwritten += 1
        self.items.append(item)
        self.enqueued += 1

    def take(self):
        if not self.items:
            return None
        self.dequeued += 1
        return self.items.popleft()


@pytest.mark.parametrize("capacity", [1, 3, 10])
def test_sync_ring_matches_model(capacity):
    rng = random.Random(7)
    queue = SyncRingQueue(capacity)
    model = FifoModel(capacity, overwrite=True)
    for i in range(10_000):
        if rng.random() < 0.6:
            queue.put(i)
            model.put(i)
        else:
            assert queue.take() == model.take()
    while True:
        got, want = queue.take(), model.take()
        assert got == want
        if got is None:
            break
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.overwritten) == (
        model.enqueued, model.dequeued, model.overwritten)


@pytest.mark.parametrize("capacity", [1, 3, 10])
def test_blocking_linked_matches_model(capacity):
    rng = random.Random(11)
    queue = BlockingLinkedQueue(capacity)
    model = FifoModel(capacity, overwrite=False)
    for i in range(10_000):
        if len(model.items) < capacity and rng.random() < 0.6:
            queue.put(i)
            model.put(i)
        else:
            assert queue.take() == model.take()
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.overwritten) == (
        model.enqueued, model.dequeued, 0)


def test_ring_overwrites_oldest():
    queue = SyncRingQueue(3)
    for i in (1, 2, 3, 4):
        queue.put(i)
    assert [queue.take() for _ in range(3)] == [2, 3, 4]
    assert queue.take() is None
    assert queue.stats().overwritten == 1


def test_ring_without_overflow():
    queue = SyncRingQueue(3)
    queue.put(1)
    queue.put(2)
    assert [queue.take(), queue.take()] == [1, 2]
    assert queue.stats().overwritten == 0


def test_ring_keeps_last_capacity_elements():
    queue = SyncRingQueue(5)
    for i in range(17):
        queue.put(i)
    drained = []
    while (item := queue.take()) is not None:
        drained.append(item)
    assert drained == list(range(12, 17))


def test_blocking_fifo_order():
    queue = BlockingLinkedQueue(2)
    queue.put("a")
    queue.put("b")
    assert queue.take() == "a"


def test_empty_take_returns_none():
    for kind in QueueKind:
        assert make_queue(kind, 4).take() is None


def test_drain_returns_records_put_before_the_close_then_nothing():
    for kind in QueueKind:
        queue = make_queue(kind, 4)
        queue.put("x")
        queue.put("y")
        queue.close()
        queue.put("z")  # after the close: dropped, never drained
        assert queue.drain() == ["x", "y"]
        assert queue.drain() is None
        stats = queue.stats()
        assert (stats.enqueued, stats.dequeued, stats.dropped) == (2, 2, 1)


@pytest.mark.parametrize("kind", list(QueueKind))
def test_drain_returns_every_record_in_fifo_order_and_counts_them(kind):
    queue = make_queue(kind, 100)
    assert queue.drain() == []
    for i in range(10):
        queue.put(i)
    assert queue.take() == 0
    assert queue.drain() == list(range(1, 10))
    assert len(queue) == 0
    for i in range(10, 15):
        queue.put(i)
    assert queue.drain() == list(range(10, 15))
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.overwritten) == (15, 15, 0)


def test_ring_drain_after_overwrite_keeps_newest():
    queue = SyncRingQueue(3)
    for i in range(5):
        queue.put(i)
    assert queue.drain() == [2, 3, 4]
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.overwritten) == (5, 3, 2)


def test_drain_of_full_blocking_queue_releases_blocked_producer():
    queue = BlockingLinkedQueue(2)
    queue.put(1)
    queue.put(2)
    thread = threading.Thread(target=queue.put, args=(3,), daemon=True)
    thread.start()
    time.sleep(0.05)
    assert thread.is_alive()
    assert queue.drain() == [1, 2]
    thread.join(timeout=2)
    assert not thread.is_alive()
    assert queue.drain() == [3]
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.dropped) == (3, 3, 0)


def test_fresh_queue_stats_zero():
    for kind in QueueKind:
        stats = make_queue(kind, 3).stats()
        assert (stats.enqueued, stats.dequeued, stats.overwritten, stats.dropped) == (
            0, 0, 0, 0)
        assert stats.capacity == 3


def test_stats_invariant_random_ops():
    # enqueued = dequeued + in_queue + overwritten at every point
    rng = random.Random(3)
    for kind in QueueKind:
        queue = make_queue(kind, 4)
        live = 0
        for i in range(2000):
            if rng.random() < 0.7:
                if kind is QueueKind.BLOCKING_LINKED and live >= 4:
                    continue
                queue.put(i)
                live = min(live + 1, 4)
            else:
                if queue.take() is not None:
                    live -= 1
            stats = queue.stats()
            assert stats.enqueued == stats.dequeued + live + stats.overwritten


def test_blocked_producer_resumes_after_take():
    queue = BlockingLinkedQueue(2)
    queue.put(1)
    queue.put(2)
    done = threading.Event()

    def producer():
        queue.put(3)  # blocks until the consumer takes
        done.set()

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.05)
    assert not done.is_set()
    assert queue.take() == 1
    assert done.wait(timeout=2.0)
    thread.join()
    assert [queue.take(), queue.take()] == [2, 3]


def test_ring_never_exceeds_capacity():
    queue = SyncRingQueue(4)
    for i in range(100):
        queue.put(i)
        assert len(queue) <= 4


def test_capacity_validation():
    with pytest.raises(ValueError):
        SyncRingQueue(0)
    with pytest.raises(ValueError):
        BlockingLinkedQueue(-1)


@pytest.mark.parametrize("kind", list(QueueKind))
def test_put_after_close_is_dropped(kind):
    queue = make_queue(kind, 4)
    queue.put(1)
    queue.close()
    queue.put(2)
    stats = queue.stats()
    assert (stats.enqueued, stats.dropped) == (1, 1)
    assert [queue.take(), queue.take()] == [1, None]


def test_producer_blocked_on_full_queue_drops_on_close():
    queue = BlockingLinkedQueue(1)
    queue.put(1)
    thread = threading.Thread(target=queue.put, args=(2,), daemon=True)
    thread.start()
    time.sleep(0.05)
    assert thread.is_alive()
    queue.close()
    thread.join(timeout=2)
    assert not thread.is_alive()
    stats = queue.stats()
    assert (stats.enqueued, stats.dropped) == (1, 1)
    assert queue.take() == 1


def overshoot(queue, hooked_deque, producers):
    """Fill to capacity - 1, then race ``producers`` puts past the length check.

    Each put's append waits until every producer has passed the check, so
    all of them land. Returns the records put, oldest first.
    """
    records = list(range(queue.capacity - 1 + producers))
    for record in records[:queue.capacity - 1]:
        queue.put(record)
    deque = hooked_deque(queue)
    deque.before_append = threading.Barrier(producers, timeout=2).wait
    threads = [threading.Thread(target=queue.put, args=(record,), daemon=True)
               for record in records[queue.capacity - 1:]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2)
        assert not thread.is_alive()
    deque.before_append = None
    return records


@pytest.mark.parametrize("producers", [1, 2, 4])
def test_producers_racing_at_capacity_minus_one_overshoot_by_at_most_producers_minus_one(
        hooked_deque, producers):
    queue = BlockingLinkedQueue(8)
    records = overshoot(queue, hooked_deque, producers)
    assert len(queue) == queue.capacity + producers - 1
    stats = queue.stats()
    assert (stats.enqueued, stats.overwritten, stats.dropped) == (len(records), 0, 0)
    assert sorted(queue.drain()) == records  # nothing evicted
    assert queue.stats().dequeued == len(records)


def test_append_landing_mid_drain_is_neither_lost_nor_duplicated(hooked_deque):
    queue = BlockingLinkedQueue(8)
    for i in range(3):
        queue.put(i)
    deque = hooked_deque(queue)

    def land_one_put():
        deque.before_take = None
        producer = threading.Thread(target=queue.put, args=(3,), daemon=True)
        producer.start()
        producer.join(timeout=2)
        assert not producer.is_alive(), "the put waited for the drain's lock"

    deque.before_take = land_one_put
    assert queue.drain() == [0, 1, 2]
    assert queue.drain() == [3]
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.dropped) == (4, 4, 0)


def test_drain_larger_than_capacity_wakes_a_blocked_producer(hooked_deque):
    queue = BlockingLinkedQueue(4)
    records = overshoot(queue, hooked_deque, producers=2)
    waiting = threading.Event()

    class SignallingCondition(threading.Condition):
        def wait(self, timeout=None):
            waiting.set()  # the lock is still held: the drain cannot run before the wait
            return super().wait(timeout)

    queue._not_full = SignallingCondition(queue._lock)
    blocked = threading.Thread(target=queue.put, args=("late",), daemon=True)
    blocked.start()
    try:
        assert waiting.wait(timeout=2)
        assert sorted(queue.drain()) == records  # capacity + 1 records
        blocked.join(timeout=2)
        assert not blocked.is_alive(), "the drain left the producer waiting"
        assert queue.drain() == ["late"]
    finally:
        queue.close()
        blocked.join(timeout=2)


@pytest.mark.parametrize("kind", list(QueueKind))
def test_empty_drain_of_closed_queue_seals_it(kind, hooked_deque):
    queue = make_queue(kind, 4)
    queue.put(1)
    queue.close()
    assert queue.drain() == [1]
    assert queue.drain() is None  # sealed: the stream has ended
    if kind is QueueKind.BLOCKING_LINKED:
        hooked_deque(queue).append(2)  # an append that passed the open check before the close
    else:
        queue.put(2)  # the ring's put reads the close under the lock
    assert queue.drain() is None
    assert queue.take() is None
    stats = queue.stats()
    assert (stats.enqueued, stats.dequeued, stats.overwritten, stats.dropped) == (1, 1, 0, 1)
