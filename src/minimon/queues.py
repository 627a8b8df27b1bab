"""Bounded FIFO record queues: blocking linked queue vs. synchronized ring.

``BlockingLinkedQueue`` blocks the producer when full. ``SyncRingQueue``
is a ``deque(maxlen=capacity)`` ring that never blocks the producer:
when full, the newest element overwrites the oldest. ``stats`` derives
``overwritten`` as ``enqueued - dequeued - len``: only the ring evicts,
so the put counts nothing but ``enqueued``.

Both are safe for concurrent producers and one consumer. The hand-off is
per batch, not per record: a put appends under one plain lock and wakes
nobody; the consumer calls ``drain`` to take every record present under
that lock, and wakes blocked producers only if the queue was full. A
condition on the same lock serves only the full blocking put and the
close. The queue owns the close: after ``close`` every put is refused
and counted in ``dropped``, so each put is either enqueued or dropped,
decided under the one lock.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass
from enum import Enum

__all__ = ["QueueKind", "QueueStats", "BlockingLinkedQueue", "SyncRingQueue", "make_queue"]

DEFAULT_CAPACITY = 10_000


class QueueKind(Enum):
    BLOCKING_LINKED = "blocking-linked"
    SYNC_RING = "sync-ring"


@dataclass
class QueueStats:
    enqueued: int
    dequeued: int
    overwritten: int
    capacity: int
    dropped: int  # puts refused because the queue was closed


class _BoundedQueue:
    """Deque of at most ``capacity`` records behind one lock.

    Subclasses supply ``put``, which decides what a full queue does. Only
    the ring appends to a full deque, so only the ring evicts through
    ``maxlen``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self.closed = False
        self._enqueued = 0
        self._dequeued = 0
        self._dropped = 0

    def close(self) -> None:
        """Refuse every later put and wake blocked producers; idempotent."""
        with self._lock:
            self.closed = True
            self._not_full.notify_all()

    def drain(self) -> list:
        """Remove and return every record present, oldest first."""
        with self._lock:
            batch = list(self._q)
            self._q.clear()
            self._dequeued += len(batch)
            if len(batch) == self.capacity:  # it was full: wake blocked producers
                self._not_full.notify_all()
            return batch

    def take(self):
        """Remove and return the oldest record, or None if empty."""
        with self._lock:
            q = self._q
            if not q:
                return None
            was_full = len(q) >= self.capacity
            record = q.popleft()
            self._dequeued += 1
            if was_full:
                self._not_full.notify_all()
            return record

    def __len__(self) -> int:
        return len(self._q)

    def stats(self) -> QueueStats:
        with self._lock:
            overwritten = self._enqueued - self._dequeued - len(self._q)
            return QueueStats(self._enqueued, self._dequeued, overwritten,
                              self.capacity, self._dropped)


class BlockingLinkedQueue(_BoundedQueue):
    """Linked FIFO with a capacity bound; ``put`` blocks while full."""

    def put(self, record) -> None:
        with self._lock:
            q = self._q
            while len(q) >= self.capacity and not self.closed:
                self._not_full.wait()
            if self.closed:
                self._dropped += 1
                return
            q.append(record)
            self._enqueued += 1


class SyncRingQueue(_BoundedQueue):
    """Circular FIFO; a full ring overwrites its oldest element."""

    def put(self, record) -> None:
        with self._lock:
            if self.closed:
                self._dropped += 1
                return
            self._q.append(record)  # a full ring evicts its oldest
            self._enqueued += 1


def make_queue(kind: QueueKind, capacity: int = DEFAULT_CAPACITY):
    if kind is QueueKind.BLOCKING_LINKED:
        return BlockingLinkedQueue(capacity)
    if kind is QueueKind.SYNC_RING:
        return SyncRingQueue(capacity)
    raise ValueError(f"unknown queue kind: {kind!r}")
