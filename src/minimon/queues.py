"""Bounded FIFO record queues: blocking linked queue vs. synchronized ring.

``BlockingLinkedQueue`` blocks the producer when full. ``SyncRingQueue``
is a ``deque(maxlen=capacity)`` ring that never blocks the producer:
when full, the newest element overwrites the oldest (counted in
``overwritten``).

Both are safe for concurrent producers and one consumer; all access is
serialized through one lock per queue. The queue also owns the close:
after ``close`` every put is refused and counted in ``dropped``, so each
put is either enqueued or dropped, decided under that one lock.
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
    """Deque of at most ``capacity`` records behind one condition.

    Subclasses supply ``put``, which decides what a full queue does. Only
    the ring appends to a full deque, so only the ring evicts through
    ``maxlen``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q = collections.deque(maxlen=capacity)
        self._cond = threading.Condition()
        self._closed = False
        self._enqueued = 0
        self._dequeued = 0
        self._overwritten = 0
        self._dropped = 0

    def close(self) -> None:
        """Refuse every later put and wake all waiters; idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def take(self, wait: bool = False):
        """Remove and return the oldest record, or None if empty.

        With ``wait`` blocks until a record arrives and returns None only
        once the queue is closed and drained.
        """
        cond = self._cond
        with cond:
            q = self._q
            if wait:
                while not q and not self._closed:
                    cond.wait()
            if not q:
                return None
            was_full = len(q) >= self.capacity
            record = q.popleft()
            self._dequeued += 1
            # Wake producers only on the full -> not-full transition.
            if was_full:
                cond.notify_all()
            return record

    def __len__(self) -> int:
        with self._cond:
            return len(self._q)

    def stats(self) -> QueueStats:
        with self._cond:
            return QueueStats(self._enqueued, self._dequeued, self._overwritten,
                              self.capacity, self._dropped)


class BlockingLinkedQueue(_BoundedQueue):
    """Linked FIFO with a capacity bound; ``put`` blocks while full."""

    def put(self, record) -> None:
        cond = self._cond
        with cond:
            q = self._q
            while len(q) >= self.capacity and not self._closed:
                cond.wait()
            if self._closed:
                self._dropped += 1
                return
            q.append(record)
            self._enqueued += 1
            # Signal only on the empty -> nonempty transition; the single
            # consumer only ever waits on an empty queue.
            if len(q) == 1:
                cond.notify()


class SyncRingQueue(_BoundedQueue):
    """Circular FIFO; a full ring overwrites its oldest element."""

    def put(self, record) -> None:
        cond = self._cond
        with cond:
            if self._closed:
                self._dropped += 1
                return
            q = self._q
            if len(q) == self.capacity:
                # Full: the append below evicts the oldest element.
                self._overwritten += 1
            q.append(record)
            self._enqueued += 1
            if len(q) == 1:
                cond.notify()


def make_queue(kind: QueueKind, capacity: int = DEFAULT_CAPACITY):
    if kind is QueueKind.BLOCKING_LINKED:
        return BlockingLinkedQueue(capacity)
    if kind is QueueKind.SYNC_RING:
        return SyncRingQueue(capacity)
    raise ValueError(f"unknown queue kind: {kind!r}")
