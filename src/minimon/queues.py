"""Bounded FIFO record queues: blocking linked queue vs. synchronized ring.

Both are safe for concurrent producers and one consumer, and the hand-off
is per batch: a put wakes nobody, and the consumer calls the one shared
``drain`` to take every record present at once. A drain pops exactly the
length it read, so an append that lands meanwhile stays for the next
drain. A condition on the queue's one lock serves only a blocked put and
the close. The queue owns the close: after ``close`` a put is counted in
``dropped``. The empty drain after the close seals the queue and returns
None, as does every later drain: the stream has ended. An open queue's
empty drain returns ``[]``.

The queues differ only in ``put``. ``BlockingLinkedQueue`` blocks the
producer when full. Its put into an open queue below capacity takes no
lock, since one ``deque.append`` is atomic under the GIL; so concurrent
producers can pass the length check together and overshoot ``capacity``
by at most producers - 1. ``SyncRingQueue`` is a ``deque(maxlen=capacity)``
ring that never blocks: a full ring's append evicts the oldest record.
Its put keeps the lock, so the full ring it sees is the one its append
evicts from, and it counts that eviction in ``overwritten``.

No put counts ``enqueued``: it is ``dequeued + overwritten + len``,
frozen at the seal. A record whose append passed the open check before
the close but lands after the seal counts as dropped, so every put is
written, overwritten or dropped, never lost.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import repeat, starmap

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
    """Deque of records, one lock, the close, the seal and the counters.

    Subclasses supply ``put``. Every consumer step and the close run under
    the lock; ``_not_full`` is a condition on it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, maxlen: int | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q = collections.deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self.closed = False
        self._sealed = False
        self._dequeued = 0
        self._overwritten = 0
        self._dropped = 0

    def close(self) -> None:
        """Refuse every later put and wake blocked producers; idempotent."""
        with self._lock:
            self.closed = True
            self._not_full.notify_all()

    def take(self):
        """Remove and return the oldest record, or None if empty or sealed."""
        with self._lock:
            q = self._q
            if not q or self._sealed:
                return None
            was_full = len(q) >= self.capacity
            record = q.popleft()
            self._dequeued += 1
            if was_full:
                self._not_full.notify_all()
            return record

    def drain(self) -> list | None:
        """Remove and return every record present, oldest first.

        The empty drain of a closed queue seals it and returns None, and so
        does every later drain: the stream has ended.
        """
        with self._lock:
            if self._sealed:
                return None
            # Read before the length: a record put before the close is counted in it.
            closed = self.closed
            n = len(self._q)
            if not n:
                self._sealed = closed
                return None if closed else []
            # Pop exactly n: an append landing meanwhile stays for the next drain.
            batch = list(starmap(self._q.popleft, repeat((), n)))
            self._dequeued += n
            if n >= self.capacity:  # it was full: wake blocked producers
                self._not_full.notify_all()
            return batch

    def stats(self) -> QueueStats:
        with self._lock:
            in_queue = len(self._q)
            # enqueued froze at the seal; what landed since is dropped
            late = in_queue if self._sealed else 0
            return QueueStats(self._dequeued + self._overwritten + in_queue - late,
                              self._dequeued, self._overwritten, self.capacity,
                              self._dropped + late)

    def __len__(self) -> int:
        return len(self._q)


class BlockingLinkedQueue(_BoundedQueue):
    """Linked FIFO with a capacity bound; ``put`` blocks while full."""

    def put(self, record) -> None:
        q = self._q
        if len(q) < self.capacity and not self.closed:
            q.append(record)  # one C call under the GIL: no lock
        else:
            self._put_full_or_closed(record)

    def _put_full_or_closed(self, record) -> None:
        with self._lock:
            q = self._q
            while len(q) >= self.capacity and not self.closed:
                self._not_full.wait()
            if self.closed:
                self._dropped += 1
            else:
                q.append(record)


class SyncRingQueue(_BoundedQueue):
    """Circular FIFO; a full ring overwrites its oldest element."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity, maxlen=capacity)

    def put(self, record) -> None:
        with self._lock:
            if self.closed:
                self._dropped += 1
                return
            q = self._q
            if len(q) >= self.capacity:
                self._overwritten += 1
            q.append(record)


def make_queue(kind: QueueKind, capacity: int = DEFAULT_CAPACITY):
    if kind is QueueKind.BLOCKING_LINKED:
        return BlockingLinkedQueue(capacity)
    if kind is QueueKind.SYNC_RING:
        return SyncRingQueue(capacity)
    raise ValueError(f"unknown queue kind: {kind!r}")
