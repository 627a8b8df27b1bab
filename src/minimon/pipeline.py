"""Monitoring pipeline: probe emissions -> bounded queue -> writer thread.

``start`` binds ``new_monitoring_record`` to the queue's put, which wakes
nobody, so a probe emits straight into the queue. All serialization and
file I/O happens on the single writer thread. It drains whole batches:
it takes every record present, serializes them with one
``serialize_batch`` call (a record ``serialize`` refuses is counted as
failed: no record, a text field that is not a safe str, or an eoi or
ess that is not an int >= 0), and writes the joined lines with one
``write`` and one ``flush``, letting go of the records, the lines and
the text as soon as each is used. It counts the lines as written only
once the flush returned. On an empty queue it sleeps about a
millisecond. ``shutdown`` closes the queue, which then counts every put
as dropped; the writer drains what was enqueued, and its empty drain
seals the queue, so a lock-free put that passed the open check before
the close and lands later is dropped too. That drain returns None, the
writer leaves, and the file is closed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum

from .probes import ProbeKind, DEFAULT_AGGREGATION_WINDOW
from .queues import DEFAULT_CAPACITY, QueueKind, make_queue
from .records import serialize_batch

__all__ = ["WriterKind", "PipelineConfig", "PipelineReport", "Pipeline"]

# The writer's sleep on an empty queue: the producer pays no wake-up, and
# a record waits at most about this long (plus a GIL switch) to be taken.
IDLE_SLEEP_S = 0.001


class WriterKind(Enum):
    FILE = "file"
    NULL = "null"


@dataclass
class PipelineConfig:
    probe: ProbeKind = ProbeKind.DIRECT_FULL
    queue: QueueKind = QueueKind.BLOCKING_LINKED
    queue_capacity: int = DEFAULT_CAPACITY
    writer: WriterKind = WriterKind.FILE
    aggregation_window: int = DEFAULT_AGGREGATION_WINDOW
    output_path: str = "monitoring.log"

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.aggregation_window < 1:
            raise ValueError(f"aggregation_window must be >= 1, got {self.aggregation_window}")


@dataclass
class PipelineReport:
    enqueued: int
    written: int
    overwritten: int
    dropped: int
    failed: int = 0  # taken from the queue but not serializable


class Pipeline:
    """Owns the record queue, the writer thread, and the output file."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.queue = None
        self._file = None
        self._writer_thread = None
        self._gate = threading.Event()  # cleared to pause the writer (tests, perfbench)
        self._gate.set()
        self._written = 0
        self._failed = 0
        self._error: Exception | None = None
        self._report: PipelineReport | None = None

    def start(self) -> "Pipeline":
        if self.queue is not None:
            raise RuntimeError("pipeline already started")
        queue = make_queue(self.config.queue, self.config.queue_capacity)
        if self.config.writer is WriterKind.FILE:
            self._file = open(self.config.output_path, "w", encoding="utf-8")
        self.queue = queue
        self.new_monitoring_record = queue.put
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="minimon-writer", daemon=True
        )
        self._writer_thread.start()
        return self

    def new_monitoring_record(self, record) -> None:
        """Refuse a record before ``start``, which replaces this with the queue's put."""
        raise RuntimeError("pipeline not started")

    def _writer_loop(self) -> None:
        queue = self.queue
        file = self._file
        written = failed = 0
        try:
            while True:
                # Event.wait locks even when set; reading the flag does not.
                if not self._gate.is_set():
                    self._gate.wait()
                batch = queue.drain()
                if batch is None:  # closed and drained: the stream has ended
                    break
                if not batch:
                    time.sleep(IDLE_SLEEP_S)
                    continue
                if file is None:
                    written += len(batch)
                    continue
                lines, refused = serialize_batch(batch)
                # Let the records, then the lines, then the text go before the
                # write and flush release the GIL: a collection would traverse
                # the records, and 10 000 records' lines hold about 1 MB.
                del batch
                failed += refused
                if lines:
                    written_now = len(lines)
                    lines.append("")  # the trailing newline, without a second copy
                    text = "\n".join(lines)
                    del lines
                    file.write(text)
                    del text
                    file.flush()
                    written += written_now
        except Exception as exc:  # re-raised by shutdown
            self._error = exc
        finally:
            # A dead writer must not leave a producer waiting on a full queue.
            queue.close()
            self._written = written
            self._failed = failed

    def pause_writer(self) -> None:
        """Suspend the writer before its next drain (test hook).

        A drain already under way still takes its batch.
        """
        self._gate.clear()

    def resume_writer(self) -> None:
        self._gate.set()

    def shutdown(self) -> PipelineReport:
        """Close the queue, let the writer drain it, return the counters.

        Idempotent; raises RuntimeError on every call if the writer or the
        file's close failed.
        """
        if self._report is None:
            if self.queue is None:
                raise RuntimeError("pipeline not started")
            self.queue.close()
            self._gate.set()
            self._writer_thread.join()
            if self._file is not None:
                try:
                    self._file.close()
                except OSError as exc:
                    self._error = self._error or exc
            stats = self.queue.stats()
            self._report = PipelineReport(
                enqueued=stats.enqueued, written=self._written, overwritten=stats.overwritten,
                dropped=stats.dropped, failed=self._failed)
        if self._error is not None:
            raise RuntimeError(f"monitoring writer failed: {self._error}") from self._error
        return self._report
