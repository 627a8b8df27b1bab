"""Monitoring pipeline: probe emissions -> bounded queue -> writer thread.

The producing thread only ever calls ``new_monitoring_record`` (a queue
put); all serialization and file I/O happens on the single writer thread.
``shutdown`` closes the producer side first, drains the queue completely,
flushes the writer, and returns the final counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from .probes import ProbeKind, DEFAULT_AGGREGATION_WINDOW
from .queues import DEFAULT_CAPACITY, QueueKind, make_queue
from .records import RecordFormatError, serialize

__all__ = ["WriterKind", "PipelineConfig", "PipelineReport", "Pipeline"]

# Writer flushes its file buffer every this many lines and at shutdown;
# per-line flushing would dominate the measured overhead.
FLUSH_EVERY = 8192

_TAKE_TIMEOUT = 0.05


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
    enqueued: int = 0
    written: int = 0
    overwritten: int = 0
    dropped: int = 0
    failed: int = 0  # taken from the queue but not serializable


class Pipeline:
    """Owns the record queue, the writer thread, and the output file."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.queue = None
        self._file = None
        self._writer_thread = None
        self._stop = threading.Event()
        self._gate = threading.Event()  # cleared by tests to pause the writer
        self._gate.set()
        self._started = False
        self._closed = False
        self._written = 0
        self._failed = 0
        self._dropped = 0
        self._report: PipelineReport | None = None

    def start(self) -> "Pipeline":
        if self._started:
            raise RuntimeError("pipeline already started")
        self._started = True
        self.queue = make_queue(self.config.queue, self.config.queue_capacity)
        if self.config.writer is WriterKind.FILE:
            self._file = open(self.config.output_path, "w", encoding="utf-8")
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="minimon-writer", daemon=True
        )
        self._writer_thread.start()
        return self

    def new_monitoring_record(self, record) -> None:
        """Hand a record to the writer; never does I/O on the caller."""
        if self._closed:
            self._dropped += 1
            return
        if not self._started:
            raise RuntimeError("pipeline not started")
        self.queue.put(record)

    def _writer_loop(self) -> None:
        queue = self.queue
        file = self._file
        written = 0
        failed = 0
        unflushed = 0
        while True:
            # Event.wait locks even when set; once per record, that keeps runs
            # in the slow producer/writer hand-off far longer. Reading does not.
            if not self._gate.is_set():
                self._gate.wait()
            # Producers are closed before stop is set, so an empty take
            # that started after stop was seen means the queue is drained.
            stopping = self._stop.is_set()
            record = queue.take(timeout=0 if stopping else _TAKE_TIMEOUT)
            if record is None:
                if stopping:
                    break
                continue
            if file is not None:
                # One bad record must not kill the writer: a producer on a
                # full blocking queue would then wait forever.
                try:
                    line = serialize(record)
                except RecordFormatError:
                    failed += 1
                    continue
                file.write(line)
                file.write("\n")
                unflushed += 1
                if unflushed >= FLUSH_EVERY:
                    file.flush()
                    unflushed = 0
            written += 1
        self._written = written
        self._failed = failed

    def pause_writer(self) -> None:
        """Suspend the writer thread (test hook)."""
        self._gate.clear()

    def resume_writer(self) -> None:
        self._gate.set()

    def shutdown(self) -> PipelineReport:
        """Close the producer side, drain, stop the writer; idempotent."""
        if self._report is not None:
            return self._report
        if not self._started:
            raise RuntimeError("pipeline not started")
        self._closed = True
        self._stop.set()
        self._gate.set()
        self._writer_thread.join()
        if self._file is not None:
            self._file.flush()
            self._file.close()
        stats = self.queue.stats()
        self._report = PipelineReport(
            enqueued=stats.enqueued,
            written=self._written,
            overwritten=stats.overwritten,
            dropped=self._dropped,
            failed=self._failed,
        )
        return self._report
