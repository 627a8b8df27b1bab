import gc
import os
import sys
import threading
import time

import pytest

from minimon.pipeline import Pipeline, PipelineConfig, WriterKind
from minimon.probes import DirectFullProbe, ProbeKind
from minimon.queues import QueueKind
from minimon.records import DurationRecord, FullRecord, deserialize


def null_pipeline(tmp_path, queue=QueueKind.BLOCKING_LINKED, capacity=16):
    return Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_DURATION, queue=queue, queue_capacity=capacity,
        writer=WriterKind.NULL, output_path=str(tmp_path / "m.log")))


def file_pipeline(tmp_path, queue=QueueKind.BLOCKING_LINKED, capacity=16):
    return Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_DURATION, queue=queue, queue_capacity=capacity,
        writer=WriterKind.FILE, output_path=str(tmp_path / "m.log")))


def test_null_writer_counts_enqueued(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    for i in range(100):
        pipeline.new_monitoring_record(DurationRecord("a()", i))
    report = pipeline.shutdown()
    assert report.enqueued == 100
    assert report.written == 100
    assert report.dropped == 0


def test_file_writer_outputs_parseable_lines(tmp_path):
    pipeline = file_pipeline(tmp_path).start()
    records = [DurationRecord("a()", i) for i in range(3)]
    for record in records:
        pipeline.new_monitoring_record(record)
    pipeline.shutdown()
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert [deserialize(line) for line in lines] == records


def test_start_twice_is_error(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    with pytest.raises(RuntimeError):
        pipeline.start()
    pipeline.shutdown()


def test_emit_before_start_is_error(tmp_path):
    pipeline = null_pipeline(tmp_path)
    with pytest.raises(RuntimeError, match="not started"):
        pipeline.new_monitoring_record(DurationRecord("a()", 1))


def test_started_pipeline_emits_through_the_queue_put(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    # No wrapper between a probe and the queue.
    assert pipeline.new_monitoring_record == pipeline.queue.put
    pipeline.shutdown()


def test_record_after_shutdown_is_counted_drop(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    pipeline.new_monitoring_record(DurationRecord("a()", 1))
    pipeline.shutdown()
    pipeline.new_monitoring_record(DurationRecord("a()", 2))
    # counters are frozen in the first report; the queue still counts the drop
    assert pipeline.queue.stats().dropped == 1


def test_shutdown_idempotent(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    pipeline.new_monitoring_record(DurationRecord("a()", 1))
    first = pipeline.shutdown()
    second = pipeline.shutdown()
    assert first is second


def test_shutdown_empty_pipeline(tmp_path):
    pipeline = file_pipeline(tmp_path).start()
    report = pipeline.shutdown()
    assert (report.enqueued, report.written, report.overwritten, report.dropped) == (
        0, 0, 0, 0)
    assert (tmp_path / "m.log").read_text() == ""


def test_shutdown_bounded_time_on_empty_queue(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    start = time.monotonic()
    pipeline.shutdown()
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("kind", list(QueueKind))
def test_writer_leaves_a_sealed_queue_after_shutdown(tmp_path, kind):
    pipeline = null_pipeline(tmp_path, queue=kind).start()
    pipeline.new_monitoring_record(DurationRecord("a()", 1))
    assert pipeline.shutdown().written == 1
    assert pipeline.queue.drain() is None


def test_ring_overwrite_with_paused_writer(tmp_path):
    capacity = 8
    pipeline = null_pipeline(tmp_path, queue=QueueKind.SYNC_RING,
                             capacity=capacity).start()
    pipeline.pause_writer()
    for i in range(2 * capacity):
        pipeline.new_monitoring_record(DurationRecord("a()", i))
    pipeline.resume_writer()
    report = pipeline.shutdown()
    assert report.overwritten == capacity
    assert report.written == report.enqueued - report.overwritten


@pytest.mark.parametrize("capacity", [1, 10, 1000])
def test_writer_completeness_fifo(tmp_path, capacity):
    pipeline = file_pipeline(tmp_path, capacity=capacity).start()
    records = [DurationRecord("a()", i) for i in range(500)]
    for record in records:
        pipeline.new_monitoring_record(record)
    report = pipeline.shutdown()
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert report.written == report.enqueued == 500
    assert [deserialize(line) for line in lines] == records


def test_paused_full_queue_drains_completely_at_shutdown(tmp_path):
    capacity = 64
    pipeline = file_pipeline(tmp_path, capacity=capacity).start()
    pipeline.pause_writer()
    records = [DurationRecord("a()", i) for i in range(capacity)]
    for record in records:
        pipeline.new_monitoring_record(record)
    report = pipeline.shutdown()
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert report.written == report.enqueued == capacity
    assert [deserialize(line) for line in lines] == records


def test_a_written_batchs_records_are_dead_during_the_write(tmp_path, monkeypatch):
    # The write and the flush release the GIL; a collection the producer
    # runs meanwhile must find none of the records being written.
    live_at_write = []

    class LiveRecordFile:
        def write(self, text):
            tins = {int(line.split(";")[2]) for line in text.splitlines()}
            live = {o.tin for o in gc.get_objects() if type(o) is FullRecord}
            live_at_write.append(tins & live)

        def flush(self):
            pass

        def close(self):
            pass

    monkeypatch.setattr("minimon.pipeline.open", lambda *args, **kwargs: LiveRecordFile(),
                        raising=False)
    pipeline = Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_FULL, queue_capacity=10_000, writer=WriterKind.FILE,
        output_path=str(tmp_path / "m.log"))).start()
    pipeline.pause_writer()
    probe = DirectFullProbe(pipeline.new_monitoring_record)
    for _ in range(1000):
        probe.exit("a()", probe.enter())
    pipeline.resume_writer()
    assert pipeline.shutdown().written == 1000
    assert live_at_write
    assert [len(live) for live in live_at_write] == [0] * len(live_at_write)


def test_a_written_batchs_lines_and_text_are_dead_during_the_flush(tmp_path, monkeypatch):
    # The flush releases the GIL; the formatted batch (about 1 MB of lines
    # for 10 000 records) must not outlive the write it was made for.
    seen = []

    class LiveLineFile:
        def write(self, text):
            self.text = text
            self.lines = set(text.splitlines())

        def flush(self):
            lists = [o for o in gc.get_objects()
                     if type(o) is list and o and type(o[0]) is str and o[0] in self.lines]
            writer_locals = sys._getframe(1).f_locals.values()
            seen.append((len(lists), any(value is self.text for value in writer_locals)))

        def close(self):
            pass

    monkeypatch.setattr("minimon.pipeline.open", lambda *args, **kwargs: LiveLineFile(),
                        raising=False)
    pipeline = Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_FULL, queue_capacity=10_000, writer=WriterKind.FILE,
        output_path=str(tmp_path / "m.log"))).start()
    pipeline.pause_writer()
    probe = DirectFullProbe(pipeline.new_monitoring_record)
    for _ in range(1000):
        probe.exit("a()", probe.enter())
    pipeline.resume_writer()
    assert pipeline.shutdown().written == 1000
    assert seen
    assert seen == [(0, False)] * len(seen)


def test_unwritable_output_path_fails_at_start(tmp_path):
    pipeline = Pipeline(PipelineConfig(
        writer=WriterKind.FILE, output_path=str(tmp_path / "no" / "dir" / "x.log")))
    with pytest.raises(OSError):
        pipeline.start()


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        PipelineConfig(aggregation_window=0)


def test_unserializable_record_is_counted_and_writer_survives(tmp_path):
    pipeline = file_pipeline(tmp_path, capacity=2).start()
    good = [DurationRecord("a()", i) for i in range(5)]

    def produce():
        pipeline.new_monitoring_record(DurationRecord("a;b", 1))
        for record in good:
            pipeline.new_monitoring_record(record)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    producer.join(timeout=2)
    assert not producer.is_alive(), "producer blocked on the full queue"
    report = pipeline.shutdown()
    assert (report.enqueued, report.written, report.failed) == (6, 5, 1)
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert [deserialize(line) for line in lines] == good


def test_bad_record_mid_batch_spoils_neither_neighbours_nor_order(tmp_path):
    pipeline = file_pipeline(tmp_path, capacity=16).start()
    drain, batches = pipeline.queue.drain, []

    def counting_drain():
        batch = drain()
        if batch:
            batches.append(len(batch))
        return batch

    pipeline.queue.drain = counting_drain
    pipeline.pause_writer()
    time.sleep(0.05)  # the writer reaches the gate
    good = [DurationRecord("a()", i) for i in range(6)]
    for record in good[:3] + [DurationRecord("a;b", 1)] + good[3:]:
        pipeline.new_monitoring_record(record)
    report = pipeline.shutdown()
    assert batches == [7]
    assert (report.enqueued, report.written, report.failed) == (7, 6, 1)
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert [deserialize(line) for line in lines] == good


def test_non_str_text_field_and_non_record_are_failed_not_fatal(tmp_path):
    pipeline = file_pipeline(tmp_path, capacity=16).start()
    pipeline.pause_writer()
    time.sleep(0.05)  # the writer reaches the gate: one batch
    good = [DurationRecord("ok", 1), DurationRecord("ok2", 1), DurationRecord("ok3", 1)]
    unhashable_eoi = FullRecord("ok()", 1, 2, 3, 0, 0, "h", "s")
    unhashable_eoi.eoi = [1]  # set after construction
    for record in [good[0], DurationRecord(None, 1), good[1], object(), unhashable_eoi, good[2]]:
        pipeline.new_monitoring_record(record)
    report = pipeline.shutdown()  # the writer survived: no RuntimeError
    assert (report.enqueued, report.written, report.failed) == (6, 3, 3)
    lines = (tmp_path / "m.log").read_text().splitlines()
    assert [deserialize(line) for line in lines] == good


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_counts_no_record_as_written():
    pipeline = Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_DURATION, queue=QueueKind.BLOCKING_LINKED,
        queue_capacity=16, writer=WriterKind.FILE, output_path="/dev/full")).start()
    for i in range(100):
        pipeline.new_monitoring_record(DurationRecord("a()", i))
    with pytest.raises(RuntimeError, match="writer failed"):
        pipeline.shutdown()
    assert pipeline.queue.stats().dequeued > 0  # the writer took records ...
    assert pipeline._report.written == 0  # ... but none reached the file


def test_put_racing_shutdown_is_enqueued_and_written_or_dropped(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    real_put = pipeline.queue.put
    entered, release = threading.Event(), threading.Event()

    def held_put(record):
        entered.set()
        release.wait()
        real_put(record)

    pipeline.queue.put = held_put
    record = DurationRecord("a()", 1)
    producer = threading.Thread(target=pipeline.queue.put, args=(record,), daemon=True)
    producer.start()
    assert entered.wait(timeout=2)
    report = pipeline.shutdown()
    release.set()
    producer.join(timeout=2)
    assert not producer.is_alive()
    stats = pipeline.queue.stats()
    assert stats.enqueued == report.written + report.overwritten + report.failed
    assert stats.enqueued + stats.dropped == 1


def test_record_put_between_drain_and_close_is_still_written(tmp_path):
    pipeline = null_pipeline(tmp_path).start()
    queue, drain = pipeline.queue, pipeline.queue.drain
    closed_after_a_drain = threading.Event()

    def drain_then_put_and_close():
        batch = drain()
        if not queue.closed:  # a put and the close land right after a drain
            queue.put(DurationRecord("a()", 1))
            queue.close()
            closed_after_a_drain.set()
        return batch

    queue.drain = drain_then_put_and_close
    assert closed_after_a_drain.wait(timeout=2)
    report = pipeline.shutdown()
    assert report.enqueued == report.written == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_dead_writer_releases_producer_and_shutdown_raises():
    pipeline = Pipeline(PipelineConfig(
        probe=ProbeKind.DIRECT_DURATION, queue=QueueKind.BLOCKING_LINKED,
        queue_capacity=16, writer=WriterKind.FILE, output_path="/dev/full")).start()

    def produce():
        for i in range(20_000):
            pipeline.new_monitoring_record(DurationRecord("a()", i))

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    producer.join(timeout=5)
    assert not producer.is_alive(), "producer blocked behind a dead writer"
    with pytest.raises(RuntimeError, match="writer failed"):
        pipeline.shutdown()
    with pytest.raises(RuntimeError, match="writer failed"):
        pipeline.shutdown()
    stats = pipeline.queue.stats()
    assert stats.enqueued + stats.dropped == 20_000
    assert stats.dropped > 0


@pytest.mark.parametrize("kind", list(QueueKind))
def test_producers_racing_shutdown_keep_counters_balanced(tmp_path, kind):
    producers, per_producer = 3, 5_000
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
    try:
        for trial in range(4):
            pipeline = null_pipeline(tmp_path, queue=kind, capacity=64).start()

            def produce():
                for i in range(per_producer):
                    pipeline.new_monitoring_record(DurationRecord("a()", i))

            threads = [threading.Thread(target=produce, daemon=True)
                       for _ in range(producers)]
            for thread in threads:
                thread.start()
            # Shut down mid-stream, a little later on each trial.
            while pipeline.queue.stats().enqueued < 500 * (trial + 1):
                time.sleep(0.0005)
            report = pipeline.shutdown()
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            stats = pipeline.queue.stats()
            assert report.enqueued == stats.enqueued
            assert report.enqueued == report.written + report.overwritten + report.failed
            assert stats.enqueued + stats.dropped == producers * per_producer
    finally:
        sys.setswitchinterval(switch_interval)


def test_fast_put_held_past_close_and_final_drain_is_dropped(tmp_path, hooked_deque):
    pipeline = null_pipeline(tmp_path).start()
    deque = hooked_deque(pipeline.queue)
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        release.wait(timeout=5)

    deque.before_append = hold
    producer = threading.Thread(target=pipeline.new_monitoring_record,
                                args=(DurationRecord("a()", 1),), daemon=True)
    producer.start()
    assert entered.wait(timeout=2)  # past the open check, before the append
    report = pipeline.shutdown()  # the close, then the writer's final, empty drain
    release.set()
    producer.join(timeout=2)
    assert not producer.is_alive()
    stats = pipeline.queue.stats()
    assert report.enqueued == stats.enqueued == 0
    assert stats.enqueued == report.written + report.overwritten + report.failed
    assert stats.dropped == 1
