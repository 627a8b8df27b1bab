import random
import threading

import pytest

from minimon.probes import (
    AggregatingProbe,
    AggregationState,
    CallContext,
    DirectDurationProbe,
    DirectFullProbe,
    aggregate_duration,
    intercept,
)
from minimon.records import AggregatedRecord, DurationRecord, FullRecord
from minimon.trace_registry import TraceRegistry


class Collector:
    def __init__(self):
        self.records = []

    def __call__(self, record):
        self.records.append(record)


def test_direct_full_depth_one():
    sink = Collector()
    probe = DirectFullProbe(sink)
    token = probe.enter()
    probe.exit("a()", token)
    (record,) = sink.records
    assert isinstance(record, FullRecord)
    assert (record.eoi, record.ess) == (0, 0)
    assert record.tout >= record.tin


def test_direct_full_depth_ten_chain():
    sink = Collector()
    probe = DirectFullProbe(sink)
    tokens = [probe.enter() for _ in range(10)]
    for token in reversed(tokens):
        probe.exit("a()", token)
    assert len(sink.records) == 10
    # exit order is innermost-first; sort back to call order by eoi
    by_call = sorted(sink.records, key=lambda r: r.eoi)
    assert [(r.eoi, r.ess) for r in by_call] == [(i, i) for i in range(10)]
    assert len({r.trace_id for r in sink.records}) == 1


def test_direct_duration_emits_one_record_per_call():
    sink = Collector()
    probe = DirectDurationProbe(sink)
    for _ in range(10):
        tin = probe.enter()
        probe.exit("m()", tin)
    assert len(sink.records) == 10
    assert all(isinstance(r, DurationRecord) and r.duration >= 0 for r in sink.records)


def test_direct_duration_touches_no_trace_state():
    sink = Collector()
    probe = DirectDurationProbe(sink)
    registry = TraceRegistry()
    tin = probe.enter()
    probe.exit("m()", tin)
    assert registry.recall_trace_id() == -1


def test_aggregate_window_fills_and_resets():
    state = AggregationState("a()", window=3)
    assert aggregate_duration(state, 10) is None
    assert aggregate_duration(state, 20) is None
    record = aggregate_duration(state, 30)
    assert record == AggregatedRecord("a()", 3, 60)
    assert (state.counter, state.sum) == (0, 0)


def test_aggregate_partial_window_emits_nothing():
    state = AggregationState("a()", window=3)
    aggregate_duration(state, 10)
    aggregate_duration(state, 20)
    assert state.counter == 2


def test_aggregate_seven_durations_two_emissions():
    # brute-force fold: 7 durations, W=3 -> emissions after 3 and 6
    state = AggregationState("a()", window=3)
    durations = [5, 7, 11, 13, 17, 19, 23]
    emitted = [aggregate_duration(state, d) for d in durations]
    records = [r for r in emitted if r is not None]
    assert [e is not None for e in emitted] == [
        False, False, True, False, False, True, False]
    assert records[0].sum_duration == 5 + 7 + 11
    assert records[1].sum_duration == 13 + 17 + 19
    assert state.counter == 1 and state.sum == 23


@pytest.mark.parametrize("window", [1, 2, 3, 1000])
def test_aggregation_conservation(window):
    rng = random.Random(window)
    state = AggregationState("a()", window=window)
    durations = [rng.randrange(0, 10**6) for _ in range(5000)]
    total_count = 0
    total_sum = 0
    for d in durations:
        record = aggregate_duration(state, d)
        if record is not None:
            total_count += record.count
            total_sum += record.sum_duration
    assert total_count + state.counter == len(durations)
    assert total_sum + state.sum == sum(durations)


def test_aggregating_probe_flushes_residual():
    sink = Collector()
    probe = AggregatingProbe(sink, window=1000)
    for _ in range(7):
        tin = probe.enter()
        probe.exit("m()", tin)
    assert sink.records == []
    probe.flush()
    (record,) = sink.records
    assert record.count == 7
    assert record.sum_duration >= 0
    # flush is idempotent once drained
    probe.flush()
    assert len(sink.records) == 1


def test_aggregating_probe_keeps_one_window_per_thread():
    sink = Collector()
    probe = AggregatingProbe(sink, window=1000)

    def aggregate(calls):
        for _ in range(calls):
            probe.exit("m()", probe.enter())
        probe.flush()

    threads = [threading.Thread(target=aggregate, args=(calls,)) for calls in (3, 5)]
    for thread in threads:
        thread.start()
        thread.join()
    assert sorted(record.count for record in sink.records) == [3, 5]
    assert probe.flush() == 0  # this thread aggregated nothing


def test_intercept_preserves_behavior():
    sink = Collector()
    wrapped = intercept(lambda x: x, "id()", sink)
    assert wrapped(5) == 5
    assert len(sink.records) == 1
    assert isinstance(sink.records[0], FullRecord)


def test_intercept_emits_record_on_exception():
    sink = Collector()

    def boom():
        raise ValueError("boom")

    wrapped = intercept(boom, "boom()", sink)
    with pytest.raises(ValueError):
        wrapped()
    assert len(sink.records) == 1
    assert sink.records[0].tout >= sink.records[0].tin


def test_intercept_allocates_context_per_invocation(monkeypatch):
    init, allocated = CallContext.__init__, []

    def counting_init(self, *args):
        allocated.append(self)
        init(self, *args)

    monkeypatch.setattr(CallContext, "__init__", counting_init)
    sink = Collector()
    wrapped = intercept(lambda: None, "f()", sink)
    for _ in range(25):
        wrapped()
    assert len(allocated) == 25


def test_interceptor_records_match_direct_full_except_timestamps():
    direct_sink = Collector()
    direct_probe = DirectFullProbe(direct_sink)

    def run_direct(d):
        token = direct_probe.enter()
        try:
            if d > 1:
                return run_direct(d - 1)
            return 0
        finally:
            direct_probe.exit("m()", token)

    intercept_sink = Collector()

    def raw(d):
        if d > 1:
            return proxied(d - 1)
        return 0

    proxied = intercept(raw, "m()", intercept_sink)

    for _ in range(3):
        run_direct(5)
        proxied(5)

    def mask(record):
        # trace ids come from a shared process-global allocator, so they
        # differ between the interleaved runs; renumber per stream.
        return (record.signature, record.eoi, record.ess,
                record.hostname, record.session_id)

    assert [mask(r) for r in direct_sink.records] == [
        mask(r) for r in intercept_sink.records]


def test_aggregation_window_validation():
    with pytest.raises(ValueError):
        AggregationState("a()", window=0)
    with pytest.raises(ValueError):
        AggregatingProbe(lambda r: None, window=0)
