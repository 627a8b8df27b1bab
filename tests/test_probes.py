import dataclasses
import random
import threading

import pytest

from minimon import probes
from minimon.probes import (
    AggregatingProbe,
    CallContext,
    DirectDurationProbe,
    DirectFullProbe,
    intercept,
)
from minimon.records import AggregatedRecord, DurationRecord, FullRecord, serialize
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


def _direct_full_call(emit):
    probe = DirectFullProbe(emit)
    return lambda: probe.exit("a()", probe.enter())


@pytest.mark.parametrize("monitored", [
    _direct_full_call,
    lambda emit: intercept(lambda: None, "a()", emit),
], ids=["direct", "intercept"])
def test_a_refused_root_record_leaves_no_trace_open(monitored):
    # The sink refuses the first root record; the next call still starts
    # a trace of its own at eoi 0, ess 0.
    refused, sink = [], Collector()

    def emit(record):
        if not refused:
            refused.append(record)
            raise OSError("no space left on device")
        sink(record)

    call = monitored(emit)
    with pytest.raises(OSError):
        call()
    call()
    (record,) = sink.records
    assert (record.eoi, record.ess) == (0, 0)
    assert record.trace_id == refused[0].trace_id + 1


@pytest.mark.parametrize("monitored", [
    _direct_full_call,
    lambda emit: intercept(lambda: None, "a()", emit),
], ids=["direct", "intercept"])
def test_the_probes_record_equals_the_classs_record(monitored):
    # The probe stores the record's slots itself, without FullRecord.__init__.
    # A twin built through __init__ equals it, hashes and serializes the
    # same, which also shows that all eight slots are set. __init__'s checks
    # are not exercised here: the probe's contract is a monotonic clock, so
    # a clock patched to run backwards would test a case the probe excludes.
    sink = Collector()
    monitored(sink)()
    (record,) = sink.records
    assert type(record) is FullRecord
    twin = FullRecord(*dataclasses.astuple(record))
    assert record == twin and hash(record) == hash(twin)
    assert serialize(record) == serialize(twin)


def test_the_aggregating_probes_records_equal_the_classs_records():
    # An open window is an AggregatedRecord stored without __post_init__.
    # The one a full window emits and the one flush emits each equal a twin
    # built through __init__, which hashes and serializes the same.
    sink = Collector()
    probe = AggregatingProbe(sink, window=3)
    for _ in range(5):
        probe.exit("a()", probe.enter())
    assert probe.flush() == 1
    assert [record.count for record in sink.records] == [3, 2]
    for record in sink.records:
        assert type(record) is AggregatedRecord
        twin = AggregatedRecord(*dataclasses.astuple(record))
        assert record == twin and hash(record) == hash(twin)
        assert serialize(record) == serialize(twin)


def test_direct_duration_emits_one_record_per_call():
    # The probe stores both slots itself, without DurationRecord.__init__.
    # Each record is exactly a DurationRecord, since the writer picks its
    # formatter by exact type, and equals a twin built through __init__,
    # which hashes and serializes the same.
    sink = Collector()
    probe = DirectDurationProbe(sink)
    for _ in range(10):
        tin = probe.enter()
        probe.exit("m()", tin)
    assert len(sink.records) == 10
    for record in sink.records:
        assert type(record) is DurationRecord and record.duration >= 0
        twin = DurationRecord(*dataclasses.astuple(record))
        assert record == twin and hash(record) == hash(twin)
        assert serialize(record) == serialize(twin)


def test_direct_duration_touches_no_trace_state():
    sink = Collector()
    probe = DirectDurationProbe(sink)
    registry = TraceRegistry()
    tin = probe.enter()
    probe.exit("m()", tin)
    assert registry.enter_method()[1:] == (0, 0)  # no trace is open


NOW = 10**12


@pytest.fixture
def fold(monkeypatch):
    """Feed durations through ``AggregatingProbe.exit`` under a fixed clock.

    Returns the probe's sink and, per duration, the record its exit
    emitted (or None).
    """
    monkeypatch.setattr(probes, "monotonic_ns", lambda: NOW)

    def run(durations, window, probe=None):
        sink = Collector()
        probe = probe or AggregatingProbe(sink, window=window)
        emitted = []
        for d in durations:
            before = len(sink.records)
            probe.exit("a()", NOW - d)
            emitted.append(sink.records[-1] if len(sink.records) > before else None)
        return probe, sink, emitted

    return run


def test_aggregate_window_fills_and_resets(fold):
    probe, sink, emitted = fold([10, 20, 30], window=3)
    assert emitted == [None, None, AggregatedRecord("a()", 3, 60)]
    assert probe.flush() == 0  # the window restarted empty


def test_aggregate_partial_window_emits_nothing(fold):
    probe, sink, emitted = fold([10, 20], window=3)
    assert emitted == [None, None]
    assert probe.flush() == 1
    assert sink.records == [AggregatedRecord("a()", 2, 30)]


def test_aggregate_seven_durations_two_emissions(fold):
    # brute-force fold: 7 durations, W=3 -> emissions after 3 and 6
    durations = [5, 7, 11, 13, 17, 19, 23]
    probe, sink, emitted = fold(durations, window=3)
    records = [r for r in emitted if r is not None]
    assert [e is not None for e in emitted] == [
        False, False, True, False, False, True, False]
    assert records[0].sum_duration == 5 + 7 + 11
    assert records[1].sum_duration == 13 + 17 + 19
    probe.flush()
    assert sink.records[-1] == AggregatedRecord("a()", 1, 23)


@pytest.mark.parametrize("window", [1, 2, 3, 1000])
def test_aggregation_conservation(fold, window):
    rng = random.Random(window)
    durations = [rng.randrange(0, 10**6) for _ in range(5000)]
    probe, sink, emitted = fold(durations, window=window)
    assert all(r.count == window for r in sink.records)
    probe.flush()
    assert sum(r.count for r in sink.records) == len(durations)
    assert sum(r.sum_duration for r in sink.records) == sum(durations)


def test_an_emitted_window_is_not_touched_by_later_calls(fold):
    # The next calls fold into a new window, never into the one emitted.
    probe, sink, _ = fold([10, 20, 30], window=3)
    fold([1, 2, 3], window=3, probe=probe)
    assert sink.records == [AggregatedRecord("a()", 3, 60), AggregatedRecord("a()", 3, 6)]


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
        AggregatingProbe(lambda r: None, window=0)
