"""The layer ledger: what each minimon layer costs on its own.

* Primitive costs (ns per operation): record construction and
  serialization, trace-registry bookkeeping, queue put and take.
* The MooBench/Kieker I/C/W split per probe style, in µs per depth-10 root
  call: instrumentation with a no-op ``emit`` (I), plus the queue hand-off
  to a null writer (I+C), plus the file writer (I+C+W).
* Writer drain rates: a queue pre-filled while the writer is paused with
  ``pause_writer``, timed over ``shutdown()``.

Each figure is the median of a few repeats.
"""

from __future__ import annotations

import statistics
import time
import types
from pathlib import Path

from minimon.pipeline import Pipeline, PipelineConfig, WriterKind
from minimon.probes import BENCH_HOSTNAME, BENCH_SESSION_ID, ProbeKind
from minimon.queues import BlockingLinkedQueue, QueueKind, SyncRingQueue
from minimon.records import AggregatedRecord, DurationRecord, FullRecord, serialize
from minimon.trace_registry import TraceRegistry
from minimon.workload import CallChain, WorkloadParams

from perfbench.checks import (Tally, checksum_violations, counter_violations,
                              expected_records)

_clock = time.perf_counter_ns

REPEATS = 5
PRIMITIVE_OPS = 10_000
CHAIN_CALLS = 2_000
DRAIN_RECORDS = 50_000
DRAIN_REPEATS = 3
# Long enough for a writer blocked in its timed take to reach the pause gate.
_PAUSE_SETTLE_S = 0.1


def _median_ns_per_op(body, ops: int, repeats: int = REPEATS) -> float:
    """Median over repeats of ``body(ops)``'s time per op, loop cost removed."""
    def empty(n):
        for _ in range(n):
            pass

    def timed(fn):
        t0 = _clock()
        fn(ops)
        return _clock() - t0

    return statistics.median((timed(body) - timed(empty)) / ops for _ in range(repeats))


def primitive_costs(signature: str) -> dict[str, float]:
    full = FullRecord(signature, 1, 2, 3, 4, 5, BENCH_HOSTNAME, BENCH_SESSION_ID)

    def full_new(n):
        for _ in range(n):
            FullRecord(signature, 1, 2, 3, 4, 5, BENCH_HOSTNAME, BENCH_SESSION_ID)

    def duration_new(n):
        for _ in range(n):
            DurationRecord(signature, 7)

    def aggregated_new(n):
        for _ in range(n):
            AggregatedRecord(signature, 1000, 7000)

    def serialize_full(n):
        for _ in range(n):
            serialize(full)

    def enter_exit(n):
        registry = TraceRegistry()
        registry.begin_trace()
        registry.enter_method()
        enter, exit_ = registry.enter_method, registry.exit_method
        for _ in range(n):
            enter()
            exit_()
        exit_()

    def one_level_trace(n):
        registry = TraceRegistry()
        begin, enter, exit_ = registry.begin_trace, registry.enter_method, registry.exit_method
        for _ in range(n):
            begin()
            enter()
            exit_()

    costs = {
        "records.full_new_ns": _median_ns_per_op(full_new, PRIMITIVE_OPS),
        "records.duration_new_ns": _median_ns_per_op(duration_new, PRIMITIVE_OPS),
        "records.aggregated_new_ns": _median_ns_per_op(aggregated_new, PRIMITIVE_OPS),
        "records.serialize_full_ns": _median_ns_per_op(serialize_full, PRIMITIVE_OPS),
        "trace_registry.enter_exit_ns": _median_ns_per_op(enter_exit, PRIMITIVE_OPS),
    }
    costs["trace_registry.begin_trace_ns"] = (
        _median_ns_per_op(one_level_trace, PRIMITIVE_OPS) - costs["trace_registry.enter_exit_ns"])
    costs.update(queue_costs(signature))
    return costs


def queue_costs(signature: str) -> dict[str, float]:
    """Uncontended put and take, ns per op, at the default capacity."""
    record = DurationRecord(signature, 7)
    out = {}
    for name, cls in (("blocking", BlockingLinkedQueue), ("ring", SyncRingQueue)):
        puts, takes = [], []
        for _ in range(REPEATS):
            queue = cls()
            put, take = queue.put, queue.take
            t0 = _clock()
            for _ in range(queue.capacity):
                put(record)
            t1 = _clock()
            for _ in range(queue.capacity):
                take()
            t2 = _clock()
            puts.append((t1 - t0) / queue.capacity)
            takes.append((t2 - t1) / queue.capacity)
        out[f"queues.{name}_put_ns"] = statistics.median(puts)
        out[f"queues.{name}_take_ns"] = statistics.median(takes)
    return out


def _chain_us(chain: CallChain, depth: int, calls: int) -> tuple[float, int]:
    """µs per root call over ``calls`` calls, and the checksum of the returns."""
    call = chain.call
    checksum = 0
    t0 = _clock()
    for _ in range(calls):
        checksum += call(depth)
    return (_clock() - t0) / calls / 1000, checksum


def noop_us(probe: ProbeKind, depth: int, signature: str) -> float:
    """Instrumentation only (I): the probe emits into a no-op stub."""
    stub = types.SimpleNamespace(new_monitoring_record=lambda record: None,
                                 config=PipelineConfig(probe=probe))
    chain = CallChain(probe, None if probe is ProbeKind.NONE else stub,
                      WorkloadParams(depth=depth), signature=signature)
    return statistics.median(_chain_us(chain, depth, CHAIN_CALLS)[0] for _ in range(REPEATS))


def pipeline_us(probe: ProbeKind, writer: WriterKind, depth: int, signature: str,
                work_dir: Path, tally: Tally) -> float:
    """I+C (null writer) or I+C+W (file writer), blocking queue, µs per root call."""
    config = PipelineConfig(probe=probe, queue=QueueKind.BLOCKING_LINKED, writer=writer,
                            output_path=str(work_dir / "ledger.log"))
    pipeline = Pipeline(config).start()
    chain = CallChain(probe, pipeline, WorkloadParams(depth=depth), signature=signature)
    us, checksum = _chain_us(chain, depth, CHAIN_CALLS)
    chain.flush()
    report = pipeline.shutdown()
    tally.record(counter_violations(vars(report), expected_records(config, depth, CHAIN_CALLS))
                 + checksum_violations(checksum))
    return us


def drain_records_per_s(writer: WriterKind, signature: str, work_dir: Path,
                        tally: Tally) -> float:
    """Writer drain rate: pre-fill a paused pipeline, then time ``shutdown()``."""
    rates = []
    record = FullRecord(signature, 1, 2, 3, 4, 5, BENCH_HOSTNAME, BENCH_SESSION_ID)
    for _ in range(DRAIN_REPEATS):
        config = PipelineConfig(queue=QueueKind.BLOCKING_LINKED,
                                queue_capacity=DRAIN_RECORDS, writer=writer,
                                output_path=str(work_dir / "drain.log"))
        pipeline = Pipeline(config).start()
        pipeline.pause_writer()
        time.sleep(_PAUSE_SETTLE_S)
        emit = pipeline.new_monitoring_record
        for _ in range(DRAIN_RECORDS):
            emit(record)
        t0 = _clock()
        report = pipeline.shutdown()
        rates.append(report.written / ((_clock() - t0) / 1e9))
        tally.record(counter_violations(vars(report), DRAIN_RECORDS))
    return statistics.median(rates)


def full_ledger(signature: str, work_dir: Path, tally: Tally, style_order: list[ProbeKind],
                depth: int = 10) -> dict[str, float]:
    """Every ledger figure, keyed by its per-layer metric name."""
    out = primitive_costs(signature)
    for probe in style_order:
        out[f"probes.{probe.value}.noop_us"] = noop_us(probe, depth, signature)
    for probe in style_order:
        out[f"pipeline.{probe.value}.null_us"] = pipeline_us(
            probe, WriterKind.NULL, depth, signature, work_dir, tally)
        out[f"pipeline.{probe.value}.file_us"] = pipeline_us(
            probe, WriterKind.FILE, depth, signature, work_dir, tally)
    out["pipeline.drain_null_records_per_s"] = drain_records_per_s(
        WriterKind.NULL, signature, work_dir, tally)
    out["pipeline.drain_file_records_per_s"] = drain_records_per_s(
        WriterKind.FILE, signature, work_dir, tally)
    return out
