import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import minimon
from minimon.pipeline import Pipeline, PipelineConfig, WriterKind
from minimon.probes import ProbeKind
from minimon.records import DurationRecord, FullRecord, deserialize
from minimon.workload import CallChain, WorkloadParams


@pytest.fixture
def pipeline(tmp_path):
    p = Pipeline(PipelineConfig(writer=WriterKind.NULL,
                                output_path=str(tmp_path / "m.log")))
    p.start()
    yield p
    p.shutdown()


def records_emitted(pipeline, probe_kind, params, calls=1):
    collected = []
    original = pipeline.new_monitoring_record

    def tap(record):
        collected.append(record)
        original(record)

    pipeline.new_monitoring_record = tap
    chain = CallChain(probe_kind, pipeline, params)
    for _ in range(calls):
        chain.call(params.depth)
    chain.flush()
    pipeline.new_monitoring_record = original
    return collected


def test_none_probe_emits_nothing(pipeline):
    collected = records_emitted(pipeline, ProbeKind.NONE, WorkloadParams(depth=5))
    assert collected == []
    assert pipeline.queue.stats().enqueued == 0


def test_depth_one_single_activation(pipeline):
    collected = records_emitted(
        pipeline, ProbeKind.DIRECT_DURATION, WorkloadParams(depth=1, busy_ns=0))
    assert len(collected) == 1


def test_depth_ten_activations(pipeline):
    collected = records_emitted(
        pipeline, ProbeKind.DIRECT_DURATION, WorkloadParams(depth=10))
    assert len(collected) == 10
    assert all(isinstance(r, DurationRecord) for r in collected)


def test_interceptor_depth_counts(pipeline):
    collected = records_emitted(
        pipeline, ProbeKind.INTERCEPTOR_FULL, WorkloadParams(depth=7))
    assert len(collected) == 7
    assert all(isinstance(r, FullRecord) for r in collected)


def test_direct_full_linear_chain_metadata(pipeline):
    collected = records_emitted(
        pipeline, ProbeKind.DIRECT_FULL, WorkloadParams(depth=10))
    by_call = sorted(collected, key=lambda r: r.eoi)
    assert [(r.eoi, r.ess) for r in by_call] == [(i, i) for i in range(10)]
    assert len({r.trace_id for r in collected}) == 1


def test_each_iteration_is_its_own_trace(pipeline):
    collected = records_emitted(
        pipeline, ProbeKind.DIRECT_FULL, WorkloadParams(depth=3), calls=4)
    trace_ids = {r.trace_id for r in collected}
    assert len(trace_ids) == 4


def test_busy_wait_lower_bound(pipeline):
    busy_ns = 50_000
    chain = CallChain(ProbeKind.NONE, None, WorkloadParams(depth=1, busy_ns=busy_ns))
    for _ in range(20):
        start = time.perf_counter_ns()
        chain.call(1)
        assert time.perf_counter_ns() - start >= busy_ns


def test_returns_leaf_timestamp(pipeline):
    chain = CallChain(ProbeKind.NONE, None, WorkloadParams(depth=4))
    before = time.perf_counter_ns()
    ts = chain.call(4)
    after = time.perf_counter_ns()
    assert before <= ts <= after


@pytest.mark.parametrize("probe_kind", list(ProbeKind), ids=lambda kind: kind.value)
def test_every_probe_kind_times_its_leaf_and_records_each_level(probe_kind, tmp_path):
    depth, calls, busy_ns = 4, 5, 50_000
    signature = "test.Chain.level()"
    p = Pipeline(PipelineConfig(writer=WriterKind.NULL, aggregation_window=3,
                                output_path=str(tmp_path / "m.log"))).start()
    collected = []
    emit = p.new_monitoring_record
    p.new_monitoring_record = collected.append
    chain = CallChain(probe_kind, p, WorkloadParams(depth, busy_ns), signature)
    p.new_monitoring_record = emit
    for _ in range(calls):
        before = time.perf_counter_ns()
        entry = chain.call(depth)
        after = time.perf_counter_ns()
        assert before <= entry <= after - busy_ns
    chain.flush()
    p.shutdown()
    assert all(r.signature == signature for r in collected)
    if probe_kind is ProbeKind.DIRECT_AGGREGATING:
        assert len(collected) == 7  # 20 calls in windows of 3: six full, one residual
        assert sum(r.count for r in collected) == depth * calls
    else:
        assert len(collected) == (0 if probe_kind is ProbeKind.NONE else depth * calls)


@pytest.mark.parametrize("probe_kind", [ProbeKind.DIRECT_FULL, ProbeKind.DIRECT_DURATION,
                                        ProbeKind.DIRECT_AGGREGATING],
                         ids=lambda kind: kind.value)
def test_every_direct_probes_records_are_written_as_emitted(probe_kind, tmp_path):
    # The probes build their records without __init__; the file writer
    # writes each of them as a line that reads back as the same record.
    path = tmp_path / "m.log"
    p = Pipeline(PipelineConfig(writer=WriterKind.FILE, aggregation_window=3,
                                output_path=str(path))).start()
    emitted = records_emitted(p, probe_kind, WorkloadParams(depth=4), calls=5)
    report = p.shutdown()
    assert emitted and report.failed == 0 and report.written == len(emitted)
    assert [deserialize(line) for line in path.read_text().splitlines()] == emitted


def test_aggregating_emission_count(pipeline, tmp_path):
    p = Pipeline(PipelineConfig(probe=ProbeKind.DIRECT_AGGREGATING,
                                writer=WriterKind.NULL, aggregation_window=10,
                                output_path=str(tmp_path / "agg.log")))
    p.start()
    chain = CallChain(ProbeKind.DIRECT_AGGREGATING, p, WorkloadParams(depth=5))
    for _ in range(7):
        chain.call(5)  # 35 invocations, W=10 -> 3 full windows
    assert p.queue.stats().enqueued == 3
    chain.flush()  # residual 5
    assert p.queue.stats().enqueued == 4
    p.shutdown()


def test_direct_full_call_opens_at_most_four_python_frames_per_level(pipeline, python_calls):
    # Per level: the method, the registry's enter, exit and the queue's put;
    # exit stores the record's slots in its own frame. chain.call is the
    # root level.
    chain = CallChain(ProbeKind.DIRECT_FULL, pipeline, WorkloadParams(depth=10))
    chain.call(10)
    assert python_calls(chain.call, 10) <= 4 * 10


def test_direct_duration_call_opens_at_most_three_python_frames_per_level(pipeline, python_calls):
    # Per level: the method, exit and the queue's put; enter is the clock,
    # and exit stores the record's slots in its own frame.
    chain = CallChain(ProbeKind.DIRECT_DURATION, pipeline, WorkloadParams(depth=10))
    chain.call(10)
    assert python_calls(chain.call, 10) <= 3 * 10


def test_direct_aggregating_call_opens_at_most_two_python_frames_per_level(
        pipeline, python_calls):
    # Per level: the method and exit, which emits only a full window; the
    # first call also opens the signature's window once.
    chain = CallChain(ProbeKind.DIRECT_AGGREGATING, pipeline, WorkloadParams(depth=10))
    assert python_calls(chain.call, 10) <= 2 * 10 + 1


def test_interceptor_full_call_opens_at_most_twelve_python_frames_per_level(
        pipeline, python_calls):
    # Per level: the proxy, the context's __init__ and its two argument
    # comprehensions, before, the registry's enter, proceed, _invoke, the
    # plain method, after, exit and the queue's put.
    chain = CallChain(ProbeKind.INTERCEPTOR_FULL, pipeline, WorkloadParams(depth=10))
    chain.call(10)
    assert python_calls(chain.call, 10) <= 12 * 10


def test_uninstrumented_call_opens_one_python_frame_per_level(python_calls):
    chain = CallChain(ProbeKind.NONE, None, WorkloadParams(depth=10))
    for depth in (1, 10):
        assert python_calls(chain.call, depth) == depth


def test_probe_without_pipeline_is_error():
    with pytest.raises(ValueError):
        CallChain(ProbeKind.DIRECT_FULL, None, WorkloadParams(depth=1))


def test_params_validation():
    with pytest.raises(ValueError):
        WorkloadParams(depth=0)
    with pytest.raises(ValueError):
        WorkloadParams(depth=1, busy_ns=-1)


def test_monitored_application_imports_leave_out_numpy_and_the_harness():
    env = dict(os.environ, PYTHONPATH=str(Path(minimon.__file__).parents[1]))
    # The application leaves out the harness too; the CLI (run, sweep) only numpy.
    for imports, unwanted in (("minimon.pipeline, minimon.workload",
                               {"numpy", "minimon.runner", "minimon.stats"}),
                              ("minimon.cli", {"numpy"})):
        code = f"import sys, {imports}; print(sorted({unwanted!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "[]", imports
