"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 1-3 share one benchmark execution (depth 10, 100 000 iterations,
5 fresh processes per configuration) and criterion 9 shares one depth
sweep; both run real child processes and dominate the suite's runtime.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch progress.
"""

import collections
import contextlib
import random
import time
from pathlib import Path

import pytest

from minimon import probes
from minimon.chart import render_depth_chart
from minimon.pipeline import Pipeline, PipelineConfig, WriterKind
from minimon.probes import AggregatingProbe, ProbeKind
from minimon.queues import BlockingLinkedQueue, QueueKind, SyncRingQueue
from minimon.records import (
    AggregatedRecord,
    DurationRecord,
    FullRecord,
    deserialize,
    serialize,
)
from minimon.runner import BenchmarkConfig, run_config, sweep_depths
from minimon.stats import Direction, compare, render_table, summarize, summary_csv
from minimon.workload import WorkloadParams

pytestmark = pytest.mark.acceptance

GOLDEN = Path(__file__).parent / "golden"

ORDERED_PROBES = [
    ("none", ProbeKind.NONE),
    ("direct-aggregating", ProbeKind.DIRECT_AGGREGATING),
    ("direct-duration", ProbeKind.DIRECT_DURATION),
    ("direct-full", ProbeKind.DIRECT_FULL),
    ("interceptor-full", ProbeKind.INTERCEPTOR_FULL),
]

SWEEP_CONFIGS = [
    ("none", ProbeKind.NONE, QueueKind.BLOCKING_LINKED),
    ("interceptor-full", ProbeKind.INTERCEPTOR_FULL, QueueKind.BLOCKING_LINKED),
    ("direct-full", ProbeKind.DIRECT_FULL, QueueKind.BLOCKING_LINKED),
    ("direct-duration", ProbeKind.DIRECT_DURATION, QueueKind.BLOCKING_LINKED),
    ("direct-full-ring", ProbeKind.DIRECT_FULL, QueueKind.SYNC_RING),
    ("direct-duration-ring", ProbeKind.DIRECT_DURATION, QueueKind.SYNC_RING),
    ("direct-aggregating", ProbeKind.DIRECT_AGGREGATING, QueueKind.BLOCKING_LINKED),
    ("direct-aggregating-ring", ProbeKind.DIRECT_AGGREGATING, QueueKind.SYNC_RING),
]

OPTIMIZED_CONFIGS = [name for name, _, _ in SWEEP_CONFIGS
                     if name not in ("none", "interceptor-full")]

SWEEP_DEPTHS = [2, 8, 32, 128]


@contextlib.contextmanager
def criterion(number, name, capfd):
    # capfd.disabled() lifts pytest's capture so one line per criterion is
    # always visible in the run log
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capfd.disabled():
            print(f"\nACCEPTANCE {number} ({name}): {verdict}", flush=True)


def bench_config(config_id, probe, queue=QueueKind.BLOCKING_LINKED, depth=10,
                 iterations=100_000, runs=5):
    # Null writer throughout: the criteria compare probe/queue cost, and
    # the null writer isolates it from hard-disk state.
    return BenchmarkConfig(
        config_id=config_id,
        pipeline=PipelineConfig(probe=probe, queue=queue, writer=WriterKind.NULL),
        workload=WorkloadParams(depth=depth, busy_ns=0),
        iterations=iterations, runs=runs, warmup_fraction=0.5)


@pytest.fixture(scope="module")
def overhead_summaries(tmp_path_factory):
    """Criteria 1-3 data: the five probe styles at desk scale."""
    out = tmp_path_factory.mktemp("acceptance-overhead")
    summaries = {}
    for config_id, probe in ORDERED_PROBES:
        started = time.monotonic()
        sample_set = run_config(bench_config(config_id, probe), out,
                                keep_monitoring_log=False)
        summaries[config_id] = summarize(sample_set.kept_samples())
        print(f"  [bench] {config_id}: mean {summaries[config_id].mean:.3f} µs/iter "
              f"({time.monotonic() - started:.0f}s)", flush=True)
    return summaries


@pytest.fixture(scope="module")
def sweep_summaries(tmp_path_factory):
    """Criterion 9 data: all eight configurations over four depths."""
    out = tmp_path_factory.mktemp("acceptance-sweep")
    configs = [bench_config(name, probe, queue=queue, iterations=20_000, runs=2)
               for name, probe, queue in SWEEP_CONFIGS]
    started = time.monotonic()
    results = sweep_depths(configs, SWEEP_DEPTHS, out, keep_monitoring_log=False)
    print(f"  [sweep] {len(results)} cells in {time.monotonic() - started:.0f}s",
          flush=True)
    return {key: summarize(ss.kept_samples()) for key, ss in results.items()}


def test_criterion_1_overhead_ordering(overhead_summaries, capfd):
    with criterion(1, "overhead ordering", capfd):
        s = overhead_summaries
        order = [name for name, _ in ORDERED_PROBES]
        # strictly-faster adjacent pairs need significant separation
        for faster, slower in zip(order, order[1:]):
            if (faster, slower) == ("direct-duration", "direct-full"):
                continue
            cmp = compare(faster, s[faster], slower, s[slower])
            assert cmp.significant and cmp.direction is Direction.A_FASTER, (
                f"{faster} not significantly below {slower}: "
                f"{s[faster].mean:.4f}±{s[faster].ci95_half:.4f} vs "
                f"{s[slower].mean:.4f}±{s[slower].ci95_half:.4f}")
        # the duration <= full pair tolerates equality: it must only not
        # be significantly slower
        cmp = compare("direct-duration", s["direct-duration"],
                      "direct-full", s["direct-full"])
        assert not (cmp.significant and cmp.direction is Direction.B_FASTER), (
            "direct-duration is significantly slower than direct-full")
        assert (s["direct-duration"].mean <= s["direct-full"].mean
                or not cmp.significant)


def test_criterion_2_aggregation_benefit(overhead_summaries, capfd):
    with criterion(2, "aggregation benefit", capfd):
        agg = overhead_summaries["direct-aggregating"].mean
        dur = overhead_summaries["direct-duration"].mean
        assert agg <= 0.5 * dur, f"ratio {agg / dur:.3f} exceeds 0.5"


def test_criterion_3_interceptor_penalty(overhead_summaries, capfd):
    with criterion(3, "interceptor penalty", capfd):
        interceptor = overhead_summaries["interceptor-full"].mean
        direct = overhead_summaries["direct-full"].mean
        assert interceptor >= 1.3 * direct, (
            f"ratio {interceptor / direct:.3f} below 1.3")


def test_criterion_4_queue_model_equivalence(capfd):
    with criterion(4, "queue model equivalence", capfd):
        started = time.monotonic()
        rng = random.Random(99)
        for capacity in (1, 2, 7, 64):
            ring = SyncRingQueue(capacity)
            blocking = BlockingLinkedQueue(capacity)
            ring_model = collections.deque()
            blocking_model = collections.deque()
            ring_overwritten = 0
            for i in range(12_000):
                if rng.random() < 0.6:
                    ring.put(i)
                    if len(ring_model) == capacity:
                        ring_model.popleft()
                        ring_overwritten += 1
                    ring_model.append(i)
                    if len(blocking_model) < capacity:
                        blocking.put(i)
                        blocking_model.append(i)
                else:
                    want = ring_model.popleft() if ring_model else None
                    assert ring.take() == want
                    want = blocking_model.popleft() if blocking_model else None
                    assert blocking.take() == want
            assert ring.stats().overwritten == ring_overwritten
        assert time.monotonic() - started < 10


def test_criterion_5_aggregation_conservation(capfd, monkeypatch):
    with criterion(5, "aggregation conservation", capfd):
        started = time.monotonic()
        now = 10**12
        # The probe's exit holds the one fold; a fixed clock sets each duration.
        monkeypatch.setattr(probes, "monotonic_ns", lambda: now)
        rng = random.Random(5)
        for window in (1, 2, 3, 1000):
            emitted = []
            probe = AggregatingProbe(emitted.append, window=window)
            durations = [rng.randrange(0, 10**7) for _ in range(4000)]
            for d in durations:
                probe.exit("m()", now - d)
            assert all(record.count == window for record in emitted)
            probe.flush()
            assert sum(record.count for record in emitted) == len(durations)
            assert sum(record.sum_duration for record in emitted) == sum(durations)
        assert time.monotonic() - started < 1


def test_criterion_6_writer_completeness(tmp_path, capfd):
    with criterion(6, "writer completeness", capfd):
        started = time.monotonic()
        for capacity in (1, 10, 10_000):
            log = tmp_path / f"cap{capacity}.log"
            pipeline = Pipeline(PipelineConfig(
                queue=QueueKind.BLOCKING_LINKED, queue_capacity=capacity,
                writer=WriterKind.FILE, output_path=str(log))).start()
            records = [DurationRecord("m()", i) for i in range(2000)]
            for record in records:
                pipeline.new_monitoring_record(record)
            report = pipeline.shutdown()
            lines = log.read_text().splitlines()
            assert report.written == report.enqueued == 2000
            assert [deserialize(line) for line in lines] == records
        assert time.monotonic() - started < 10


def test_criterion_7_trace_reconstruction(tmp_path, capfd):
    with criterion(7, "trace reconstruction", capfd):
        started = time.monotonic()
        config = BenchmarkConfig(
            config_id="recon",
            pipeline=PipelineConfig(probe=ProbeKind.DIRECT_FULL,
                                    queue=QueueKind.BLOCKING_LINKED,
                                    writer=WriterKind.FILE),
            workload=WorkloadParams(depth=10, busy_ns=0),
            iterations=40, runs=1, warmup_fraction=0.0)
        run_config(config, tmp_path)
        log = tmp_path / "recon" / "run_0" / "monitoring.log"
        traces = collections.defaultdict(list)
        for line in log.read_text().splitlines():
            record = deserialize(line)
            assert isinstance(record, FullRecord)
            traces[record.trace_id].append(record)
        assert len(traces) == 40
        for records in traces.values():
            assert len(records) == 10
            by_call = sorted(records, key=lambda r: r.eoi)
            # a linear chain: entry i sits at stack depth i, and each
            # callee's lifetime nests inside its caller's
            assert [(r.eoi, r.ess) for r in by_call] == [(i, i) for i in range(10)]
            for parent, child in zip(by_call, by_call[1:]):
                assert parent.tin <= child.tin
                assert child.tout <= parent.tout
        assert time.monotonic() - started < 10


def test_criterion_8_statistics_oracle(capfd):
    with criterion(8, "statistics oracle", capfd):
        import math

        started = time.monotonic()

        def naive(samples_ns):
            xs = sorted(max(v, 0) / 1000.0 for v in samples_ns)
            n = len(xs)
            mean = sum(xs) / n
            stddev = math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))

            def quantile(p):
                h = (n - 1) * p
                lo, hi = math.floor(h), math.ceil(h)
                return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

            return (mean, stddev, 1.96 * stddev / math.sqrt(n),
                    quantile(0.25), quantile(0.5), quantile(0.75))

        def close(a, b):
            return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

        rng = random.Random(8)
        for _ in range(1000):
            samples = [rng.randrange(0, 10**7)
                       for _ in range(rng.randrange(2, 40))]
            s = summarize(samples)
            for got, want in zip(
                    (s.mean, s.stddev, s.ci95_half, s.q1, s.median, s.q3),
                    naive(samples)):
                assert close(got, want)

        s = summarize([i * 1000 for i in range(1, 9)])
        assert close(s.q1, 2.75) and close(s.median, 4.5) and close(s.q3, 6.25)
        s = summarize([7000] * 5)
        assert s.stddev == 0.0 and s.ci95_half == 0.0
        assert time.monotonic() - started < 5


def test_criterion_9_depth_sweep_shape(sweep_summaries, capfd):
    with criterion(9, "depth sweep shape", capfd):
        s = sweep_summaries
        interceptor_128 = s[("interceptor-full", 128)]
        for name in OPTIMIZED_CONFIGS:
            cmp = compare(name, s[(name, 128)],
                          "interceptor-full", interceptor_128)
            assert cmp.significant and cmp.direction is Direction.A_FASTER, (
                f"{name} not significantly below interceptor-full at depth 128: "
                f"{s[(name, 128)].mean:.3f}±{s[(name, 128)].ci95_half:.3f} vs "
                f"{interceptor_128.mean:.3f}±{interceptor_128.ci95_half:.3f}")
        for name, _, _ in SWEEP_CONFIGS:
            for d_lo, d_hi in zip(SWEEP_DEPTHS, SWEEP_DEPTHS[1:]):
                lo, hi = s[(name, d_lo)], s[(name, d_hi)]
                assert hi.mean + hi.ci95_half >= lo.mean - lo.ci95_half, (
                    f"{name}: mean fell from depth {d_lo} "
                    f"({lo.mean:.3f}) to {d_hi} ({hi.mean:.3f})")


def test_criterion_10_round_trip_and_format_stability(capfd):
    with criterion(10, "round-trip and format stability", capfd):
        rng = random.Random(10)
        sigs = ["a.b()", "x.y.z(int)", "pkg.Cls.m(java.lang.String)", "leaf()"]
        for _ in range(10_000):
            kind = rng.randrange(3)
            sig = rng.choice(sigs)
            if kind == 0:
                tin = rng.randrange(0, 2**60)
                record = FullRecord(sig, tin, tin + rng.randrange(0, 10**9),
                                    rng.randrange(0, 2**40),
                                    rng.randrange(0, 10**6),
                                    rng.randrange(0, 10**4), "h", "s")
            elif kind == 1:
                record = DurationRecord(sig, rng.randrange(0, 2**60))
            else:
                record = AggregatedRecord(sig, rng.randrange(1, 10**6),
                                          rng.randrange(0, 2**60))
            assert deserialize(serialize(record)) == record

        # golden files generated once from the summarize oracle and frozen
        rng = random.Random(2024)

        def samples(loc, spread, n=200):
            return [max(0, int(rng.gauss(loc, spread))) for _ in range(n)]

        entries = [
            ("baseline", summarize(samples(800, 60))),
            ("probe-a", summarize(samples(24000, 2500))),
            ("probe-b", summarize(samples(41000, 4000))),
        ]
        assert render_table(entries) + "\n" == (
            GOLDEN / "summary_table.txt").read_text()
        assert summary_csv(entries) == (GOLDEN / "summary.csv").read_text()

        results = {}
        for i, cfg in enumerate(["baseline", "probe-a", "probe-b"]):
            for d in (2, 8, 32, 128):
                results[(cfg, d)] = summarize(samples(500 * (i + 1) * d, 40 * d))
        assert render_depth_chart(results) == (
            GOLDEN / "depth_chart.svg").read_text()
