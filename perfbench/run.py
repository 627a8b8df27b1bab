"""Run one minimon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload full-file --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports minimon from ``src/`` next to this
directory and puts ``src/`` on ``PYTHONPATH`` for the runner's children.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1``
it traces the same workload and adds the layer ledger for the per-layer
metrics. Every metric is printed as ``name = value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any correctness check failed.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("full-file", "duration-ring", "suite-report")
# Warm-up: in-process rounds for this long; suite-report one round (its
# children's imports start from a cold file cache).
WARMUP_S = 2.0
# Fresh-interpreter imports timed per run, spread over the measured seconds.
IMPORT_PROBES = 5
# Extra wall time past --seconds before the run is cut and counted as failed.
DEADLINE_MARGIN_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class GcCounter:
    """Counts collections per generation while entered, via ``gc.callbacks``."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self._active = False

    def on_gc(self, phase, info):
        if self._active and phase == "start":
            self.collections[info["generation"]] += 1

    def __enter__(self):
        self._active = True

    def __exit__(self, *exc):
        self._active = False


class ImportProbe:
    """Times ``import minimon`` in a fresh interpreter: process start to imported.

    Called between rounds; it probes at most ``IMPORT_PROBES`` times, spaced
    evenly over the measured seconds so that one slow moment of the host
    does not set the median.
    """

    def __init__(self, seconds: float):
        self.times: list[float] = []
        self._spacing = seconds / IMPORT_PROBES
        self._last = -float("inf")

    def __call__(self) -> None:
        now = time.perf_counter()
        if len(self.times) >= IMPORT_PROBES or now - self._last < self._spacing:
            return
        from minimon.runner import BenchmarkError

        self._last = now
        proc = subprocess.run([sys.executable, "-c", "import minimon"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"import minimon failed: {proc.stderr[-2000:]}")
        self.times.append(time.perf_counter() - now)

    def median_s(self) -> float:
        return statistics.median(self.times)


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Recorded at the start and end of each run so that results taken while
    the host ran slower can be told apart; no metric is scaled by it.
    """
    def step(x):
        return x + 1

    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        x = 0
        for _ in range(50_000):
            x = step(x)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def host_record(gc_counter: GcCounter, reference_ms: list[float]) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "pinned": len(affinity) < (os.cpu_count() or 0),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "switch_interval_s": sys.getswitchinterval(),
        "gc_collections_measured": gc_counter.collections,
        "reference_loop_ms": reference_ms,
    }


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def decile_ratio(samples) -> float:
    """Max over min of the medians of ten consecutive slices of ``samples``."""
    n = len(samples)
    medians = [statistics.median(samples[k * n // 10:(k + 1) * n // 10]) for k in range(10)]
    return max(medians) / max(min(medians), 1)


def quantile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(rounds, import_s: float, with_children: bool) -> dict:
    """End-to-end metrics: each the median of its per-round figure."""
    def median(figure):
        return statistics.median(getattr(r, figure) for r in rounds)

    return {
        "calls_per_s": median("calls_per_s"),
        "call_us_p50": median("call_us"),
        "records_per_s": median("records_per_s"),
        "verdict_s": median("verdict_s"),
        "setup_s": import_s + median("setup_s"),
        "peak_rss_mb": peak_rss_mb(with_children),
    }


def regime_metrics(samples_ns, config, depth: int, signature: str) -> dict:
    """Per-layer regime and gap figures from a workload's call samples.

    ``workload.unexplained_us`` is the mean call time minus what the ledger
    says the layers cost: no-op instrumentation plus one uncontended queue
    put per record handed over.
    """
    from minimon.queues import QueueKind
    from perfbench import ledger
    from perfbench.checks import expected_records

    kind = "blocking" if config.queue is QueueKind.BLOCKING_LINKED else "ring"
    put_ns = ledger.queue_costs(signature)[f"queues.{kind}_put_ns"]
    records_per_call = expected_records(config, depth, len(samples_ns)) / len(samples_ns)
    layers_us = ledger.noop_us(config.probe, depth, signature) + records_per_call * put_ns / 1000
    return {
        "workload.call_us_median": statistics.median(samples_ns) / 1000,
        "workload.call_us_p99": quantile(samples_ns, 0.99) / 1000,
        "workload.decile_ratio": decile_ratio(samples_ns),
        "workload.unexplained_us": statistics.fmean(samples_ns) / 1000 - layers_us,
    }


def lifecycle_metrics(rounds, tracer) -> dict:
    """Pipeline start/shutdown, backlog and loss from in-process rounds."""
    backlog = [b for r in rounds for b in r.backlog]
    enqueued = sum(r.report.enqueued for r in rounds)
    lost = sum(r.report.overwritten + r.report.dropped for r in rounds)
    return {
        "pipeline.start_ms": statistics.median(tracer.durations_s("pipeline.start")) * 1000,
        "pipeline.shutdown_ms": statistics.median(tracer.durations_s("pipeline.shutdown")) * 1000,
        "pipeline.backlog_p50": statistics.median(backlog),
        "pipeline.backlog_max": max(backlog),
        "pipeline.lost_ratio": lost / enqueued,
    }


def suite_layer_metrics(rounds, spawn_s: float, runs: int, tracer) -> dict:
    traced = [r for r in rounds if r.traced]
    load_s = statistics.median(tracer.durations_s("runner.load"))
    return {
        "runner.child_spawn_s": spawn_s,
        "runner.child_run_s": statistics.median(tracer.durations_s("runner.run_config")) / runs,
        "runner.load_s": load_s,
        "runner.load_rows_per_s": statistics.median(r.rows for r in traced) / load_s,
        "stats.summarize_ms": statistics.median(tracer.durations_s("stats.summarize")) * 1000,
        "stats.render_ms": statistics.median(tracer.durations_s("stats.render")) * 1000,
        "chart.render_ms": statistics.median(tracer.durations_s("chart.render")) * 1000,
        "cli.report_s": statistics.median(tracer.durations_s("cli.report")),
    }


def trace_overhead(untraced: dict, traced: dict) -> dict:
    return {
        "trace.calls_per_s_ratio": traced["calls_per_s"] / untraced["calls_per_s"],
        "trace.verdict_s_ratio": traced["verdict_s"] / untraced["verdict_s"],
    }


def round_rows(rounds) -> list[dict]:
    """Per-round figures for the result file, to see the spread inside a run."""
    figures = ("calls_per_s", "call_us", "records_per_s", "verdict_s", "setup_s")
    return [{f: getattr(r, f) for f in figures} for r in rounds]


def measure(one_round, seconds: float, warmup_s: float, tracer, alternate: bool,
            between=lambda: None) -> list:
    """Warm-up rounds until ``warmup_s`` has passed (at least one; checked,
    then discarded), then measured rounds for ``seconds``.

    ``one_round(tracer, measured)`` runs one round. An enabled ``tracer``
    traces every measured round, or every other one when ``alternate`` is
    set. ``between`` runs after each measured round, outside its timings.
    """
    from perfbench.spans import Tracer

    untraced = Tracer(enabled=False)
    end = time.perf_counter() + warmup_s
    while True:
        one_round(untraced, False)
        if time.perf_counter() >= end:
            break
    rounds = []
    min_rounds = 2 if alternate else 1
    end = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < end:
        traced = tracer.enabled and (not alternate or len(rounds) % 2 == 1)
        rounds.append(one_round(tracer if traced else untraced, True))
        between()
    return rounds


def bench(args, work_dir, tally, tracer, gc_counter):
    """Run the workload; returns end-to-end metrics, per-layer metrics and
    the per-round figures of the untraced rounds."""
    from minimon.probes import ProbeKind
    from perfbench import inprocess, ledger, suite

    rng = random.Random(args.seed)
    imports = ImportProbe(args.seconds)
    signature = f"perfbench.Chain{args.seed % 10_000:04d}.monitored_method()"
    alternate = args.trace == 1
    layers: dict = {}
    suite_dir = work_dir / "suite"

    def inprocess_round(config, depth):
        def one_round(round_tracer, measured):
            return inprocess.run_round(
                config, depth, inprocess.ROUND_CALLS, work_dir, signature, rng, tally,
                round_tracer, gc_counter if measured else contextlib.nullcontext())
        return one_round

    def suite_round(round_tracer, measured):
        return suite.run_round(suite_dir, tally, round_tracer)

    if args.workload in inprocess.WORKLOADS:
        config = inprocess.WORKLOADS[args.workload]
        rounds = measure(inprocess_round(config, inprocess.DEPTH), args.seconds, WARMUP_S,
                         tracer, alternate, imports)
        import_s = imports.median_s()
        plain = [r for r in rounds if not r.traced]
        metrics = end_to_end(plain, import_s, with_children=False)
        samples = [t for r in plain for t in r.call_ns]
        layers.update(regime_metrics(samples, config, inprocess.DEPTH, signature))
        if args.trace:
            layers.update(lifecycle_metrics(rounds, tracer))
            layers.update(trace_overhead(
                metrics, end_to_end([r for r in rounds if r.traced], import_s, False)))
            suite_rounds = [suite.run_round(suite_dir, tally, tracer)]
            layers.update(suite_layer_metrics(
                suite_rounds, suite.spawn_probe_s(suite_dir, tally, tracer), suite.RUNS, tracer))
    else:
        rounds = measure(suite_round, args.seconds, 0.0, tracer, alternate, imports)
        import_s = imports.median_s()
        plain = [r for r in rounds if not r.traced]
        metrics = end_to_end(plain, import_s, with_children=True)
        focus = suite.focus_config()
        layers.update(regime_metrics([t for r in plain for t in r.focus_samples],
                                     focus.pipeline, focus.workload.depth, signature))
        if args.trace:
            layers.update(suite_layer_metrics(
                rounds, suite.spawn_probe_s(suite_dir / "spawn", tally, tracer), suite.RUNS,
                tracer))
            layers.update(trace_overhead(
                metrics, end_to_end([r for r in rounds if r.traced], import_s, True)))
            agg_rounds = measure(inprocess_round(focus.pipeline, focus.workload.depth),
                                 0.0, 0.0, tracer, alternate=False)
            layers.update(lifecycle_metrics(agg_rounds, tracer))

    if args.trace:
        styles = list(ProbeKind)
        rng.shuffle(styles)
        layers.update(ledger.full_ledger(signature, work_dir, tally, styles))
    return metrics, layers, round_rows(plain)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minimon" / "__init__.py").is_file():
        print(f"error: minimon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    from perfbench.checks import Tally, guarded
    from perfbench.spans import Tracer

    gc_counter = GcCounter()
    gc.callbacks.append(gc_counter.on_gc)
    tally = Tally()
    tracer = Tracer(enabled=args.trace == 1)
    reference_ms = [reference_loop_ms()]
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, layers, rows = guarded(
            tally, args.seconds + DEADLINE_MARGIN_S, bench, args, work_dir, tally, tracer,
            gc_counter) or ({}, {}, [])
    finally:
        gc.callbacks.remove(gc_counter.on_gc)
        shutil.rmtree(work_dir, ignore_errors=True)

    reference_ms.append(reference_loop_ms())
    host = host_record(gc_counter, reference_ms)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    units = metric_units()
    shown = {**metrics, **layers}
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for violation in tally.violations:
        print(f"violation: {violation}")
    print("host = " + json.dumps(host))
    (OUT / f"{stem}.json").write_text(json.dumps({
        "args": vars(args), "host": host, "metrics": shown,
        "violations": tally.violations, "rounds": rows}, indent=1), encoding="utf-8")
    reported = layers if args.trace else metrics
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return tally.exit_code()


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
