"""The suite-report workload: the CLI's path from child runs to a verdict.

A round runs configs ``none`` and ``direct-aggregating`` (null writer,
blocking queue) over depths 2 and 32 with ``runner.run_config``, each run
in a fresh sequential child process, laid out as ``runner.sweep_depths``
lays them out. It then loads the results, summarizes and compares them,
renders the tables, ``summary.csv`` and the depth chart, and checks them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import statistics
import time
from pathlib import Path

from minimon import chart, cli, runner, stats
from minimon.pipeline import PipelineConfig, WriterKind
from minimon.probes import ProbeKind
from minimon.queues import QueueKind
from minimon.workload import WorkloadParams

from perfbench.checks import Tally, suite_violations
from perfbench.spans import Tracer

_clock = time.perf_counter_ns

ITERATIONS = 20_000
RUNS = 1
DEPTHS = (2, 32)
# The configuration whose time per iteration is reported as call_us_p50.
FOCUS = ("direct-aggregating", 32)
SPAWN_PROBES = 3


def configs() -> list[runner.BenchmarkConfig]:
    def config(config_id, probe):
        return runner.BenchmarkConfig(
            config_id=config_id,
            pipeline=PipelineConfig(probe=probe, queue=QueueKind.BLOCKING_LINKED,
                                    writer=WriterKind.NULL),
            iterations=ITERATIONS, runs=RUNS)

    return [config("none", ProbeKind.NONE),
            config("direct-aggregating", ProbeKind.DIRECT_AGGREGATING)]


def focus_config() -> runner.BenchmarkConfig:
    """The FOCUS configuration at its depth."""
    config_id, depth = FOCUS
    config = next(c for c in configs() if c.config_id == config_id)
    return dataclasses.replace(config, workload=WorkloadParams(depth=depth))


@dataclasses.dataclass
class SuiteRound:
    setup_s: float
    verdict_s: float
    root_calls: int
    records_written: int
    focus_samples: list[int]      # kept samples of FOCUS, run order
    rows: int                     # samples.csv rows loaded
    traced: bool

    # The per-round figures whose medians are the end-to-end metrics.
    @property
    def calls_per_s(self) -> float:
        return self.root_calls / self.verdict_s

    @property
    def call_us(self) -> float:
        return statistics.fmean(self.focus_samples) / 1000

    @property
    def records_per_s(self) -> float:
        return self.records_written / self.verdict_s


def run_round(out_dir: Path, tally: Tally, tracer: Tracer) -> SuiteRound:
    """One sweep-to-verdict round; a traced round also times ``cli report``."""
    t0 = _clock()
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cells = {(c.config_id, d): dataclasses.replace(c, workload=WorkloadParams(depth=d))
             for c in configs() for d in DEPTHS}
    t_first = _clock()
    violations: list[str] = []
    with tracer.span("suite.round"):
        with tracer.span("runner.sweep"):
            for (config_id, depth), config in cells.items():
                with tracer.span("runner.run_config"):
                    runner.run_config(config, out_dir, keep_monitoring_log=False,
                                      depth_key=depth)
        with tracer.span("runner.load"):
            loaded = []
            for result_dir in runner.find_result_dirs(out_dir):
                sample_set, metadata = runner.load_sample_set(result_dir)
                loaded.append((result_dir.name, sample_set, metadata,
                               cells[(sample_set.config_id, sample_set.depth)]))
        with tracer.span("stats.summarize"):
            summaries = {label: stats.summarize(sample_set.kept_samples())
                         for label, sample_set, _, _ in loaded}
        with tracer.span("stats.render"):
            report_text = []
            for depth in DEPTHS:
                group = [(label, summaries[label]) for label, s, _, _ in loaded
                         if s.depth == depth]
                report_text.append(stats.render_table(group))
                for i, (name_a, sum_a) in enumerate(group):
                    for name_b, sum_b in group[i + 1:]:
                        report_text.append(repr(stats.compare(name_a, sum_a, name_b, sum_b)))
            csv_text = stats.summary_csv((label, summaries[label]) for label, _, _, _ in loaded)
            (out_dir / "report.txt").write_text("\n".join(report_text) + "\n", encoding="utf-8")
            (out_dir / "summary.csv").write_text(csv_text, encoding="utf-8")
        with tracer.span("chart.render"):
            svg = chart.render_depth_chart(
                {(s.config_id, s.depth): summaries[label] for label, s, _, _ in loaded})
            (out_dir / "chart.svg").write_text(svg, encoding="utf-8")
        t_verdict = _clock()
        if tracer.enabled:
            with tracer.span("cli.report"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["report", "--in", str(out_dir)])
            if rc != 0:
                violations.append(f"cli report exited with {rc}")
            elif (out_dir / "summary.csv").read_text(encoding="utf-8") != csv_text:
                violations.append("cli report summary.csv differs from the rendered one")
    violations += suite_violations(loaded, summaries, csv_text)
    if not svg.startswith("<svg"):
        violations.append("depth chart is not SVG")
    tally.record(violations)
    focus_label = runner.result_dir_name(*FOCUS)
    focus = next(s for label, s, _, _ in loaded if label == focus_label)
    return SuiteRound(
        setup_s=(t_first - t0) / 1e9,
        verdict_s=(t_verdict - t_first) / 1e9,
        root_calls=sum(c.iterations * c.runs for c in cells.values()),
        records_written=sum(m["counters"]["written"] for _, _, meta, _ in loaded for m in meta),
        focus_samples=focus.kept_samples(),
        rows=sum(len(run) for _, s, _, _ in loaded for run in s.runs),
        traced=tracer.enabled)


def spawn_probe_s(out_dir: Path, tally: Tally, tracer: Tracer) -> float:
    """Median wall time of a two-iteration ``none`` child: the spawn cost."""
    probe = dataclasses.replace(configs()[0], iterations=2, runs=1,
                                workload=WorkloadParams(depth=2))
    times = []
    for _ in range(SPAWN_PROBES):
        shutil.rmtree(out_dir, ignore_errors=True)
        with tracer.span("runner.spawn_probe"):
            t0 = _clock()
            runner.run_config(probe, out_dir, keep_monitoring_log=False)
            times.append((_clock() - t0) / 1e9)
        tally.record([])
    return statistics.median(times)

