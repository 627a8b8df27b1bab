"""In-process workloads: one caller drives a depth-10 ``CallChain`` in a closed loop.

A round starts a fresh ``Pipeline`` and ``CallChain``, times each of a
fixed number of root calls (``busy_ns = 0``), shuts the pipeline down and
checks its counters and output.
"""

from __future__ import annotations

import dataclasses
import random
import time
from array import array
from pathlib import Path

from minimon.pipeline import Pipeline, PipelineConfig, PipelineReport, WriterKind
from minimon.probes import ProbeKind
from minimon.queues import QueueKind
from minimon.workload import CallChain, WorkloadParams

from perfbench.checks import (Tally, checksum_violations, counter_violations,
                              expected_records, log_violations)
from perfbench.spans import Tracer

_clock = time.perf_counter_ns

WORKLOADS = {
    "full-file": PipelineConfig(probe=ProbeKind.DIRECT_FULL,
                                queue=QueueKind.BLOCKING_LINKED, writer=WriterKind.FILE),
    "duration-ring": PipelineConfig(probe=ProbeKind.DIRECT_DURATION,
                                    queue=QueueKind.SYNC_RING, writer=WriterKind.NULL),
}
DEPTH = 10
ROUND_CALLS = 5_000
# Traced rounds sample the queue length and close a span every this many calls.
BATCH_CALLS = 100


@dataclasses.dataclass
class Round:
    setup_s: float           # Pipeline.start + CallChain construction
    call_ns: array           # time of each root call, in call order
    loop_s: float            # wall time of the timed calls
    flushed_s: float         # first call to shutdown() returning
    verdict_s: float         # first call to the checks done
    report: PipelineReport
    traced: bool
    backlog: list[int]

    # The per-round figures whose medians are the end-to-end metrics.
    @property
    def calls_per_s(self) -> float:
        return len(self.call_ns) / self.loop_s

    @property
    def call_us(self) -> float:
        return self.loop_s * 1e6 / len(self.call_ns)

    @property
    def records_per_s(self) -> float:
        return self.report.written / self.flushed_s


def run_round(config: PipelineConfig, depth: int, calls: int, work_dir: Path,
              signature: str, rng: random.Random, tally: Tally, tracer: Tracer,
              gc_counter) -> Round:
    log_path = work_dir / "monitoring.log"
    config = dataclasses.replace(config, output_path=str(log_path))
    samples = array("q", bytes(8 * calls))
    backlog: list[int] = []
    checksum = 0
    with tracer.span("round"):
        t0 = _clock()
        with tracer.span("pipeline.start"):
            pipeline = Pipeline(config).start()
        with tracer.span("workload.construct"):
            chain = CallChain(config.probe, pipeline, WorkloadParams(depth=depth),
                              signature=signature)
        call = chain.call
        t_first = _clock()
        with tracer.span("workload.calls"), gc_counter:
            if tracer.enabled:
                queue = pipeline.queue
                for start in range(0, calls, BATCH_CALLS):
                    with tracer.span("workload.batch"):
                        for i in range(start, min(start + BATCH_CALLS, calls)):
                            t = _clock()
                            checksum += call(depth)
                            samples[i] = _clock() - t
                    backlog.append(len(queue))
            else:
                for i in range(calls):
                    t = _clock()
                    checksum += call(depth)
                    samples[i] = _clock() - t
        t_loop = _clock()
        chain.flush()
        with tracer.span("pipeline.shutdown"):
            report = pipeline.shutdown()
        t_flushed = _clock()
        violations = counter_violations(vars(report), expected_records(config, depth, calls))
        violations += checksum_violations(checksum)
        if config.writer is WriterKind.FILE:
            with tracer.span("check.log"):
                violations += log_violations(log_path, report.written, rng)
        t_verdict = _clock()
    tally.record(violations)
    return Round(setup_s=(t_first - t0) / 1e9, call_ns=samples,
                 loop_s=(t_loop - t_first) / 1e9, flushed_s=(t_flushed - t_first) / 1e9,
                 verdict_s=(t_verdict - t_first) / 1e9, report=report,
                 traced=tracer.enabled, backlog=backlog)

