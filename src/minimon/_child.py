"""Child-process entry point for one benchmark run.

Invoked as ``python -m minimon._child <child-config.json>`` by the
runner. Executes the configured workload for the configured iteration
count, timing every root call, then writes samples.csv, metadata.json
and (file writer) monitoring.log into the run directory.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .pipeline import Pipeline, PipelineReport, WriterKind
from .probes import ProbeKind
from .runner import (
    SAMPLES_CSV_HEADER,
    check_counters,
    config_from_dict,
    estimate_clock_resolution_ns,
)
from .workload import CallChain


def run_child(child_config: dict) -> None:
    config = config_from_dict(child_config["config"])
    run_index = int(child_config["run"])
    run_dir = Path(child_config["run_dir"])
    keep_log = bool(child_config.get("keep_monitoring_log", True))

    log_path = run_dir / "monitoring.log"
    pipeline = None
    if config.pipeline.probe is not ProbeKind.NONE:
        pipeline_config = config.pipeline
        pipeline_config.output_path = str(log_path)
        pipeline = Pipeline(pipeline_config).start()

    chain = CallChain(config.pipeline.probe, pipeline, config.workload)

    n = config.iterations
    depth = config.workload.depth
    busy_ns = config.workload.busy_ns
    call = chain.call
    clock = time.perf_counter_ns

    samples = [0] * n
    checksum = 0
    gc_before = gc.get_stats()
    for i in range(n):
        t0 = clock()
        checksum += call(depth)
        samples[i] = clock() - t0 - busy_ns
    gc_after = gc.get_stats()

    chain.flush()
    report = (pipeline.shutdown() if pipeline is not None
              else PipelineReport(enqueued=0, written=0, overwritten=0, dropped=0))
    check_counters(report, run_dir)

    # The checksum must be consumed so the call chain cannot be elided.
    if checksum == 0:
        raise RuntimeError("workload checksum is zero; chain was not executed")

    config_id = config.config_id
    with open(run_dir / "samples.csv", "w", encoding="utf-8") as f:
        f.write(SAMPLES_CSV_HEADER + "\n")
        for i, duration in enumerate(samples):
            f.write(f"{config_id},{run_index},{i},{duration}\n")

    log_lines = None
    if pipeline is not None and config.pipeline.writer is WriterKind.FILE:
        with open(log_path, "r", encoding="utf-8") as f:
            log_lines = sum(1 for _ in f)
        if not keep_log:
            log_path.unlink()

    metadata = {
        "config_id": config_id,
        "run": run_index,
        "pid": os.getpid(),
        "config": child_config["config"],
        "counters": asdict(report),
        "clock_resolution_ns": estimate_clock_resolution_ns(),
        "checksum": checksum,
        "monitoring_log_lines": log_lines,
        "environment": {
            "implementation": sys.implementation.name,
            "python_version": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "switch_interval_s": sys.getswitchinterval(),
            "gc_collections": [after["collections"] - before["collections"]
                               for before, after in zip(gc_before, gc_after)],
        },
        "failed": False,
    }
    (run_dir / "metadata.json").write_text(
        json.dumps(metadata, indent=2), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m minimon._child <child-config.json>", file=sys.stderr)
        return 2
    child_config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    run_child(child_config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
