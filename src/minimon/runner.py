"""Benchmark orchestration: fresh child processes, warmup, raw persistence.

Each benchmark configuration runs ``runs`` times, each time in a freshly
spawned child process (restart protocol: process-level state such as
interned objects and allocator layout is reset between runs). Children
run sequentially -- parallel runs would contend for cores and corrupt
the timings. Within a child there are only the benchmark thread and the
pipeline writer thread.

Per run the child persists:

* ``samples.csv`` -- header ``config_id,run,iteration,duration_ns``, one
  row per iteration; duration is the measured root-call time minus the
  configured leaf busy time.
* ``metadata.json`` -- config echo, process id, pipeline counters,
  clock resolution estimate, workload checksum.
* ``monitoring.log`` -- the monitoring output (file writer only; can be
  dropped after line-counting via ``keep_monitoring_log=False``).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .pipeline import PipelineConfig, WriterKind
from .probes import ProbeKind
from .queues import QueueKind
from .workload import WorkloadParams

__all__ = [
    "BenchmarkConfig",
    "SampleSet",
    "BenchmarkError",
    "config_to_dict",
    "config_from_dict",
    "run_config",
    "sweep_depths",
    "discard_warmup",
    "load_sample_set",
    "find_result_dirs",
    "estimate_clock_resolution_ns",
]

SAMPLES_CSV_HEADER = "config_id,run,iteration,duration_ns"

# Desk-scale defaults; the paper-scale protocol (2 000 000 iterations,
# 10 process starts) is available via the CLI --paper-scale flag.
DEFAULT_ITERATIONS = 100_000
DEFAULT_RUNS = 5
PAPER_SCALE_ITERATIONS = 2_000_000
PAPER_SCALE_RUNS = 10

# Consecutive clock-read pairs behind a run's clock resolution estimate.
CLOCK_PROBES = 2000


class BenchmarkError(RuntimeError):
    """A benchmark child process failed; partial data is kept on disk."""


@dataclass
class BenchmarkConfig:
    config_id: str
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    iterations: int = DEFAULT_ITERATIONS
    runs: int = DEFAULT_RUNS
    warmup_fraction: float = 0.5

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")


@dataclass
class SampleSet:
    """Per-run raw overhead samples (nanoseconds) for one configuration."""

    config_id: str
    depth: int
    warmup_fraction: float
    runs: list[list[int]]

    def kept_samples(self) -> list[int]:
        """All samples after per-run warmup discard, run order preserved."""
        out: list[int] = []
        for run in self.runs:
            out.extend(discard_warmup(run, self.warmup_fraction))
        return out


def discard_warmup(samples: Sequence[int], warmup_fraction: float) -> list[int]:
    """Drop the first floor(fraction*n) samples, keeping the rest in order."""
    if not (0.0 <= warmup_fraction < 1.0):
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    drop = math.floor(warmup_fraction * len(samples))
    return list(samples[drop:])


def _enum_from_value(enum_cls, value, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(repr(m.value) for m in enum_cls)
        raise ValueError(f"unknown {what} {value!r}; expected one of {valid}") from None


def _enums_as_values(items) -> dict:
    return {key: value.value if isinstance(value, Enum) else value for key, value in items}


def config_to_dict(config: BenchmarkConfig) -> dict:
    """JSON-ready config, fields in declaration order, enums as their values."""
    return asdict(config, dict_factory=_enums_as_values)


def _check_keys(data, cls, where: str) -> None:
    """A misspelt key would silently run with the default: refuse it."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def config_from_dict(data: dict) -> BenchmarkConfig:
    _check_keys(data, BenchmarkConfig, "config")
    if "config_id" not in data:
        raise ValueError("benchmark config is missing 'config_id'")
    pipe = data.get("pipeline", {})
    work = data.get("workload", {})
    _check_keys(pipe, PipelineConfig, "pipeline")
    _check_keys(work, WorkloadParams, "workload")
    pipeline = PipelineConfig(
        probe=_enum_from_value(ProbeKind, pipe.get("probe", "direct-full"), "probe"),
        queue=_enum_from_value(QueueKind, pipe.get("queue", "blocking-linked"), "queue"),
        queue_capacity=int(pipe.get("queue_capacity", PipelineConfig.queue_capacity)),
        writer=_enum_from_value(WriterKind, pipe.get("writer", "file"), "writer"),
        aggregation_window=int(pipe.get("aggregation_window",
                                        PipelineConfig.aggregation_window)),
        output_path=str(pipe.get("output_path", PipelineConfig.output_path)),
    )
    workload = WorkloadParams(
        depth=int(work.get("depth", 10)),
        busy_ns=int(work.get("busy_ns", 0)),
    )
    return BenchmarkConfig(
        config_id=str(data["config_id"]),
        pipeline=pipeline,
        workload=workload,
        iterations=int(data.get("iterations", DEFAULT_ITERATIONS)),
        runs=int(data.get("runs", DEFAULT_RUNS)),
        warmup_fraction=float(data.get("warmup_fraction", 0.5)),
    )


def estimate_clock_resolution_ns() -> int:
    """Smallest positive delta observed between consecutive clock reads."""
    clock = time.perf_counter_ns
    best = None
    for _ in range(CLOCK_PROBES):
        a = clock()
        b = clock()
        delta = b - a
        if delta > 0 and (best is None or delta < best):
            best = delta
    return best if best is not None else 1


def result_dir_name(config_id: str, depth: int | None = None) -> str:
    return config_id if depth is None else f"{config_id}__d{depth}"


def run_config(config: BenchmarkConfig, out_dir: str | Path,
               keep_monitoring_log: bool = True,
               depth_key: int | None = None) -> SampleSet:
    """Execute one configuration: ``runs`` sequential fresh child processes.

    A crashing child leaves its partial data in place, gets a
    ``metadata.json`` with ``failed: true``, and raises BenchmarkError.
    """
    out_dir = Path(out_dir)
    result_dir = out_dir / result_dir_name(config.config_id, depth_key)
    runs: list[list[int]] = []
    for run_index in range(config.runs):
        run_dir = result_dir / f"run_{run_index}"
        run_dir.mkdir(parents=True, exist_ok=True)
        child_config = {
            "config": config_to_dict(config),
            "run": run_index,
            "run_dir": str(run_dir),
            "keep_monitoring_log": keep_monitoring_log,
        }
        config_path = run_dir / "child-config.json"
        config_path.write_text(json.dumps(child_config, indent=2), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "minimon._child", str(config_path)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            (run_dir / "metadata.json").write_text(json.dumps({
                "config_id": config.config_id,
                "run": run_index,
                "failed": True,
                "returncode": proc.returncode,
                "stderr": proc.stderr[-4000:],
            }, indent=2), encoding="utf-8")
            raise BenchmarkError(
                f"benchmark child for {config.config_id!r} run {run_index} "
                f"exited with {proc.returncode}; partial data in {run_dir}\n"
                f"{proc.stderr[-2000:]}"
            )
        runs.append(_read_samples_csv(run_dir / "samples.csv", config.iterations))
    return SampleSet(config_id=config.config_id, depth=config.workload.depth,
                     warmup_fraction=config.warmup_fraction, runs=runs)


def sweep_depths(configs: Sequence[BenchmarkConfig], depths: Sequence[int],
                 out_dir: str | Path,
                 keep_monitoring_log: bool = True) -> dict[tuple[str, int], SampleSet]:
    """Run the {configs} x {depths} grid; results keyed by (config_id, depth)."""
    if not depths:
        raise ValueError("depths must be nonempty")
    for d in depths:
        if d < 1:
            raise ValueError(f"depths must all be >= 1, got {d}")
    results: dict[tuple[str, int], SampleSet] = {}
    for config in configs:
        for depth in depths:
            derived = replace(config, workload=replace(config.workload, depth=depth))
            results[(config.config_id, depth)] = run_config(
                derived, out_dir, keep_monitoring_log=keep_monitoring_log,
                depth_key=depth)
    return results


def _read_samples_csv(path: Path, expected_rows: int | None = None) -> list[int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SAMPLES_CSV_HEADER:
        raise BenchmarkError(f"{path}: missing or bad samples header")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise BenchmarkError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            samples.append(int(fields[3]))
        except ValueError:
            raise BenchmarkError(f"{path}:{lineno}: bad duration {fields[3]!r}") from None
    if expected_rows is not None and len(samples) != expected_rows:
        raise BenchmarkError(
            f"{path}: expected {expected_rows} samples, found {len(samples)}")
    return samples


def load_sample_set(result_dir: str | Path) -> tuple[SampleSet, list[dict]]:
    """Load a persisted result directory; returns (samples, run metadata)."""
    result_dir = Path(result_dir)
    run_dirs = sorted(result_dir.glob("run_*"),
                      key=lambda p: int(p.name.split("_")[1]))
    if not run_dirs:
        raise BenchmarkError(f"{result_dir}: no run directories found")
    runs = []
    metadata = []
    for run_dir in run_dirs:
        meta_path = run_dir / "metadata.json"
        if not meta_path.exists():
            raise BenchmarkError(f"{run_dir}: missing metadata.json")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("failed"):
            raise BenchmarkError(f"{run_dir}: run is marked failed")
        counters = meta.get("counters")
        try:
            enqueued, written, overwritten = (
                counters["enqueued"], counters["written"], counters["overwritten"])
        except (KeyError, TypeError):
            raise BenchmarkError(f"{run_dir}: metadata.json has no pipeline counters") from None
        # Runs recorded before the writer counted failures have no "failed".
        failed = counters.get("failed", 0)
        if enqueued != written + overwritten + failed:
            raise BenchmarkError(
                f"{run_dir}: counters do not balance: enqueued {enqueued} != written "
                f"{written} + overwritten {overwritten} + failed {failed}")
        metadata.append(meta)
        runs.append(_read_samples_csv(run_dir / "samples.csv"))
    config = metadata[0].get("config")
    try:
        sample_set = SampleSet(
            config_id=config["config_id"],
            depth=config["workload"]["depth"],
            warmup_fraction=config["warmup_fraction"],
            runs=runs,
        )
    except (KeyError, TypeError):
        raise BenchmarkError(
            f"{run_dirs[0]}: metadata.json has no config block with "
            "config_id, workload.depth and warmup_fraction") from None
    return sample_set, metadata


def find_result_dirs(out_dir: str | Path) -> list[Path]:
    """Result directories under ``out_dir`` (those containing run_0/)."""
    out_dir = Path(out_dir)
    found = [p for p in sorted(out_dir.iterdir())
             if p.is_dir() and (p / "run_0").is_dir()]
    return found
