"""Benchmark orchestration: fresh child processes, warmup, raw persistence.

Each benchmark configuration runs ``runs`` times, each time in a freshly
spawned child process (restart protocol: process-level state such as
interned objects and allocator layout is reset between runs). Children
run sequentially -- parallel runs would contend for cores and corrupt
the timings. Within a child there are only the benchmark thread and the
pipeline writer thread.

This module writes and reads the whole run directory. :func:`run_config`
writes ``child-config.json`` (config, run index, run directory and
whether to keep the monitoring log) and spawns ``python -m minimon._child
<child-config.json>``, whose :func:`main` hands it to :func:`run_child`.
The child executes the configured workload for the configured iteration
count, timing every root call, and persists:

* ``samples.csv`` -- header ``config_id,run,iteration,duration_ns``, one
  row per iteration; duration is the measured root-call time minus the
  configured leaf busy time.
* ``metadata.json`` -- config echo, process id, pipeline counters,
  clock resolution estimate, workload checksum, and the environment:
  interpreter, CPU count and affinity, GIL switch interval, and garbage
  collections per generation, wall time and producer thread CPU time
  during the measured loop.
* ``monitoring.log`` -- the monitoring output (file writer only; can be
  dropped after line-counting via ``keep_monitoring_log=False``).

Each run is checked as it lands, by the loader ``report`` uses: a failed
run, a config echo or counters that do not parse, counters that break
``enqueued == written + overwritten + failed``, or a ``samples.csv`` with
a bad row, a row whose config id, run or iteration is not its own, or
another count than ``iterations`` stops the suite at once. The child
checks its counters with the same rule before it writes
``metadata.json``. ``report`` also refuses a result directory that lacks
a run its config echo counts, holds one more, or whose runs echo
different configs; so ``run_config`` refuses, before its first child, a
result directory that holds runs beyond its own ``runs``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .pipeline import Pipeline, PipelineConfig, PipelineReport, WriterKind
from .probes import ProbeKind
from .trace_registry import monotonic_ns
from .workload import CallChain, WorkloadParams

__all__ = [
    "BenchmarkConfig",
    "Suite",
    "SampleSet",
    "BenchmarkError",
    "check_counters",
    "config_to_dict",
    "config_from_dict",
    "suite_from_dict",
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

# A child is killed after CHILD_START_S plus, for every iteration, its busy
# time and CHILD_LEVEL_S per call level: over ten times what the slowest
# probe style costs per level on a 2 vCPU host, so only a hung child meets it.
CHILD_START_S = 60.0
CHILD_LEVEL_S = 250e-6


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
class Suite:
    """A suite file: the configurations to run; optionally the depths a
    sweep covers and the directory results go to."""

    configs: list[BenchmarkConfig]
    depths: list[int] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if not self.configs:
            raise ValueError("'configs' must be a nonempty list")
        seen = set()
        for config in self.configs:
            if config.config_id in seen:
                raise ValueError(f"duplicate config_id {config.config_id!r}")
            seen.add(config.config_id)
        if self.depths is not None and any(d < 1 for d in self.depths):
            raise ValueError("'depths' must be a list of integers >= 1")


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


def _from_dict(cls, data, where: str):
    """Build dataclass ``cls`` from JSON ``data``; its fields are the schema.

    A misspelt key or a wrong JSON type is refused, never defaulted or
    coerced (only an int widens to a float); ``__post_init__`` checks ranges.
    """
    if not isinstance(data, dict):
        raise ValueError(f"no {where}" if data is None
                         else f"{where} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = _parse(hints[f.name], data[f.name], f.name, f"{where} {f.name!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where} is missing {f.name!r}")
    return cls(**values)


def _parse(kind, value, name: str, label: str):
    """JSON ``value`` as a ``kind``: a dataclass, an enum, ``list[X]``,
    ``X | None`` or a scalar type. Errors name a dataclass or an enum by
    ``name``, and a scalar by ``label``, which also says what holds it."""
    if isinstance(kind, UnionType):
        if value is None:
            return None
        (kind,) = (arg for arg in get_args(kind) if arg is not NoneType)
    if is_dataclass(kind):
        return _from_dict(kind, value, name)
    if get_origin(kind) is list:
        if type(value) is list:
            (item,) = get_args(kind)
            return [_parse(item, v, f"{name}[{i}]", f"{label}[{i}]")
                    for i, v in enumerate(value)]
    elif issubclass(kind, Enum):
        return _enum_from_value(kind, value, name)
    elif kind is float and type(value) is int:
        return float(value)
    elif type(value) is kind:
        return value
    raise ValueError(f"{label} must be of type {kind.__name__}, got {value!r}")


def config_from_dict(data: dict) -> BenchmarkConfig:
    """Inverse of :func:`config_to_dict`; raises ValueError naming the bad field."""
    return _from_dict(BenchmarkConfig, data, "config")


def suite_from_dict(data: dict) -> Suite:
    """A parsed suite file; raises ValueError naming the bad field."""
    return _from_dict(Suite, data, "suite")


def estimate_clock_resolution_ns() -> int:
    """Smallest positive delta between consecutive reads of the probes' clock."""
    best = None
    for _ in range(CLOCK_PROBES):
        a = monotonic_ns()
        b = monotonic_ns()
        delta = b - a
        if delta > 0 and (best is None or delta < best):
            best = delta
    return best if best is not None else 1


def result_dir_name(config_id: str, depth: int | None = None) -> str:
    return config_id if depth is None else f"{config_id}__d{depth}"


def child_timeout_s(config: BenchmarkConfig) -> float:
    """Seconds one child may take before it counts as hung and is killed."""
    workload = config.workload
    return CHILD_START_S + config.iterations * (
        workload.depth * CHILD_LEVEL_S + workload.busy_ns / 1e9)


def run_config(config: BenchmarkConfig, out_dir: str | Path,
               keep_monitoring_log: bool = True,
               depth_key: int | None = None) -> SampleSet:
    """Execute one configuration: ``runs`` sequential fresh child processes.

    A crashing child, or one killed after ``child_timeout_s``, leaves its
    partial data in place, gets a ``metadata.json`` with ``failed: true``,
    and raises BenchmarkError; so does a finished run that ``report``
    would refuse. A result directory holding ``run_<k>`` with k >= ``runs``
    (left by an earlier, larger run) is refused before any child starts.
    """
    out_dir = Path(out_dir)
    result_dir = out_dir / result_dir_name(config.config_id, depth_key)
    stale = [entry.name for entry in sorted(result_dir.glob("run_*"), key=_run_index)
             if _run_index(entry) >= config.runs]
    if stale:
        raise BenchmarkError(
            f"{result_dir}: holds {stale} beyond the config's runs={config.runs}; "
            f"remove them or write to another directory")
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
        timeout_s = child_timeout_s(config)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "minimon._child", str(config_path)],
                capture_output=True, text=True, timeout=timeout_s,
            )
            returncode, stderr = proc.returncode, proc.stderr
            failure = f"exited with {returncode}" if returncode != 0 else None
        except subprocess.TimeoutExpired as exc:
            returncode, stderr = None, exc.stderr or ""
            if isinstance(stderr, bytes):  # POSIX hands over the raw bytes read
                stderr = stderr.decode(errors="replace")
            failure = f"was killed after its {timeout_s:.1f} s timeout"
        if failure is not None:
            (run_dir / "metadata.json").write_text(json.dumps({
                "config_id": config.config_id,
                "run": run_index,
                "failed": True,
                "returncode": returncode,
                "stderr": stderr[-4000:],
            }, indent=2), encoding="utf-8")
            raise BenchmarkError(
                f"benchmark child for {config.config_id!r} run {run_index} "
                f"{failure}; partial data in {run_dir}\n{stderr[-2000:]}"
            )
        runs.append(_load_run(run_dir)[2])
    return SampleSet(config_id=config.config_id, depth=config.workload.depth,
                     warmup_fraction=config.warmup_fraction, runs=runs)


def run_child(child_config: dict) -> None:
    """One run, in the child process: time ``iterations`` root calls, then
    write ``samples.csv`` and ``metadata.json`` into the run directory."""
    config = config_from_dict(child_config["config"])
    run_index = int(child_config["run"])
    run_dir = Path(child_config["run_dir"])
    keep_log = child_config["keep_monitoring_log"]

    log_path = run_dir / "monitoring.log"
    pipeline = None
    if config.pipeline.probe is not ProbeKind.NONE:
        pipeline = Pipeline(replace(config.pipeline, output_path=str(log_path))).start()

    chain = CallChain(config.pipeline.probe, pipeline, config.workload)

    n = config.iterations
    depth = config.workload.depth
    busy_ns = config.workload.busy_ns
    call = chain.call
    clock = monotonic_ns

    samples = [0] * n
    checksum = 0
    gc_before = gc.get_stats()
    # The producer's CPU time is read inside the wall interval, so it cannot exceed it.
    wall_before = time.perf_counter()
    cpu_before = time.thread_time()
    for i in range(n):
        t0 = clock()
        checksum += call(depth)
        samples[i] = clock() - t0 - busy_ns
    cpu_after = time.thread_time()
    wall_after = time.perf_counter()
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
            "loop_wall_s": wall_after - wall_before,
            "producer_cpu_s": cpu_after - cpu_before,
        },
        "failed": False,
    }
    (run_dir / "metadata.json").write_text(
        json.dumps(metadata, indent=2), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    """The child's entry point: ``python -m minimon._child <child-config.json>``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m minimon._child <child-config.json>", file=sys.stderr)
        return 2
    child_config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    run_child(child_config)
    return 0


def sweep_depths(configs: Sequence[BenchmarkConfig], depths: Sequence[int],
                 out_dir: str | Path,
                 keep_monitoring_log: bool = True) -> dict[tuple[str, int], SampleSet]:
    """Run the {configs} x {depths} grid; results keyed by (config_id, depth)."""
    if not depths:
        raise ValueError("depths must be nonempty")
    # The whole grid is built first, so a bad depth fails before any child runs.
    grid = {(config.config_id, depth):
            replace(config, workload=replace(config.workload, depth=depth))
            for config in configs for depth in depths}
    return {key: run_config(derived, out_dir, keep_monitoring_log=keep_monitoring_log,
                            depth_key=key[1])
            for key, derived in grid.items()}


def _read_samples_csv(path: Path, config_id: str, run_index: int) -> list[int]:
    """The durations of ``samples.csv``, refused unless row ``i`` starts
    with ``config_id``, ``run_index`` and ``i``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SAMPLES_CSV_HEADER:
        raise BenchmarkError(f"{path}: missing or bad samples header")
    samples = []
    run = str(run_index)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 4:
            raise BenchmarkError(f"{path}:{i + 2}: expected 4 fields, got {len(fields)}")
        if fields[:3] != [config_id, run, str(i)]:
            raise BenchmarkError(f"{path}:{i + 2}: expected row {config_id},{run},{i}, "
                                 f"got {','.join(fields[:3])}")
        try:
            samples.append(int(fields[3]))
        except ValueError:
            raise BenchmarkError(f"{path}:{i + 2}: bad duration {fields[3]!r}") from None
    return samples


def check_counters(counters: PipelineReport, where) -> None:
    """Refuse a run's counters unless ``enqueued == written + overwritten + failed``."""
    if counters.enqueued != counters.written + counters.overwritten + counters.failed:
        raise BenchmarkError(
            f"{where}: counters do not balance: enqueued {counters.enqueued} != written "
            f"{counters.written} + overwritten {counters.overwritten} + failed {counters.failed}")


def _load_run(run_dir: Path) -> tuple[dict, BenchmarkConfig, list[int]]:
    """One run's raw metadata, parsed config echo and samples, refused unless
    its counters balance and it has one sample per configured iteration, in
    rows that name the echo's config id, this run and the iteration. A
    run recorded before the writer counted failures has no ``failed``
    counter, which then defaults to 0."""
    meta_path = run_dir / "metadata.json"
    if not meta_path.exists():
        raise BenchmarkError(f"{run_dir}: missing metadata.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{meta_path}: invalid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise BenchmarkError(f"{meta_path}: metadata must be a JSON object")
    if meta.get("failed"):
        raise BenchmarkError(f"{run_dir}: run is marked failed")
    try:
        counters = _from_dict(PipelineReport, meta.get("counters"), "pipeline counters")
        config = config_from_dict(meta.get("config"))
    except ValueError as exc:
        raise BenchmarkError(f"{meta_path}: {exc}") from None
    check_counters(counters, run_dir)
    samples_path = run_dir / "samples.csv"
    samples = _read_samples_csv(samples_path, config.config_id, _run_index(run_dir))
    if len(samples) != config.iterations:
        raise BenchmarkError(
            f"{samples_path}: expected {config.iterations} samples, found {len(samples)}")
    return meta, config, samples


def _run_index(entry: Path) -> int:
    index = entry.name[len("run_"):]
    if not index.isdecimal():
        raise BenchmarkError(f"{entry}: not a run directory; run names are run_<index>")
    return int(index)


def load_sample_set(result_dir: str | Path) -> tuple[SampleSet, list[dict]]:
    """Load a persisted result directory; returns (samples, run metadata).

    Refused unless its runs are exactly ``run_0`` … ``run_<runs - 1>`` of
    the first run's config echo, and every run echoes that same config.
    """
    result_dir = Path(result_dir)
    run_dirs = sorted(result_dir.glob("run_*"), key=_run_index)
    if not run_dirs:
        raise BenchmarkError(f"{result_dir}: no run directories found")
    loaded = [_load_run(run_dirs[0])]
    config = loaded[0][1]
    names = [run_dir.name for run_dir in run_dirs]
    expected = [f"run_{index}" for index in range(config.runs)]
    if names != expected:
        missing = [name for name in expected if name not in names] or "none"
        unexpected = [name for name in names if name not in expected] or "none"
        raise BenchmarkError(
            f"{result_dir}: the runs do not match the {config.runs} of the config echo "
            f"in {names[0]}: missing {missing}, unexpected {unexpected}")
    for run_dir in run_dirs[1:]:
        loaded.append(_load_run(run_dir))
        echo = loaded[-1][1]
        if echo != config:
            differ = [f.name for f in fields(config)
                      if getattr(echo, f.name) != getattr(config, f.name)]
            raise BenchmarkError(
                f"{run_dir}: config echo differs from run_0's in {', '.join(map(repr, differ))}")
    sample_set = SampleSet(config_id=config.config_id, depth=config.workload.depth,
                           warmup_fraction=config.warmup_fraction,
                           runs=[samples for _, _, samples in loaded])
    return sample_set, [meta for meta, _, _ in loaded]


def find_result_dirs(out_dir: str | Path) -> list[Path]:
    """Result directories under ``out_dir`` (those containing run_0/)."""
    out_dir = Path(out_dir)
    return [p for p in sorted(out_dir.iterdir())
            if p.is_dir() and (p / "run_0").is_dir()]
