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
  clock resolution estimate, workload checksum, and the environment:
  interpreter, CPU count and affinity, GIL switch interval, and garbage
  collections per generation during the measured loop.
* ``monitoring.log`` -- the monitoring output (file writer only; can be
  dropped after line-counting via ``keep_monitoring_log=False``).

Each run is checked as it lands, by the loader ``report`` uses: a failed
run, a config echo or counters that do not parse, counters that break
``enqueued == written + overwritten + failed`` or a bad ``samples.csv``
stops the suite at once. The child checks its counters with the same rule
before it writes ``metadata.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .pipeline import PipelineConfig, PipelineReport
from .workload import WorkloadParams

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
    and raises BenchmarkError; so does a finished run whose counters do
    not balance or whose sample count is not ``iterations``.
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


def _read_samples_csv(path: Path) -> list[int]:
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
    return samples


def check_counters(counters: PipelineReport, where) -> None:
    """Refuse a run's counters unless ``enqueued == written + overwritten + failed``."""
    if counters.enqueued != counters.written + counters.overwritten + counters.failed:
        raise BenchmarkError(
            f"{where}: counters do not balance: enqueued {counters.enqueued} != written "
            f"{counters.written} + overwritten {counters.overwritten} + failed {counters.failed}")


def _load_run(run_dir: Path) -> tuple[dict, BenchmarkConfig, list[int]]:
    """One run's raw metadata, parsed config echo and samples, refused unless
    its counters balance and it has one sample per configured iteration. A
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
    samples = _read_samples_csv(samples_path)
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
    """Load a persisted result directory; returns (samples, run metadata)."""
    result_dir = Path(result_dir)
    run_dirs = sorted(result_dir.glob("run_*"), key=_run_index)
    if not run_dirs:
        raise BenchmarkError(f"{result_dir}: no run directories found")
    loaded = [_load_run(run_dir) for run_dir in run_dirs]
    config = loaded[0][1]
    sample_set = SampleSet(config_id=config.config_id, depth=config.workload.depth,
                           warmup_fraction=config.warmup_fraction,
                           runs=[samples for _, _, samples in loaded])
    return sample_set, [meta for meta, _, _ in loaded]


def find_result_dirs(out_dir: str | Path) -> list[Path]:
    """Result directories under ``out_dir`` (those containing run_0/)."""
    out_dir = Path(out_dir)
    return [p for p in sorted(out_dir.iterdir())
            if p.is_dir() and (p / "run_0").is_dir()]
