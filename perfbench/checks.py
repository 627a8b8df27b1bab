"""Correctness checks, the failure tally and the wall-clock deadline.

Every check returns a list of violations (empty when it holds). The run
records each attempted operation in a :class:`Tally`; an operation with any
violation counts as failed, and a run with a failed operation exits non-zero.
"""

from __future__ import annotations

import contextlib
import math
import random
import signal
from pathlib import Path

from minimon.probes import ProbeKind
from minimon.runner import BenchmarkError
from minimon.records import RecordFormatError, deserialize, serialize
from minimon.stats import SUMMARY_CSV_HEADER

# Log lines round-tripped per round; the line count is always checked in full.
LOG_SAMPLE = 64


class DeadlineExpired(Exception):
    """The workload ran past its wall-clock deadline."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExpired in the main thread after ``seconds``.

    The alarm interrupts blocking waits too. ``subprocess.run`` kills and
    reaps its child when an exception interrupts it, so a hung benchmark
    child ends with the deadline.
    """
    def on_alarm(signum, frame):
        raise DeadlineExpired(f"workload exceeded its {seconds:.0f} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def guarded(tally: "Tally", seconds: float, fn, *args):
    """Call ``fn(*args)`` under a deadline; expiry or a failed benchmark
    child counts as a failed operation and returns None."""
    try:
        with deadline(seconds):
            return fn(*args)
    except (DeadlineExpired, BenchmarkError) as exc:
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None


class Tally:
    """Attempted and failed operations, with the violations seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def record(self, violations: list[str]) -> None:
        self.attempted += 1
        if violations:
            self.failed += 1
            self.violations.extend(violations)

    def exit_code(self) -> int:
        return 0 if self.failed == 0 and self.attempted > 0 else 1


def counter_violations(counters: dict, expected_enqueued: int | None) -> list[str]:
    """Conservation, no drops, and (when known) the exact enqueue count."""
    out = []
    enq, written, over = counters["enqueued"], counters["written"], counters["overwritten"]
    if enq != written + over:
        out.append(f"conservation: enqueued {enq} != written {written} + overwritten {over}")
    if counters["dropped"]:
        out.append(f"dropped {counters['dropped']} records")
    if expected_enqueued is not None and enq != expected_enqueued:
        out.append(f"enqueued {enq} != expected {expected_enqueued}")
    return out


def checksum_violations(checksum: int) -> list[str]:
    return [] if checksum != 0 else ["checksum of CallChain.call returns is zero"]


def log_violations(path: str | Path, written: int, rng: random.Random) -> list[str]:
    """monitoring.log has ``written`` lines and sampled lines round-trip."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    out = []
    if len(lines) != written:
        out.append(f"{path}: {len(lines)} lines != written {written}")
    for line in rng.sample(lines, min(LOG_SAMPLE, len(lines))):
        try:
            if serialize(deserialize(line)) != line:
                out.append(f"{path}: line does not round-trip: {line!r}")
        except RecordFormatError as exc:
            out.append(f"{path}: {exc}")
    return out


def expected_records(config, depth: int, calls: int) -> int:
    """Records ``calls`` root calls hand to the queue under a ``PipelineConfig``:
    one per monitored call, or one per started aggregation window."""
    if config.probe is ProbeKind.NONE:
        return 0
    if config.probe is ProbeKind.DIRECT_AGGREGATING:
        return math.ceil(depth * calls / config.aggregation_window)
    return depth * calls


def suite_violations(loaded: list, summaries: dict, csv_text: str) -> list[str]:
    """Checks over one suite round's loaded results and rendered report.

    ``loaded`` holds ``(label, sample_set, metadata, config)`` per result
    directory; ``summaries`` maps each label to its ``SummaryStats``.
    """
    out = []
    for label, sample_set, metadata, config in loaded:
        expected = expected_records(config.pipeline, config.workload.depth, config.iterations)
        for meta in metadata:
            if meta.get("failed"):
                out.append(f"{label} run {meta.get('run')}: marked failed")
                continue
            out += [f"{label} run {meta['run']}: {v}"
                    for v in counter_violations(meta["counters"], expected)]
            out += [f"{label} run {meta['run']}: {v}"
                    for v in checksum_violations(meta["checksum"])]
        if len(sample_set.runs) != config.runs or any(
                len(run) != config.iterations for run in sample_set.runs):
            out.append(f"{label}: sample counts differ from {config.runs} x {config.iterations}")
        kept = len(sample_set.kept_samples())
        if summaries[label].n != kept:
            out.append(f"{label}: summary n {summaries[label].n} != kept samples {kept}")
    header = csv_text.splitlines()[0] if csv_text else ""
    if header != SUMMARY_CSV_HEADER:
        out.append(f"summary.csv header {header!r} != {SUMMARY_CSV_HEADER!r}")
    if len(csv_text.splitlines()) != len(loaded) + 1:
        out.append("summary.csv does not have one row per result directory")
    return out
