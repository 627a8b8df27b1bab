"""Statistics over benchmark sample sets and text comparison reports.

Samples arrive in nanoseconds and all reported values are microseconds.
The confidence interval uses the normal approximation (z = 1.96): sample
counts are in the tens of thousands after warmup, where the Student-t
correction is negligible. Sums are ``math.fsum``; quartiles interpolate
at h = (n-1)*p from the nearer neighbour, as the golden files round.
Significance between two configurations is 95 % CI non-overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "SummaryStats",
    "Comparison",
    "Direction",
    "summarize",
    "compare",
    "render_table",
    "summary_csv",
    "SUMMARY_CSV_HEADER",
]

Z_95 = 1.96

SUMMARY_CSV_HEADER = "config_id,n,mean_us,ci95_us,q1_us,median_us,q3_us,stddev_us"


@dataclass
class SummaryStats:
    n: int
    mean: float       # microseconds per iteration
    stddev: float
    ci95_half: float
    q1: float
    median: float
    q3: float


class Direction(Enum):
    A_FASTER = "a_faster"
    B_FASTER = "b_faster"
    INDISTINGUISHABLE = "indistinguishable"


@dataclass
class Comparison:
    config_a: str
    config_b: str
    significant: bool
    direction: Direction
    ratio: float  # mean_b / mean_a


def summarize(samples_ns: Sequence[float]) -> SummaryStats:
    """Per-iteration summary statistics of a sample set, converted from ns to µs.

    Negative samples (possible only at clock resolution) are clamped to zero.
    """
    n = len(samples_ns)
    if n < 2:
        raise ValueError(f"need at least 2 samples for a summary, got {n}")
    x = sorted([max(v, 0) / 1000.0 for v in samples_ns])
    mean = math.fsum(x) / n
    stddev = math.sqrt(math.fsum((v - mean) ** 2 for v in x) / (n - 1))
    ci95_half = Z_95 * stddev / math.sqrt(n)
    quartiles = []
    for h in ((n - 1) * 0.25, (n - 1) * 0.5, (n - 1) * 0.75):
        a, b, t = x[int(h)], x[int(h) + 1], h - int(h)
        quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    q1, median, q3 = quartiles
    return SummaryStats(n=n, mean=mean, stddev=stddev, ci95_half=ci95_half,
                        q1=q1, median=median, q3=q3)


def compare(config_a: str, a: SummaryStats, config_b: str, b: SummaryStats) -> Comparison:
    """Compare two configurations by 95 % CI overlap of their means."""
    a_lo, a_hi = a.mean - a.ci95_half, a.mean + a.ci95_half
    b_lo, b_hi = b.mean - b.ci95_half, b.mean + b.ci95_half
    significant = a_hi < b_lo or b_hi < a_lo
    if not significant:
        direction = Direction.INDISTINGUISHABLE
    elif a.mean < b.mean:
        direction = Direction.A_FASTER
    else:
        direction = Direction.B_FASTER
    return Comparison(config_a=config_a, config_b=config_b,
                      significant=significant, direction=direction,
                      ratio=b.mean / a.mean)


_TABLE_ROWS = (
    ("Mean", lambda s: f"{s.mean:.4f}"),
    ("95 %", lambda s: f"±{s.ci95_half:.4f}"),
    ("Q1", lambda s: f"{s.q1:.4f}"),
    ("Median", lambda s: f"{s.median:.4f}"),
    ("Q3", lambda s: f"{s.q3:.4f}"),
)


def render_table(summaries: Iterable[tuple[str, SummaryStats]]) -> str:
    """Aligned text table, one column per configuration, values in µs."""
    entries = list(summaries)
    if not entries:
        raise ValueError("no summaries to render")
    label_width = max(len(label) for label, _ in _TABLE_ROWS)
    headers = [config_id for config_id, _ in entries]
    cells = [[fmt(stats) for _, stats in entries] for _, fmt in _TABLE_ROWS]
    widths = [max(len(headers[i]), max(len(row[i]) for row in cells))
              for i in range(len(entries))]
    lines = []
    header_line = " " * label_width + "  " + "  ".join(
        headers[i].rjust(widths[i]) for i in range(len(entries)))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for (label, _), row in zip(_TABLE_ROWS, cells):
        lines.append(label.ljust(label_width) + "  " + "  ".join(
            row[i].rjust(widths[i]) for i in range(len(entries))))
    return "\n".join(lines)


def summary_csv(summaries: Iterable[tuple[str, SummaryStats]]) -> str:
    """Summaries as CSV text (with header, newline-terminated rows)."""
    lines = [SUMMARY_CSV_HEADER]
    for config_id, s in summaries:
        lines.append(
            f"{config_id},{s.n},{s.mean:.6f},{s.ci95_half:.6f},"
            f"{s.q1:.6f},{s.median:.6f},{s.q3:.6f},{s.stddev:.6f}"
        )
    return "\n".join(lines) + "\n"
