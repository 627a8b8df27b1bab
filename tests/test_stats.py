import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import minimon
from minimon.stats import (
    Direction,
    SummaryStats,
    compare,
    render_table,
    summarize,
    summary_csv,
    SUMMARY_CSV_HEADER,
)


def naive_summary(samples_ns):
    """Independent brute-force oracle for summarize (pure Python)."""
    xs = sorted(max(s, 0) / 1000.0 for s in samples_ns)
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    stddev = math.sqrt(var)
    ci = 1.96 * stddev / math.sqrt(n)

    def quantile(p):
        h = (n - 1) * p
        lo = math.floor(h)
        hi = math.ceil(h)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    return mean, stddev, ci, quantile(0.25), quantile(0.5), quantile(0.75)


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_simple_mean_median():
    s = summarize([1000, 2000, 3000])
    assert close(s.mean, 2.0)
    assert close(s.median, 2.0)


def test_constant_samples_zero_spread():
    s = summarize([5000, 5000, 5000, 5000])
    assert s.stddev == 0.0
    assert s.ci95_half == 0.0
    assert close(s.mean, 5.0)


def test_quartiles_linear_interpolation_one_to_eight():
    s = summarize([i * 1000 for i in range(1, 9)])
    assert close(s.q1, 2.75)
    assert close(s.median, 4.5)
    assert close(s.q3, 6.25)


def test_summarize_matches_oracle_randomized():
    rng = random.Random(123)
    for _ in range(200):
        n = rng.randrange(2, 60)
        samples = [rng.randrange(0, 10**7) for _ in range(n)]
        s = summarize(samples)
        mean, stddev, ci, q1, median, q3 = naive_summary(samples)
        assert close(s.mean, mean)
        assert close(s.stddev, stddev)
        assert close(s.ci95_half, ci)
        assert close(s.q1, q1)
        assert close(s.median, median)
        assert close(s.q3, q3)
        assert s.q1 <= s.median <= s.q3


def test_summarize_rejects_tiny_input():
    with pytest.raises(ValueError):
        summarize([1000])


def test_compare_significant():
    a = SummaryStats(n=100, mean=1.0, stddev=0.5, ci95_half=0.1,
                     q1=0.9, median=1.0, q3=1.1)
    b = SummaryStats(n=100, mean=2.0, stddev=0.5, ci95_half=0.1,
                     q1=1.9, median=2.0, q3=2.1)
    cmp = compare("a", a, "b", b)
    assert cmp.significant
    assert cmp.direction is Direction.A_FASTER
    assert close(cmp.ratio, 2.0)


def test_compare_overlapping_indistinguishable():
    a = SummaryStats(n=100, mean=1.0, stddev=1.0, ci95_half=0.6,
                     q1=0.5, median=1.0, q3=1.5)
    b = SummaryStats(n=100, mean=2.0, stddev=1.0, ci95_half=0.6,
                     q1=1.5, median=2.0, q3=2.5)
    cmp = compare("a", a, "b", b)
    assert not cmp.significant
    assert cmp.direction is Direction.INDISTINGUISHABLE


def test_compare_published_aggregation_case():
    # 0.4014 +/- 0.0003 vs 0.3897 +/- 0.0002: non-overlapping intervals,
    # so CI-overlap comparison flags it significant (see README note on
    # how this differs from the source data's verdict).
    a = SummaryStats(n=10, mean=0.4014, stddev=0.0, ci95_half=0.0003,
                     q1=0.381, median=0.386, q3=0.387)
    b = SummaryStats(n=10, mean=0.3897, stddev=0.0, ci95_half=0.0002,
                     q1=0.383, median=0.388, q3=0.389)
    cmp = compare("aggregated", a, "combination", b)
    assert cmp.significant
    assert cmp.direction is Direction.B_FASTER


def test_compare_antisymmetric_and_symmetric_significance():
    rng = random.Random(5)
    for _ in range(100):
        a = SummaryStats(n=10, mean=rng.uniform(0, 5), stddev=0.0,
                         ci95_half=rng.uniform(0, 1), q1=0, median=0, q3=0)
        b = SummaryStats(n=10, mean=rng.uniform(0, 5), stddev=0.0,
                         ci95_half=rng.uniform(0, 1), q1=0, median=0, q3=0)
        ab = compare("a", a, "b", b)
        ba = compare("b", b, "a", a)
        assert ab.significant == ba.significant
        if ab.significant:
            flip = {Direction.A_FASTER: Direction.B_FASTER,
                    Direction.B_FASTER: Direction.A_FASTER}
            assert ba.direction is flip[ab.direction]


def test_render_table_single_config_constant():
    s = summarize([5000] * 4)
    table = render_table([("cfg", s)])
    assert "±0.0000" in table
    assert "5.0000" in table
    for row in ("Mean", "95 %", "Q1", "Median", "Q3"):
        assert row in table


def test_render_table_column_order_is_input_order():
    s = summarize([1000, 2000, 3000])
    table = render_table([("zeta", s), ("alpha", s)])
    header = table.splitlines()[0]
    assert header.index("zeta") < header.index("alpha")


def test_render_table_empty_rejected():
    with pytest.raises(ValueError):
        render_table([])


def test_summary_csv_format():
    s = summarize([1000, 2000, 3000])
    csv = summary_csv([("cfg", s)])
    lines = csv.splitlines()
    assert lines[0] == SUMMARY_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "cfg"
    assert int(fields[1]) == 3
    assert close(float(fields[2]), s.mean)


_REPORT = """
from minimon.chart import render_depth_chart
from minimon.stats import render_table, summarize, summary_csv

def report():
    results = {("cfg", depth): summarize([1000 * depth + 37 * i - 50 for i in range(101)])
               for depth in (1, 2, 4)}
    columns = [(f"depth {depth}", stats) for (_, depth), stats in results.items()]
    return "\\n".join([render_table(columns), summary_csv(columns),
                       render_depth_chart(results)])
"""


def test_the_report_runs_with_numpy_blocked():
    env = dict(os.environ, PYTHONPATH=str(Path(minimon.__file__).parents[1]))
    blocked = 'import sys; sys.modules["numpy"] = None  # importing numpy raises ImportError\n'
    proc = subprocess.run([sys.executable, "-c", blocked + _REPORT + "print(report())"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    namespace = {}
    exec(_REPORT, namespace)
    assert proc.stdout == namespace["report"]() + "\n"
    assert "\nMedian   2.8000   3.8000   5.8000\n" in proc.stdout
