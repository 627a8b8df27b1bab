"""Self-test of the benchmark's checks: tampered results must count as failures.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import os
import random
import time

import pytest

from minimon.pipeline import Pipeline, PipelineConfig, WriterKind

from perfbench import inprocess, suite
from perfbench.checks import Tally, counter_violations, guarded, log_violations
from perfbench.spans import Tracer

SIGNATURE = "perfbench.Chain0000.monitored_method()"


def test_counter_imbalance_is_a_failure(tmp_path):
    pipeline = Pipeline(PipelineConfig(writer=WriterKind.NULL,
                                       output_path=str(tmp_path / "m.log"))).start()
    for _ in range(50):
        pipeline.new_monitoring_record(object())
    report = vars(pipeline.shutdown())
    tally = Tally()
    tally.record(counter_violations(report, 50))
    assert tally.failed == 0 and tally.exit_code() == 0

    tampered = dict(report, written=report["written"] - 1)
    tally.record(counter_violations(tampered, 50))
    assert tally.failed == 1
    assert any("conservation" in v for v in tally.violations)
    assert tally.exit_code() != 0


def test_truncated_monitoring_log_is_a_failure(tmp_path):
    tally = Tally()
    rng = random.Random(0)
    result = inprocess.run_round(inprocess.WORKLOADS["full-file"], inprocess.DEPTH, 200,
                                 tmp_path, SIGNATURE, rng, tally, Tracer(enabled=False),
                                 contextlib.nullcontext())
    assert tally.failed == 0, tally.violations
    log = tmp_path / "monitoring.log"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == result.report.written == 2000
    log.write_text("".join(lines[:-7]), encoding="utf-8")

    tally.record(log_violations(log, result.report.written, rng))
    assert tally.failed == 1
    assert tally.exit_code() != 0


def test_child_past_the_deadline_is_killed_and_a_failure(tmp_path, monkeypatch):
    fake = tmp_path / "fake" / "minimon"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "_child.py").write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setenv("PYTHONPATH", str(fake.parent))
    tally = Tally()
    t0 = time.monotonic()
    result = guarded(tally, 1.0, suite.run_round, tmp_path / "out", tally, Tracer(enabled=False))
    assert result is None
    assert time.monotonic() - t0 < 10
    assert tally.failed == 1 and "DeadlineExpired" in tally.violations[0]
    assert tally.exit_code() != 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

