import json
import os
import platform
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from minimon import runner
from minimon.cli import load_suite
from minimon.pipeline import Pipeline, PipelineConfig, WriterKind
from minimon.probes import ProbeKind
from minimon.queues import QueueKind
from minimon.runner import (
    BenchmarkConfig,
    BenchmarkError,
    SAMPLES_CSV_HEADER,
    config_from_dict,
    config_to_dict,
    discard_warmup,
    find_result_dirs,
    load_sample_set,
    run_child,
    run_config,
    sweep_depths,
)
from minimon.workload import WorkloadParams


def tiny_config(config_id="tiny", probe=ProbeKind.NONE, writer=WriterKind.NULL,
                depth=3, iterations=50, runs=2, queue=QueueKind.BLOCKING_LINKED):
    return BenchmarkConfig(
        config_id=config_id,
        pipeline=PipelineConfig(probe=probe, queue=queue, writer=writer),
        workload=WorkloadParams(depth=depth, busy_ns=0),
        iterations=iterations, runs=runs, warmup_fraction=0.5)


def test_discard_warmup_examples():
    assert discard_warmup(list(range(10)), 0.5) == list(range(5, 10))
    assert discard_warmup([1, 2, 3], 0.0) == [1, 2, 3]
    assert discard_warmup([1, 2, 3], 0.5) == [2, 3]


def test_discard_warmup_validation():
    with pytest.raises(ValueError):
        discard_warmup([1, 2], 1.0)


def test_config_dict_round_trip():
    config = tiny_config(probe=ProbeKind.DIRECT_FULL, writer=WriterKind.FILE,
                         queue=QueueKind.SYNC_RING)
    assert config_from_dict(config_to_dict(config)) == config


@pytest.mark.parametrize("config", load_suite(None).configs, ids=lambda c: c.config_id)
def test_bundled_config_dict_round_trip(config):
    assert config_from_dict(config_to_dict(config)) == config


def test_config_from_dict_int_for_float_field_loads_as_float():
    config = config_from_dict({"config_id": "x", "warmup_fraction": 0})
    assert config.warmup_fraction == 0.0
    assert type(config.warmup_fraction) is float


def test_config_from_dict_bad_probe_names_value():
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict({"config_id": "x", "pipeline": {"probe": "bogus"}})


@pytest.mark.parametrize("data, names", [
    ({"config_id": "x", "iteratons": 10}, "'iteratons'"),
    ({"config_id": "x", "pipeline": {"queue_capcity": 5}}, "pipeline key.*'queue_capcity'"),
    ({"config_id": "x", "workload": {"dept": 3, "busy": 1}}, "workload key.*'busy', 'dept'"),
])
def test_config_from_dict_rejects_unknown_keys(data, names):
    with pytest.raises(ValueError, match=names):
        config_from_dict(data)


@pytest.mark.parametrize("data, names", [
    ({"config_id": "x", "pipeline": None}, "pipeline"),
    ({"config_id": "x", "iterations": None}, "'iterations'"),
    ({"config_id": "x", "iterations": 2.9}, "'iterations'"),
    ({"config_id": "x", "iterations": 1e5}, "'iterations'"),
    ({"config_id": "x", "workload": {"depth": True}}, "'depth'"),
    ({"config_id": 5}, "'config_id'"),
    ("direct-full", "config must be a JSON object"),
    ({"iterations": 10}, "missing 'config_id'"),
], ids=["pipeline-null", "iterations-null", "iterations-float", "iterations-1e5",
        "depth-true", "config_id-int", "not-an-object", "no-config_id"])
def test_config_from_dict_rejects_wrong_json_types(data, names):
    with pytest.raises(ValueError, match=names):
        config_from_dict(data)


def test_run_config_produces_raw_files(tmp_path):
    config = tiny_config(iterations=100, runs=2)
    sample_set = run_config(config, tmp_path)
    assert len(sample_set.runs) == 2
    assert all(len(run) == 100 for run in sample_set.runs)
    for k in range(2):
        run_dir = tmp_path / "tiny" / f"run_{k}"
        lines = (run_dir / "samples.csv").read_text().splitlines()
        assert lines[0] == SAMPLES_CSV_HEADER
        assert len(lines) == 101
        meta = json.loads((run_dir / "metadata.json").read_text())
        assert meta["failed"] is False
        assert meta["pid"] > 0
        assert meta["checksum"] > 0
        assert meta["clock_resolution_ns"] >= 1


def test_metadata_records_the_childs_environment(tmp_path):
    full = tiny_config(config_id="full", probe=ProbeKind.DIRECT_FULL, depth=10,
                       iterations=2000, runs=1)
    idle = tiny_config(config_id="idle", iterations=50, runs=1)
    environments = {}
    for config in (full, idle):
        run_config(config, tmp_path)
        meta = json.loads((tmp_path / config.config_id / "run_0" / "metadata.json").read_text())
        environments[config.config_id] = meta["environment"]
    env = environments["full"]
    assert env["implementation"] == sys.implementation.name
    assert env["python_version"] == platform.python_version()
    assert env["cpu_count"] == os.cpu_count()
    assert env["cpu_affinity"] == sorted(os.sched_getaffinity(0))
    assert env["switch_interval_s"] == 0.005  # a fresh interpreter's default
    # Collections during the measured loop only: 20 000 records make some,
    # while 50 unmonitored calls allocate nothing the collector tracks.
    assert len(env["gc_collections"]) == 3 and env["gc_collections"][0] > 0
    assert environments["idle"]["gc_collections"] == [0, 0, 0]


def test_metadata_records_the_loops_wall_and_producer_cpu_time(tmp_path):
    # With the file writer, the loop's wall time is the producer's CPU time
    # plus the writer's share; the producer's is read inside the wall interval.
    config = tiny_config(probe=ProbeKind.DIRECT_FULL, writer=WriterKind.FILE, depth=10,
                         iterations=2000, runs=1)
    run_config(config, tmp_path)
    env = json.loads((tmp_path / "tiny" / "run_0" / "metadata.json").read_text())["environment"]
    assert 0 < env["producer_cpu_s"] <= env["loop_wall_s"]


def test_runs_come_from_distinct_processes(tmp_path):
    config = tiny_config(iterations=20, runs=2)
    run_config(config, tmp_path)
    pids = set()
    for k in range(2):
        meta = json.loads((tmp_path / "tiny" / f"run_{k}" / "metadata.json").read_text())
        pids.add(meta["pid"])
    assert len(pids) == 2


def test_monitoring_log_line_count_matches_duration_records(tmp_path):
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, writer=WriterKind.FILE,
                         depth=10, iterations=100, runs=1)
    run_config(config, tmp_path)
    run_dir = tmp_path / "tiny" / "run_0"
    log_lines = (run_dir / "monitoring.log").read_text().splitlines()
    assert len(log_lines) == 100 * 10
    assert all(line.startswith("DUR;") for line in log_lines)
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["monitoring_log_lines"] == 1000
    assert meta["counters"]["written"] == 1000


def test_keep_monitoring_log_false_counts_then_deletes(tmp_path):
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, writer=WriterKind.FILE,
                         depth=2, iterations=10, runs=1)
    run_config(config, tmp_path, keep_monitoring_log=False)
    run_dir = tmp_path / "tiny" / "run_0"
    assert not (run_dir / "monitoring.log").exists()
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["monitoring_log_lines"] == 20


def test_load_sample_set_round_trip(tmp_path):
    config = tiny_config(iterations=30, runs=2)
    written = run_config(config, tmp_path)
    loaded, metadata = load_sample_set(tmp_path / "tiny")
    assert loaded.config_id == "tiny"
    assert loaded.depth == 3
    assert loaded.warmup_fraction == 0.5
    assert loaded.runs == written.runs
    assert len(metadata) == 2


@pytest.mark.parametrize("tamper, message", [
    (lambda meta: meta["counters"].update(written=meta["counters"]["written"] - 1),
     "do not balance"),
    (lambda meta: meta.pop("counters"), "no pipeline counters"),
    (lambda meta: meta["counters"].update(written="0"), "'written' must be of type int"),
    (lambda meta: meta["counters"].clear(), "missing 'enqueued'"),
])
def test_load_sample_set_rejects_bad_counters(tmp_path, tamper, message):
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=2)
    run_config(config, tmp_path)
    meta_path = tmp_path / "tiny" / "run_1" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    tamper(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(BenchmarkError, match=f"run_1.*{message}"):
        load_sample_set(tmp_path / "tiny")


@pytest.mark.parametrize("stray", ["run_old", "run_", "run_1x"])
def test_load_sample_set_names_a_stray_run_entry(tmp_path, stray):
    run_config(tiny_config(iterations=20, runs=1), tmp_path)
    (tmp_path / "tiny" / stray).mkdir()
    with pytest.raises(BenchmarkError, match=stray):
        load_sample_set(tmp_path / "tiny")


@pytest.mark.parametrize("gone", ["run_0", "run_1"])
def test_load_sample_set_refuses_a_missing_run(tmp_path, gone):
    run_config(tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=3), tmp_path)
    shutil.rmtree(tmp_path / "tiny" / gone)
    with pytest.raises(BenchmarkError, match=f"tiny.*missing \\['{gone}'\\]"):
        load_sample_set(tmp_path / "tiny")


def test_load_sample_set_refuses_a_run_beyond_the_config(tmp_path):
    run_config(tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=3), tmp_path)
    shutil.copytree(tmp_path / "tiny" / "run_2", tmp_path / "tiny" / "run_3")
    with pytest.raises(BenchmarkError, match="tiny.*unexpected \\['run_3'\\]"):
        load_sample_set(tmp_path / "tiny")


@pytest.mark.parametrize("column, value, message", [
    (0, "other", "expected row tiny,1,3, got other,1,3"),
    (1, "0", "expected row tiny,1,3, got tiny,0,3"),
    (2, "4", "expected row tiny,1,3, got tiny,1,4"),
    (3, "1.5", "bad duration '1.5'"),
], ids=["config_id", "run", "iteration", "duration_ns"])
def test_load_sample_set_refuses_a_samples_row_with_a_wrong_column(tmp_path, column, value,
                                                                    message):
    run_config(tiny_config(iterations=20, runs=2), tmp_path)
    path = tmp_path / "tiny" / "run_1" / "samples.csv"
    lines = path.read_text().splitlines()
    row = lines[4].split(",")  # iteration 3, on line 5
    row[column] = value
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BenchmarkError, match=re.escape(f"{path}:5: {message}")):
        load_sample_set(tmp_path / "tiny")


def test_run_config_refuses_runs_left_by_a_larger_earlier_run(tmp_path, monkeypatch):
    def spawn(args, **kwargs):
        raise AssertionError(f"a child was spawned: {args}")

    monkeypatch.setattr(runner.subprocess, "run", spawn)
    for k in range(4):
        (tmp_path / "tiny" / f"run_{k}").mkdir(parents=True)
    with pytest.raises(BenchmarkError, match=re.escape("tiny: holds ['run_2', 'run_3'] beyond")):
        run_config(tiny_config(iterations=20, runs=2), tmp_path)


def test_load_sample_set_refuses_a_run_with_another_config(tmp_path):
    run_config(tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=3), tmp_path)
    meta_path = tmp_path / "tiny" / "run_2" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["workload"]["depth"] = 7
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(BenchmarkError, match="run_2.*differs from run_0's in 'workload'"):
        load_sample_set(tmp_path / "tiny")


def test_run_config_rejects_unbalanced_counters_as_the_run_lands(tmp_path, monkeypatch):
    real_run = runner.subprocess.run

    def run_then_tamper(args, **kwargs):
        proc = real_run(args, **kwargs)
        meta_path = tmp_path / "tiny" / "run_1" / "metadata.json"
        if args[-1] == str(meta_path.with_name("child-config.json")):
            meta = json.loads(meta_path.read_text())
            meta["counters"]["written"] -= 1
            meta_path.write_text(json.dumps(meta))
        return proc

    monkeypatch.setattr(runner.subprocess, "run", run_then_tamper)
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=2)
    with pytest.raises(BenchmarkError, match="run_1.*do not balance"):
        run_config(config, tmp_path)


def test_child_refuses_unbalanced_counters_before_writing_metadata(tmp_path, monkeypatch):
    real_shutdown = Pipeline.shutdown

    def unbalanced_shutdown(self):
        report = real_shutdown(self)
        return replace(report, written=report.written - 1)

    monkeypatch.setattr(Pipeline, "shutdown", unbalanced_shutdown)
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, iterations=20, runs=1)
    child_config = {"config": config_to_dict(config), "run": 0, "run_dir": str(tmp_path),
                    "keep_monitoring_log": True}
    with pytest.raises(BenchmarkError, match="do not balance"):
        run_child(child_config)
    assert not (tmp_path / "metadata.json").exists()


def test_child_entry_point_without_its_argument_prints_the_usage():
    proc = subprocess.run([sys.executable, "-m", "minimon._child"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "usage: python -m minimon._child <child-config.json>\n"


def test_child_entry_point_runs_one_run_without_a_warning_in_development_mode(tmp_path):
    config = tiny_config(probe=ProbeKind.DIRECT_DURATION, writer=WriterKind.FILE,
                         iterations=20, runs=1)
    run_dir = tmp_path / "tiny" / "run_0"
    run_dir.mkdir(parents=True)
    config_path = run_dir / "child-config.json"
    config_path.write_text(json.dumps({"config": config_to_dict(config), "run": 0,
                                       "run_dir": str(run_dir), "keep_monitoring_log": True}))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "minimon._child", str(config_path)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    sample_set, metadata = load_sample_set(tmp_path / "tiny")
    assert len(sample_set.runs[0]) == 20 and metadata[0]["monitoring_log_lines"] == 20 * 3


def test_hung_child_is_killed_and_recorded_as_a_failed_run(tmp_path, monkeypatch):
    timeouts = []

    def hang(args, **kwargs):
        timeouts.append(kwargs["timeout"])
        raise runner.subprocess.TimeoutExpired(args, kwargs["timeout"],
                                               stderr=b"stuck in the writer\n")

    monkeypatch.setattr(runner.subprocess, "run", hang)
    config = tiny_config(iterations=20, runs=2)
    with pytest.raises(BenchmarkError, match="(?s)run 0 was killed after.*stuck in the writer"):
        run_config(config, tmp_path)
    assert timeouts == [runner.child_timeout_s(config)]
    meta = json.loads((tmp_path / "tiny" / "run_0" / "metadata.json").read_text())
    assert meta["failed"] is True
    assert meta["stderr"] == "stuck in the writer\n"
    assert not (tmp_path / "tiny" / "run_1").exists()


def test_child_timeout_grows_with_iterations_depth_and_busy_time():
    base = tiny_config(iterations=1000)
    longer = [replace(base, iterations=2000),
              replace(base, workload=replace(base.workload, depth=base.workload.depth + 1)),
              replace(base, workload=replace(base.workload, busy_ns=10_000))]
    assert all(runner.child_timeout_s(c) > runner.child_timeout_s(base) for c in longer)


def test_kept_samples_drops_warmup_per_run():
    from minimon.runner import SampleSet
    sample_set = SampleSet("x", 1, 0.5, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert sample_set.kept_samples() == [3, 4, 7, 8]


def test_sweep_depths_keys_and_dirs(tmp_path):
    config = tiny_config(iterations=20, runs=1)
    results = sweep_depths([config], [1, 2], tmp_path)
    assert set(results) == {("tiny", 1), ("tiny", 2)}
    assert (tmp_path / "tiny__d1" / "run_0" / "samples.csv").exists()
    assert (tmp_path / "tiny__d2" / "run_0" / "samples.csv").exists()
    assert results[("tiny", 2)].depth == 2


def test_sweep_depths_validation(tmp_path):
    config = tiny_config()
    with pytest.raises(ValueError):
        sweep_depths([config], [], tmp_path)
    with pytest.raises(ValueError):
        sweep_depths([config], [0], tmp_path)
    with pytest.raises(ValueError, match="depth"):
        sweep_depths([config], [2, 0], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_find_result_dirs(tmp_path):
    run_config(tiny_config(iterations=10, runs=1), tmp_path)
    (tmp_path / "unrelated").mkdir()
    dirs = find_result_dirs(tmp_path)
    assert [d.name for d in dirs] == ["tiny"]


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(iterations=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(config_id="x", warmup_fraction=1.0)
