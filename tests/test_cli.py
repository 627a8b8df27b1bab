import json
import re
import shutil

import pytest

from minimon.cli import SuiteConfigError, load_suite, main


def write_suite(tmp_path, configs, depths=None):
    suite = {"configs": configs}
    if depths is not None:
        suite["depths"] = depths
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return str(path)


def tiny_suite(tmp_path, n=2, depths=None):
    configs = [
        {"config_id": "none", "pipeline": {"probe": "none", "writer": "null"},
         "workload": {"depth": 2}, "iterations": 30, "runs": n},
        {"config_id": "dur", "pipeline": {"probe": "direct-duration", "writer": "file"},
         "workload": {"depth": 2}, "iterations": 30, "runs": n},
    ]
    return write_suite(tmp_path, configs, depths)


def test_bundled_default_suite_loads():
    suite = load_suite(None)
    ids = [c.config_id for c in suite.configs]
    assert ids == [
        "none", "interceptor-full", "direct-full", "direct-duration",
        "direct-full-ring", "direct-duration-ring",
        "direct-aggregating", "direct-aggregating-ring",
    ]
    assert suite.depths == [2, 4, 8, 16, 32, 64, 128]


def test_empty_configs_rejected(tmp_path):
    path = write_suite(tmp_path, [])
    with pytest.raises(SuiteConfigError, match="configs"):
        load_suite(path)


def test_unknown_probe_rejected_with_name(tmp_path):
    path = write_suite(tmp_path, [
        {"config_id": "x", "pipeline": {"probe": "warp-drive"}}])
    with pytest.raises(SuiteConfigError, match="warp-drive"):
        load_suite(path)


def test_misspelt_key_rejected_with_name(tmp_path):
    path = write_suite(tmp_path, [
        {"config_id": "x", "pipeline": {"queue_capcity": 5}, "iteratons": 10}])
    with pytest.raises(SuiteConfigError, match=r"configs\[0\].*'iteratons'"):
        load_suite(path)


def test_misspelt_suite_key_rejected_naming_key_and_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"configs": [{"config_id": "x"}], "dephts": [2]}))
    with pytest.raises(SuiteConfigError, match=r"suite.json: unknown suite key.*'dephts'"):
        load_suite(str(path))


@pytest.mark.parametrize("suite, names", [
    ([{"config_id": "x"}], "JSON object"),
    ({"configs": [{"config_id": "x"}], "depths": [2, True]}, "'depths'"),
    ({"configs": [{"config_id": "x"}], "output_dir": 5}, "'output_dir'"),
    ({"configs": 5}, "'configs'"),
], ids=["list", "depth-true", "output_dir-int", "configs-int"])
def test_load_suite_rejects_wrong_json_types_naming_the_file(tmp_path, suite, names):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    with pytest.raises(SuiteConfigError, match=f"suite.json: .*{names}"):
        load_suite(str(path))


def test_duplicate_config_id_rejected(tmp_path):
    path = write_suite(tmp_path, [
        {"config_id": "x", "pipeline": {"probe": "none"}},
        {"config_id": "x", "pipeline": {"probe": "none"}}])
    with pytest.raises(SuiteConfigError, match="duplicate"):
        load_suite(path)


@pytest.mark.parametrize("config_id", ["", "..", "a,b", "x/y"], ids=repr)
def test_load_suite_refuses_a_config_id_naming_the_file_and_the_config(tmp_path, config_id):
    path = write_suite(tmp_path, [{"config_id": "ok"}, {"config_id": config_id}])
    with pytest.raises(SuiteConfigError,
                       match=re.escape(f"suite.json: configs[1]: config_id {config_id!r}")):
        load_suite(path)


def test_run_and_report(tmp_path, capsys):
    suite = tiny_suite(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", suite, "--out", str(out)]) == 0
    assert (out / "none" / "run_0" / "samples.csv").exists()
    assert (out / "dur" / "run_1" / "metadata.json").exists()

    assert main(["report", "--in", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "none" in printed and "dur" in printed
    assert "Mean" in printed
    assert "dur vs none" in printed
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + 2 configs


def test_report_is_deterministic(tmp_path, capsys):
    suite = tiny_suite(tmp_path, n=1)
    out = tmp_path / "results"
    main(["run", "--config", suite, "--out", str(out)])
    capsys.readouterr()  # discard run progress output
    main(["report", "--in", str(out)])
    first = capsys.readouterr().out
    main(["report", "--in", str(out)])
    second = capsys.readouterr().out
    assert first == second


def test_run_bad_suite_exits_nonzero(tmp_path, capsys):
    path = write_suite(tmp_path, [
        {"config_id": "x", "pipeline": {"probe": "bogus"}}])
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


def test_run_null_pipeline_is_an_error_line_not_a_traceback(tmp_path, capsys):
    path = write_suite(tmp_path, [{"config_id": "x", "pipeline": None}])
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("minimon: error:")


def test_report_missing_dir_exits_nonzero(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "nothing")]) == 1


def test_report_corrupt_csv_names_file_and_line(tmp_path, capsys):
    suite = tiny_suite(tmp_path, n=1)
    out = tmp_path / "results"
    main(["run", "--config", suite, "--out", str(out)])
    csv = out / "none" / "run_0" / "samples.csv"
    lines = csv.read_text().splitlines()
    for corrupt, named in ((lines[:5] + ["garbage"] + lines[6:], ":6"),
                           (lines[:11], "expected 30 samples, found 10")):
        csv.write_text("\n".join(corrupt) + "\n")
        assert main(["report", "--in", str(out)]) == 1
        err = capsys.readouterr().err
        assert "samples.csv" in err and named in err


def test_report_metadata_without_config_names_run_dir(tmp_path, capsys):
    suite = tiny_suite(tmp_path, n=1)
    out = tmp_path / "results"
    main(["run", "--config", suite, "--out", str(out)])
    capsys.readouterr()
    meta_path = out / "dur" / "run_0" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["workload"]["depth"] = "2"
    str_depth = json.dumps(meta)
    del meta["config"]
    for text, named in ((json.dumps(meta), "config"), (str_depth, "depth"),
                        ("{", "invalid JSON"), ("[]", "JSON object")):
        meta_path.write_text(text)
        assert main(["report", "--in", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("minimon: error: ")
        assert str(meta_path.parent) in err and named in err


def test_report_refuses_a_result_with_a_missing_or_mixed_run(tmp_path, capsys):
    suite = tiny_suite(tmp_path, n=3)
    out = tmp_path / "results"
    main(["run", "--config", suite, "--out", str(out)])
    capsys.readouterr()
    meta_path = out / "dur" / "run_2" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["workload"]["depth"] = 7
    meta_path.write_text(json.dumps(meta))
    assert main(["report", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("minimon: error: ") and str(meta_path.parent) in err
    shutil.rmtree(out / "dur" / "run_1")
    assert main(["report", "--in", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("minimon: error: ") and "missing ['run_1']" in err


@pytest.mark.parametrize("command, last", [("run", "dur"), ("sweep", "dur__d2")])
def test_a_stale_last_cell_is_refused_before_the_commands_first_child(tmp_path, request,
                                                                       capsys, command, last):
    out = tmp_path / "results"
    argv = [command, "--config", tiny_suite(tmp_path, depths=[1, 2]), "--out", str(out)]
    assert main(argv) == 0
    shutil.copytree(out / last / "run_1", out / last / "run_2")  # as a larger earlier run left it
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}

    request.getfixturevalue("no_children")  # from here on, a spawned child fails the test
    capsys.readouterr()
    assert main(argv) == 1
    assert f"{out / last}: holds ['run_2'] beyond the config's runs=2" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


def test_sweep_and_plot(tmp_path, capsys):
    suite = write_suite(tmp_path, [
        {"config_id": "none", "pipeline": {"probe": "none", "writer": "null"},
         "iterations": 20, "runs": 1}])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", suite, "--depths", "1,2", "--out", str(out)]) == 0
    assert (out / "none__d1" / "run_0" / "samples.csv").exists()
    svg_path = tmp_path / "chart.svg"
    assert main(["plot", "--in", str(out), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_single_depth_rejected(tmp_path, capsys):
    suite = write_suite(tmp_path, [
        {"config_id": "none", "pipeline": {"probe": "none", "writer": "null"},
         "iterations": 20, "runs": 1}])
    out = tmp_path / "sweep"
    main(["sweep", "--config", suite, "--depths", "1", "--out", str(out)])
    assert main(["plot", "--in", str(out), "--out", str(tmp_path / "c.svg")]) == 1


def test_depths_flag_validation():
    with pytest.raises(SystemExit):
        main(["sweep", "--depths", "0", "--out", "x"])


def test_outputs_stay_under_out_dir(tmp_path):
    suite = tiny_suite(tmp_path, n=1)
    out = tmp_path / "results"
    main(["run", "--config", suite, "--out", str(out)])
    produced = {p for p in tmp_path.rglob("*") if p.is_file()}
    outside = [p for p in produced
               if out not in p.parents and p.name != "suite.json"]
    assert outside == []


def test_env_var_default_out(tmp_path, monkeypatch):
    suite = tiny_suite(tmp_path, n=1)
    out = tmp_path / "env-out"
    monkeypatch.setenv("MINIMON_OUT", str(out))
    assert main(["run", "--config", suite]) == 0
    assert (out / "none" / "run_0" / "samples.csv").exists()
