import json
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import pytest

import reszo
from reszo import cli, experiment_from_dict, export_results, run_experiment
from reszo.cli import main


def write_config(path, **overrides):
    cfg = {
        "benchmark": {"problem": "ridge", "d": 4, "N": 20, "lambda": 0.1, "seed": 3},
        "optimizer": {
            "method": "l_reszo",
            "eta": 1e-4,
            "delta": 0.01,
            "iterations": 20,
            "window_m": 6,
            "warm_eta": 1e-5,
            "warm_delta": 0.05,
        },
        "trials": 2,
        "base_seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert (out / "curve.csv").exists()
    assert (out / "trials.csv").exists()
    assert (out / "manifest.json").exists()
    assert "final mean gap" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--output", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--output", str(b)]) == 0
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
    assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()


def test_run_accepts_manifest_as_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1 = tmp_path / "out1"
    main(["run", "--config", str(cfg), "--output", str(out1)])
    # Configs and manifests written before the "workers" key was retired
    # still load; the key is ignored.
    old_cfg = write_config(tmp_path / "old_cfg.json", workers=1)
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["config"]["workers"] = 1
    old_manifest = tmp_path / "old_manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    for name, path in [
        ("out2", out1 / "manifest.json"),
        ("out3", old_cfg),
        ("out4", old_manifest),
    ]:
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        for csv_name in ("curve.csv", "trials.csv"):
            assert (out1 / csv_name).read_bytes() == (out / csv_name).read_bytes()


def test_library_export_reruns_byte_identically_from_its_manifest(tmp_path):
    # The rerun exports every third row, as its manifest says; so must
    # the library export that wrote the manifest.
    cfg = write_config(tmp_path / "cfg.json", stride=3)
    exp = experiment_from_dict(json.loads(cfg.read_text()))
    results, curve = run_experiment(exp)
    lib = tmp_path / "lib"
    export_results(curve, results, lib, exp)
    rerun = tmp_path / "rerun"
    assert main(["run", "--config", str(lib / "manifest.json"), "--output", str(rerun)]) == 0
    for csv_name in ("curve.csv", "trials.csv"):
        assert (lib / csv_name).read_bytes() == (rerun / csv_name).read_bytes()


@pytest.mark.parametrize("method", ["l_reszo", "q_reszo"])
def test_run_is_byte_identical_at_one_and_two_blas_threads(tmp_path, method):
    # The README's reproducibility claim at a size where OpenBLAS does
    # not split its calls across threads: ridge d=20, diagnosed.
    cfg = write_config(
        tmp_path / "cfg.json",
        benchmark={"problem": "ridge", "d": 20, "N": 200, "seed": 3},
        optimizer={
            "method": method,
            "eta": 1e-4,
            "delta": 0.01,
            "iterations": 100,
            "window_m": 30,
            "warm_eta": 1e-6,
            "warm_delta": 0.1,
        },
        record_diagnostics=True,
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(reszo.__file__)))
    path = os.environ.get("PYTHONPATH")
    seen = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = package_root + (os.pathsep + path if path else "")
        out = tmp_path / f"threads{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "reszo", "run", "--config", str(cfg), "--output", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert run.returncode == 0, run.stderr
        seen.append(json.loads((out / "manifest.json").read_text())["numeric"]["blas_threads"])
    for csv_name in ("curve.csv", "trials.csv"):
        one = (tmp_path / "threads1" / csv_name).read_bytes()
        assert one == (tmp_path / "threads2" / csv_name).read_bytes(), csv_name
    # Each child ran at the count it was given, where numpy has loaded
    # OpenBLAS and there are two cores to thread on.
    if seen[0] is not None and (os.cpu_count() or 1) >= 2:
        assert seen == [1, 2]


def test_flag_overrides_change_seed(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--output", str(a), "--seed", "99", "--trials", "1"])
    main(["run", "--config", str(cfg), "--output", str(b), "--seed", "100", "--trials", "1"])
    assert (a / "curve.csv").read_bytes() != (b / "curve.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 99
    assert manifest["config"]["trials"] == 1


def test_grid_prints_best(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code = main(
        ["grid", "--config", str(cfg), "--eta", "1e-4,1e-5", "--delta", "0.01",
         "--trials", "1", "--output", str(tmp_path / "g")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best:" in out
    assert (tmp_path / "g" / "grid.csv").exists()


def test_cd_ratio_outputs_stats(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", trials=1)
    code = main(["cd-ratio", "--config", str(cfg), "--output", str(tmp_path / "cd")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "trial,count,max,p99,mean"
    assert (tmp_path / "cd" / "cd_stats.csv").exists()


def test_cd_ratio_rejects_non_linear_method(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    data = json.loads(cfg.read_text())
    data["optimizer"]["method"] = "q_reszo"
    cfg.write_text(json.dumps(data))
    assert main(["cd-ratio", "--config", str(cfg)]) == 2


def test_compare_merges_methods(tmp_path, capsys):
    cfg_l = write_config(tmp_path / "l.json")
    cfg_t = write_config(
        tmp_path / "t.json",
        optimizer={"method": "tzo", "eta": 1e-4, "delta": 0.01, "iterations": 20},
    )
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--configs", str(cfg_l), str(cfg_t), "--output", str(out)]
    )
    assert code == 0
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header.startswith("queries,l_reszo_mean")
    assert "tzo_mean" in header


def test_compare_writes_one_manifest_per_column(tmp_path):
    # Every column label of compare.csv, a repeated method's suffixed one
    # included, gets a manifest that loads back as a --config to the
    # ExperimentConfig that produced the column, flags applied.
    configs = {
        "l_reszo": write_config(tmp_path / "l.json"),
        "tzo": write_config(
            tmp_path / "t.json",
            optimizer={"method": "tzo", "eta": 1e-4, "delta": 0.01, "iterations": 20},
        ),
        "l_reszo_2": write_config(tmp_path / "l2.json", base_seed=11),
    }
    out = tmp_path / "cmp"
    argv = ["compare", "--configs", *map(str, configs.values()), "--output", str(out)]
    assert main(argv + ["--stride", "2", "--trials", "1"]) == 0
    header = (out / "compare.csv").read_text().splitlines()[0]
    written = sorted(path.name for path in out.glob("*.json"))
    assert written == sorted(f"manifest_{label}.json" for label in configs)
    for label, path in configs.items():
        assert f"{label}_mean" in header
        expected = replace(
            cli._load_config(str(path)), output_path=str(out), stride=2, trials=1
        )
        assert cli._load_config(str(out / f"manifest_{label}.json")) == expected


def test_compare_rejects_mixed_benchmarks(tmp_path):
    cfg_a = write_config(tmp_path / "a.json")
    cfg_b = write_config(
        tmp_path / "b.json",
        benchmark={"problem": "ridge", "d": 5, "N": 20, "lambda": 0.1, "seed": 3},
    )
    assert main(["compare", "--configs", str(cfg_a), str(cfg_b)]) == 2


def test_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_unreadable_config_path_is_config_error(tmp_path, capsys, where):
    # A directory, or a path below a regular file, is reported as a config
    # error that names the path, not as a traceback.
    if where == "directory":
        path = tmp_path
    else:
        path = write_config(tmp_path / "cfg.json") / "inner.json"
    for command in (["run", "--config", str(path)], ["compare", "--configs", str(path)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err, err


def test_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2


def test_retired_regression_mode_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    data = json.loads(cfg.read_text())
    data["optimizer"]["regression_mode"] = "intercept_raw"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("optimizer", "regresion_mode", "difference_no_intercept"),
        ("benchmark", "lamda", 0.2),
        (None, "trails", 3),
        ("optimizer", "adaptive_delta", "false"),
        (None, "record_diagnostics", 1),
        ("benchmark", "d", 4.7),
        ("benchmark", "N", 20.0),
        ("optimizer", "iterations", "20"),
        (None, "trials", True),
        ("optimizer", "eta", None),
        ("optimizer", "eta", True),
        ("optimizer", "delta", "0.002"),
        ("optimizer", "warm_eta", True),
        ("benchmark", "lambda", None),
        (None, "output_path", 5),
        (None, "confidence", None),
        ("optimizer", "eta", float("nan")),
        ("optimizer", "delta", float("inf")),
        ("benchmark", "lambda", float("nan")),
    ],
)
def test_unknown_key_or_mistyped_value_is_config_error(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path / "cfg.json")
    data = json.loads(cfg.read_text())
    (data if section is None else data[section])[key] = value
    cfg.write_text(json.dumps(data))  # NaN and inf as JSON NaN and Infinity
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", [None, "benchmark"])
def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "cfg.json")
    data = json.loads(cfg.read_text())
    if section is None:
        data = [1]
    else:
        data[section] = [1]
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert f"{section or 'config'} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_stride_flag_subsamples_rows(tmp_path):
    cfg_l = write_config(tmp_path / "l.json")
    cfg_t = write_config(
        tmp_path / "t.json",
        optimizer={"method": "tzo", "eta": 1e-4, "delta": 0.01, "iterations": 20},
    )
    rows = {}
    for stride in (1, 3):
        out = tmp_path / f"cmp{stride}"
        argv = ["compare", "--configs", str(cfg_l), str(cfg_t), "--output", str(out)]
        assert main(argv + ["--stride", str(stride)]) == 0
        rows[stride] = (out / "compare.csv").read_text().splitlines()
        for label in ("l_reszo", "tzo"):
            manifest = json.loads((out / f"manifest_{label}.json").read_text())
            assert manifest["config"]["stride"] == stride
    assert rows[3] == rows[1][:1] + rows[1][1::3]


def test_all_diverged_exits_one(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        optimizer={"method": "szo", "eta": 1e9, "delta": 0.01, "iterations": 30},
        trials=2,
    )
    assert main(["run", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command", ["run", "grid", "cd-ratio", "compare"])
def test_unwritable_output_is_export_failure(tmp_path, capsys, command):
    # An output directory under a regular file cannot be created.
    cfg = write_config(tmp_path / "cfg.json", trials=1)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out")
    argv = {
        "run": ["run", "--config", str(cfg)],
        "grid": ["grid", "--config", str(cfg), "--eta", "1e-4", "--delta", "0.01"],
        "cd-ratio": ["cd-ratio", "--config", str(cfg)],
        "compare": ["compare", "--configs", str(cfg)],
    }[command]
    assert main(argv + ["--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("export failed: ") and str(blocker) in err


def test_internal_key_error_is_not_a_config_error(tmp_path, capsys):
    # A KeyError from inside a run is a fault of the program: it propagates
    # with its traceback instead of exiting 2 as a bad config.
    cfg = write_config(tmp_path / "cfg.json")
    with mock.patch.object(cli, "run_experiment", side_effect=KeyError("internal")):
        with pytest.raises(KeyError, match="internal"):
            main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err
