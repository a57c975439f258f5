"""CLI: exit codes, file outputs, config handling, reproducibility."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from prectune import cli, dataset, solve
from prectune.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_parser,
    main,
    make_run_config,
    parse_int_list,
    parse_shape_items,
    parse_targets,
    target_slug,
)
from prectune.dataset import load_dataset
from prectune.learn import TrainConfig, load_classifier, load_regressor

FAST = ["--shape", "n=64", "--dataset-size", "150", "--budget", "15"]


def run(*argv) -> int:
    return main(list(argv))


def config_of(*argv) -> RunConfig:
    return make_run_config(build_parser().parse_args(["dataset", *argv]))


def tune_records(out, mode, targets) -> list[dict]:
    """The saxpy tune records of mode under out, one per target."""
    return [json.loads((out / f"saxpy_{mode}_{target_slug(float(t))}.json").read_text()) for t in targets]


SCALAR_FIELDS = [f.name for f in fields(RunConfig) if type(f.default) in (int, float, str)]
# a valid value other than the default for each scalar setting
NON_DEFAULT = {
    "benchmark": "fwt", "nbit_min": 2, "nbit_max": 30, "dataset_size": 7, "budget": 0,
    "mode": "baseline", "seed_input": 4, "seed_sample": 5, "seed_train": 6, "epochs": 1,
    "batch_size": 8, "learning_rate": 0.25, "max_depth": 0, "out": "elsewhere",
}
BAD_TRAINING = [
    ("epochs", "0"), ("epochs", "-1"), ("batch_size", "0"), ("batch_size", "-5"),
    ("learning_rate", "0"), ("learning_rate", "-0.001"), ("learning_rate", "nan"),
    ("learning_rate", "inf"), ("max_depth", "-1"),
]


@pytest.fixture
def runs_by_input(monkeypatch):
    """(input seed, config) of each kernel run, the reference runs among
    them, and each row of a batch a run of its own."""
    made = []

    def counted(fn):
        def call(benchmark, input_set, config, **kwargs):
            made.extend((input_set.seed, tuple(row)) for row in np.atleast_2d(config).tolist())
            return fn(benchmark, input_set, config, **kwargs)

        return call

    for module in (solve, dataset):
        monkeypatch.setattr(module, "run_kernel", counted(module.run_kernel))
    return made


class TestHelpers:
    def test_target_slug(self):
        assert target_slug(0.1) == "0.1"
        assert target_slug(1e-3) == "0.001"
        assert target_slug(1e-5) == "1e-5"
        assert target_slug(1e-30) == "1e-30"

    def test_target_slug_reads_back_as_its_target(self):
        # %g keeps six digits; a target it would round gets repr instead
        for target in (1.23456e-3, 1.234561e-3, 1.2345678e-10, 0.1 + 0.2, 3e-7, 1e-300):
            assert float(target_slug(target)) == target
        assert target_slug(1.23456e-3) == "0.00123456"
        assert target_slug(1.234561e-3) == "0.001234561"
        assert target_slug(1.2345678e-10) == "1.2345678e-10"
        # the short names of round targets stay as they were
        for exp in range(1, 31):
            assert target_slug(10.0 ** -exp) == f"{10.0 ** -exp:g}".replace("e-0", "e-")

    def test_duplicate_targets_refused(self):
        for argv in (["--target", "1e-3,0.001"], ["--target", "1e-3", "--target", "1e-5,1e-3"]):
            with pytest.raises(UsageError, match="more than once"):
                config_of(*argv)

    def test_parse_targets(self):
        assert parse_targets("1e-3, 1e-5") == (1e-3, 1e-5)
        with pytest.raises(Exception):
            parse_targets("-1.0")
        with pytest.raises(Exception):
            parse_targets("abc")
        with pytest.raises(Exception):
            parse_targets("")

    def test_parse_shape(self):
        assert parse_shape_items(["n=64", "iters=3"]) == {"n": 64, "iters": 3}
        with pytest.raises(Exception):
            parse_shape_items(["n"])
        with pytest.raises(Exception):
            parse_shape_items(["n=abc"])

    def test_parse_int_list(self):
        assert parse_int_list("3,7,10", "formats") == (3, 7, 10)
        with pytest.raises(Exception):
            parse_int_list("3,x", "formats")


class TestDatasetCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        rc = run("dataset", "--benchmark", "saxpy", "--dataset-size", "40",
                 "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_OK
        path = tmp_path / "saxpy_dataset.csv"
        assert path.exists() and (tmp_path / "saxpy_dataset.csv.meta.json").exists()
        ds = load_dataset(path)
        assert len(ds.samples) == 40
        assert ds.benchmark == "saxpy"

    def test_unknown_benchmark(self, tmp_path):
        assert run("dataset", "--benchmark", "nope", "--out", str(tmp_path)) == EXIT_USAGE

    def test_bad_shape_key(self, tmp_path):
        rc = run("dataset", "--benchmark", "saxpy", "--shape", "bogus=3",
                 "--out", str(tmp_path))
        assert rc == EXIT_USAGE

    def test_bad_width_bounds(self, tmp_path):
        rc = run("dataset", "--benchmark", "saxpy", "--nbit-min", "9",
                 "--nbit-max", "4", "--out", str(tmp_path))
        assert rc == EXIT_USAGE


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "benchmark = saxpy\n"
            "shape = n=64\n"
            "dataset_size = 30\n"
            "target = 1e-1\n"
        )
        out = tmp_path / "a"
        assert run("dataset", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert len(load_dataset(out / "saxpy_dataset.csv").samples) == 30
        out2 = tmp_path / "b"
        rc = run("dataset", "--config", str(cfg), "--dataset-size", "25",
                 "--out", str(out2))
        assert rc == EXIT_OK
        assert len(load_dataset(out2 / "saxpy_dataset.csv").samples) == 25

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmrk = saxpy\n")
        assert run("dataset", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        assert "benchmrk" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmark saxpy\n")
        assert run("dataset", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE

    def test_missing_file(self, tmp_path):
        rc = run("dataset", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path))
        assert rc == EXIT_USAGE


class TestSettings:
    def test_every_scalar_setting_covered(self):
        assert len(SCALAR_FIELDS) == 14
        assert sorted(NON_DEFAULT) == sorted(SCALAR_FIELDS)

    @pytest.mark.parametrize("key", SCALAR_FIELDS)
    def test_flag_and_config_key_agree(self, tmp_path, key):
        value = NON_DEFAULT[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        from_key = config_of("--config", str(path))
        from_flag = config_of("--" + key.replace("_", "-"), str(value))
        assert from_key == from_flag == replace(RunConfig(), **{key: value})
        assert getattr(from_flag, key) != getattr(RunConfig(), key)
        assert type(getattr(from_key, key)) is type(getattr(RunConfig(), key))

    @pytest.mark.parametrize("key", ["benchmrk", "batch-size", "targets"])
    def test_unknown_key_refused_by_name(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"benchmark = saxpy\n{key} = 4\n")
        with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
            config_of("--config", str(path))

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key,value", BAD_TRAINING)
    def test_training_setting_refused(self, tmp_path, capsys, source, key, value):
        if source == "flag":
            argv = ["--" + key.replace("_", "-"), value]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        assert run("tune", "--benchmark", "saxpy", *argv, "--out", str(out)) == EXIT_USAGE
        assert f"error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key", ["seed_input", "seed_sample", "seed_train"])
    def test_negative_seed_refused_before_any_run(self, tmp_path, capsys, runs_by_input, source, key):
        if source == "flag":
            argv = ["--" + key.replace("_", "-"), "-1"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = -1\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        assert run("tune", "--benchmark", "saxpy", "--shape", "n=64", *argv, "--out", str(out)) == EXIT_USAGE
        assert f"error: {key} -1 must be >= 0" in capsys.readouterr().err
        assert runs_by_input == [] and not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("value", ["inf", "1e-3,inf", "nan"])
    def test_non_finite_target_refused(self, tmp_path, capsys, source, value):
        if source == "flag":
            argv = ["--target", value]
        else:
            (tmp_path / "run.cfg").write_text(f"target = {value}\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        rc = run("tune", "--benchmark", "saxpy", "--mode", "baseline", "--shape", "n=64", *argv, "--out", str(out))
        assert rc == EXIT_USAGE
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_training_setting_bounds_accepted(self):
        cfg = config_of("--epochs", "1", "--batch-size", "1", "--max-depth", "0",
                        "--learning-rate", "1e-300")
        assert (cfg.epochs, cfg.batch_size, cfg.max_depth, cfg.learning_rate) == (1, 1, 0, 1e-300)

    def test_training_defaults_are_train_config_defaults(self):
        tc = RunConfig(seed_train=3).train_config()
        assert tc == TrainConfig(seed=3)


class TestTrainCommand:
    def test_trains_and_saves(self, tmp_path):
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "60",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        rc = run("train", "--benchmark", "saxpy", "--epochs", "20",
                 "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_OK
        reg = load_regressor(tmp_path / "saxpy_regressor.json")
        clf = load_classifier(tmp_path / "saxpy_classifier.json")
        assert reg.n_inputs == 3 and clf.n_inputs == 3
        metrics = json.loads((tmp_path / "saxpy_metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert {"seed_input", "seed_sample", "seed_train"} <= metrics.keys()

    def test_dataset_seeds_recorded(self, tmp_path):
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "60", "--shape", "n=64",
                   "--seed-input", "5", "--seed-sample", "7", "--out", str(tmp_path)) == EXIT_OK
        rc = run("train", "--benchmark", "saxpy", "--epochs", "5", "--seed-train", "2",
                 "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_OK
        metrics = json.loads((tmp_path / "saxpy_metrics.json").read_text())
        assert (metrics["seed_input"], metrics["seed_sample"], metrics["seed_train"]) == (5, 7, 2)

    def test_dataset_benchmark_mismatch(self, tmp_path):
        assert run("dataset", "--benchmark", "fwt", "--dataset-size", "30",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        rc = run("train", "--benchmark", "saxpy",
                 "--dataset", str(tmp_path / "fwt_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_USAGE


class TestTuneCommand:
    def test_feasible_run(self, tmp_path):
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1,1e-2",
                 "--mode", "smart_plus", *FAST, "--out", str(tmp_path))
        assert rc == EXIT_OK
        summary = (tmp_path / "saxpy_smart_plus_summary.csv").read_text().splitlines()
        assert summary[0].startswith("# seed_input=0 seed_sample=0 seed_train=0")
        assert summary[1] == "target,method,total_bits,actual_error,feasible,iterations,kernel_runs"
        assert len(summary) == 4
        for line in summary[2:]:
            target, method, bits, err, feasible, iters, runs = line.split(",")
            assert method == "smart_plus"
            assert feasible == "true"
            assert (float(err) <= float(target)) == (feasible == "true")
            assert int(bits) >= 3 and int(iters) >= 1 and int(runs) >= 1

    def test_result_json_fields(self, tmp_path):
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1",
                 "--mode", "smart", *FAST, "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "saxpy_smart_0.1.json").read_text())
        assert doc["benchmark"] == "saxpy" and doc["mode"] == "smart"
        assert doc["feasible"] is True and doc["status"] == "feasible"
        assert doc["actual_error"] <= doc["target"]
        assert sum(doc["config"]) == doc["total_bits"]
        assert doc["dataset_runs"] == 150
        assert doc["samples_added"] == 0 and doc["adam_steps"] == 0
        assert isinstance(doc["search_boxes"], int) and doc["search_boxes"] >= 0
        assert doc["wall_time_s"] > 0
        assert {"seed_input", "seed_sample", "seed_train"} <= doc.keys()

    def test_baseline_mode(self, tmp_path):
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1",
                 "--mode", "baseline", "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "saxpy_baseline_0.1.json").read_text())
        assert doc["feasible"] is True
        assert doc["dataset_runs"] == 0

    def test_dataset_refused_in_baseline_mode(self, tmp_path, capsys):
        # baseline mode builds no models, so a dataset would go unread
        out = tmp_path / "out"
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-3", "--mode", "baseline",
                 "--shape", "n=64", "--dataset", str(tmp_path / "none.csv"), "--out", str(out))
        assert rc == EXIT_USAGE
        assert "--dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_one_on_infeasible(self, tmp_path):
        # 1e-25 is out of reach with at most 10 bits; at 52 it is met exactly
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-25",
                 "--mode", "smart", "--shape", "n=64", "--dataset-size", "40",
                 "--nbit-max", "10", "--budget", "2", "--out", str(tmp_path))
        assert rc == EXIT_INFEASIBLE
        doc = json.loads((tmp_path / "saxpy_smart_1e-25.json").read_text())
        assert doc["feasible"] is False

    def test_summary_byte_identical(self, tmp_path):
        args = ("tune", "--benchmark", "saxpy", "--target", "1e-1,1e-3",
                "--mode", "smart_plus", *FAST)
        assert run(*args, "--out", str(tmp_path / "a")) in (EXIT_OK, EXIT_INFEASIBLE)
        assert run(*args, "--out", str(tmp_path / "b")) in (EXIT_OK, EXIT_INFEASIBLE)
        a = (tmp_path / "a" / "saxpy_smart_plus_summary.csv").read_bytes()
        b = (tmp_path / "b" / "saxpy_smart_plus_summary.csv").read_bytes()
        assert a == b

    def test_prebuilt_dataset_reused(self, tmp_path):
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "60",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart",
                 "--shape", "n=64", "--dataset", str(tmp_path / "saxpy_dataset.csv"),
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "saxpy_smart_0.1.json").read_text())
        assert doc["dataset_runs"] == 0

    @pytest.mark.parametrize("field,argv", [
        ("shape", ["--shape", "n=128"]),
        ("seed_input", ["--shape", "n=64", "--seed-input", "1"]),
    ])
    def test_prebuilt_dataset_from_other_input_set(self, tmp_path, capsys, field, argv):
        # the dataset's errors were measured on the input set its sidecar names
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart", *argv,
                 "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert f"has {field} " in capsys.readouterr().err
        assert not (tmp_path / "saxpy_smart_0.1.json").exists()

    @pytest.mark.parametrize("field,box", [
        ("nbit_lo", []), ("nbit_lo", ["--nbit-min", "9", "--nbit-max", "20"]), ("nbit_hi", ["--nbit-min", "10"]),
    ])
    def test_prebuilt_dataset_from_other_width_box(self, tmp_path, capsys, field, box):
        # models fitted on [10, 20] know nothing outside it
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30", "--nbit-min", "10",
                   "--nbit-max", "20", "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart", "--shape", "n=64",
                 *box, "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert f"has {field} " in capsys.readouterr().err
        assert not (tmp_path / "saxpy_smart_0.1.json").exists()

    def test_prebuilt_dataset_errors_are_not_entered(self, tmp_path, runs_by_input):
        # the dataset holds every config of the [4, 5] box, so every config
        # the tuner verifies is in it; each is still run by the tune
        box = ("--nbit-min", "4", "--nbit-max", "5", "--shape", "n=64")
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "40", *box,
                   "--out", str(tmp_path)) == EXIT_OK
        assert len({s.config for s in load_dataset(tmp_path / "saxpy_dataset.csv").samples}) == 8
        runs_by_input.clear()
        targets = ("1e-1", "1e-2", "1e-3")
        rc = run("tune", "--benchmark", "saxpy", "--mode", "smart", "--target", ",".join(targets), *box,
                 "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        records = tune_records(tmp_path, "smart", targets)
        made = [cfg for _, cfg in runs_by_input]
        verified = {tuple(rec["config"]) for rec in records if rec["config"] is not None}
        assert verified and verified <= set(made)
        # the reference run, then the verify runs, each once
        assert len(set(made)) == len(made) == 1 + sum(rec["kernel_runs"] for rec in records)
        assert all(rec["dataset_runs"] == 0 for rec in records)

    def test_prebuilt_dataset_sidecar_bad_value(self, tmp_path, capsys):
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        sidecar = tmp_path / "saxpy_dataset.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["shape"] = None
        sidecar.write_text(json.dumps(meta))
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart",
                 "--shape", "n=64", "--dataset", str(tmp_path / "saxpy_dataset.csv"),
                 "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert "'shape'" in capsys.readouterr().err

    def test_prebuilt_dataset_sidecar_missing_key(self, tmp_path, capsys):
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        sidecar = tmp_path / "saxpy_dataset.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta["nbit_lo"]
        sidecar.write_text(json.dumps(meta))
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart",
                 "--shape", "n=64", "--dataset", str(tmp_path / "saxpy_dataset.csv"),
                 "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert "'nbit_lo'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        ("widths", ":3: widths (99, 5, 5)"),
        ("class", ":3: class 7"),
        ("nbit_lo", "'nbit_lo' -5"),
        ("error", ":3: log_err 35.0 and class 1 disagree with error 0.001"),
    ])
    def test_prebuilt_dataset_malformed_refused(self, tmp_path, capsys, edit, named):
        # a width outside the sidecar's box, a class other than 0 or 1, a box
        # outside [1, 52] and a row whose log_err and class contradict its
        # error are refused, not trained on
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        path = tmp_path / "saxpy_dataset.csv"
        lines = path.read_text().splitlines()
        if edit == "widths":
            lines[2] = "99,5,5," + lines[2].split(",", 3)[3]
        elif edit == "class":
            lines[2] = lines[2].rsplit(",", 1)[0] + ",7"
        elif edit == "error":
            lines[2] = lines[2].rsplit(",", 3)[0] + ",0.001,35.0,1"
        else:
            sidecar = tmp_path / "saxpy_dataset.csv.meta.json"
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "nbit_lo": -5}))
        path.write_text("\n".join(lines) + "\n")
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart",
                 "--shape", "n=64", "--dataset", str(path), "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "saxpy_smart_0.1.json").exists()

    def test_prebuilt_dataset_seeds_recorded(self, tmp_path):
        # a run on a loaded dataset records the seeds its data was drawn with
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "60", "--shape", "n=64",
                   "--seed-input", "5", "--seed-sample", "7", "--out", str(tmp_path)) == EXIT_OK
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1", "--mode", "smart",
                 "--shape", "n=64", "--seed-input", "5", "--seed-train", "2",
                 "--dataset", str(tmp_path / "saxpy_dataset.csv"), "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "saxpy_smart_0.1.json").read_text())
        assert (doc["seed_input"], doc["seed_sample"], doc["seed_train"]) == (5, 7, 2)
        summary = (tmp_path / "saxpy_smart_summary.csv").read_text().splitlines()
        assert summary[0] == "# seed_input=5 seed_sample=7 seed_train=2"

    @pytest.mark.parametrize("mode", ["smart", "smart_plus"])
    def test_targets_share_initial_fit(self, tmp_path, mode):
        # one invocation fits the initial models once for all its targets;
        # each record must equal that of a run with its target alone, but
        # for the runs a target reads off the ledger the ones before it made
        targets = ("1e-1", "1e-3", "1e-5")
        args = ("tune", "--benchmark", "saxpy", "--mode", mode, *FAST)
        assert run(*args, "--target", ",".join(targets), "--out", str(tmp_path / "all")) == EXIT_OK
        misses = 0
        for target in targets:
            assert run(*args, "--target", target, "--out", str(tmp_path / target)) == EXIT_OK
            name = f"saxpy_{mode}_{target_slug(float(target))}.json"
            together = json.loads((tmp_path / "all" / name).read_text())
            alone = json.loads((tmp_path / target / name).read_text())
            del together["wall_time_s"], alone["wall_time_s"]
            assert together.pop("kernel_runs") <= alone.pop("kernel_runs")
            assert together == alone
            misses += together["samples_added"]
        # some target retrained from its own previous regressor
        assert misses > 0


    def test_close_targets_keep_their_own_results(self, tmp_path):
        targets = (1.23456e-3, 1.234561e-3)
        rc = run("tune", "--benchmark", "saxpy", "--mode", "baseline", "--shape", "n=64",
                 "--target", ",".join(repr(t) for t in targets), "--out", str(tmp_path))
        assert rc == EXIT_OK
        for target in targets:
            doc = json.loads((tmp_path / f"saxpy_baseline_{target_slug(target)}.json").read_text())
            assert doc["target"] == target
        rows = (tmp_path / "saxpy_baseline_summary.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == list(targets)

    def test_duplicate_target_exits_usage(self, tmp_path):
        rc = run("tune", "--benchmark", "saxpy", "--mode", "baseline", "--shape", "n=64",
                 "--target", "1e-3,0.001", "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert not list(tmp_path.iterdir())


class TestPreRefineRecords:
    """The tune records' pre_refine_total_bits and pre_refine_error: the
    config a descent started from, its bits and measured error."""

    TARGETS = ("1e-1", "1e-3", "1e-5")

    def test_smart_plus_starts_from_the_smart_answer(self, tmp_path):
        # on the same seeds the two modes verify the same proposals
        for mode in ("smart", "smart_plus"):
            assert run("tune", "--benchmark", "saxpy", "--mode", mode, "--target", ",".join(self.TARGETS),
                       *FAST, "--out", str(tmp_path / mode)) == EXIT_OK
        pairs = zip(tune_records(tmp_path / "smart", "smart", self.TARGETS),
                    tune_records(tmp_path / "smart_plus", "smart_plus", self.TARGETS))
        for smart, plus in pairs:
            assert smart["pre_refine_total_bits"] is None and smart["pre_refine_error"] is None
            assert plus["status"] == smart["status"] == "feasible"
            assert plus["pre_refine_total_bits"] == smart["total_bits"] >= plus["total_bits"]
            assert plus["pre_refine_error"] == smart["actual_error"]

    @pytest.mark.parametrize("mode", ["smart", "smart_plus"])
    def test_max_descent_starts_from_all_max(self, tmp_path, mode):
        # a dataset claiming error 1e-2 everywhere: the first models promise
        # nothing at 1e-5, so the all-20 config is verified and descended
        assert run("dataset", "--benchmark", "saxpy", "--dataset-size", "30", "--nbit-max", "20",
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        path = tmp_path / "saxpy_dataset.csv"
        flat = dataset.error_sample((1, 1, 1), 1e-2)
        lines = path.read_text().splitlines()
        lines[1:] = [f"{line.rsplit(',', 3)[0]},{flat.error!r},{flat.log_err!r},{flat.class_label}"
                     for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        rc = run("tune", "--benchmark", "saxpy", "--mode", mode, "--target", "1e-5", "--nbit-max", "20",
                 "--shape", "n=64", "--dataset", str(path), "--out", str(tmp_path))
        assert rc == EXIT_OK
        (rec,) = tune_records(tmp_path, mode, ["1e-5"])
        assert rec["status"] == "max_descent"
        inp = cli.run_input_set(config_of("--shape", "n=64"), "saxpy")
        all_max = dataset.run_kernel("saxpy", inp, [20, 20, 20])
        assert rec["pre_refine_total_bits"] == 3 * 20 > rec["total_bits"]
        assert rec["pre_refine_error"] == dataset.compute_error(all_max, dataset.reference_output("saxpy", inp))
        assert rec["pre_refine_error"] > 0.0

    def test_baseline_has_no_start_of_its_own(self, tmp_path):
        assert run("tune", "--benchmark", "saxpy", "--mode", "baseline", "--target", ",".join(self.TARGETS),
                   "--shape", "n=64", "--out", str(tmp_path)) == EXIT_OK
        for rec in tune_records(tmp_path, "baseline", self.TARGETS):
            assert rec["feasible"] is True
            assert rec["pre_refine_total_bits"] is None and rec["pre_refine_error"] is None


class TestRunLedger:
    """One tune runs the reference once and each config at most once, for
    all its targets, and still gives each target the answer it gets alone."""

    TARGETS = ("1e-1", "1e-3", "1e-5", "1e-7")

    @pytest.fixture
    def made(self, monkeypatch):
        # every config run, the reference run among them, and each row of
        # a batch a run of its own
        made = []

        def counted(fn):
            def call(benchmark, input_set, config, **kwargs):
                made.extend(tuple(row) for row in np.atleast_2d(config).tolist())
                return fn(benchmark, input_set, config, **kwargs)

            return call

        for module in (solve, dataset):
            monkeypatch.setattr(module, "run_kernel", counted(module.run_kernel))
        return made

    @pytest.mark.parametrize("mode", ["baseline", "smart_plus"])
    def test_each_config_runs_once(self, tmp_path, made, mode):
        args = ("tune", "--benchmark", "saxpy", "--mode", mode, *FAST)
        assert run(*args, "--target", ",".join(self.TARGETS), "--out", str(tmp_path / "all")) == EXIT_OK
        together = tune_records(tmp_path / "all", mode, self.TARGETS)
        assert made.count((52, 52, 52)) == 1
        assert len(set(made)) == len(made)
        # every run but the reference run is the dataset's or some target's
        assert together[0]["dataset_runs"] + sum(rec["kernel_runs"] for rec in together) == len(made) - 1
        for target, rec in zip(self.TARGETS, together):
            made.clear()
            assert run(*args, "--target", target, "--out", str(tmp_path / target)) == EXIT_OK
            (alone,) = tune_records(tmp_path / target, mode, [target])
            assert alone["dataset_runs"] + alone["kernel_runs"] == len(made) - 1
            for key in ("config", "actual_error", "status", "iterations"):
                assert rec[key] == alone[key], key


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        rc = run("sweep", "--benchmark", "saxpy", "--sizes", "30,60", "--holdout", "40",
                 "--shape", "n=64", "--epochs", "20", "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "sweep_rmse.csv").read_text().splitlines()
        assert lines[1] == "size,benchmark,rmse,accuracy"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["30", "60"]
        for r in rows:
            assert r[1] == "saxpy"
            assert float(r[2]) >= 0.0
            assert 0.0 <= float(r[3]) <= 1.0

    def test_sizes_must_ascend(self, tmp_path):
        rc = run("sweep", "--benchmark", "saxpy", "--sizes", "60,30",
                 "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_USAGE

    def test_sizes_must_not_repeat(self, tmp_path, capsys):
        rc = run("sweep", "--benchmark", "saxpy", "--sizes", "50,50",
                 "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert "must be strictly ascending" in capsys.readouterr().err
        assert not (tmp_path / "sweep_rmse.csv").exists()


class TestTransferCommand:
    def test_violation_percentages(self, tmp_path):
        rc = run("transfer", "--benchmark", "saxpy", "--n-inputs", "3",
                 "--target", "1e-1", *FAST, "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "transfer_violations.csv").read_text().splitlines()
        assert lines[1] == "benchmark,target,smart_violation_pct,baseline_violation_pct"
        bench, target, pct_s, pct_b = lines[2].split(",")
        assert bench == "saxpy" and target == "0.1"
        assert 0.0 <= float(pct_s) <= 100.0
        assert 0.0 <= float(pct_b) <= 100.0

    def test_targets_share_initial_fit(self, tmp_path):
        args = ("transfer", "--benchmark", "saxpy", "--n-inputs", "2", *FAST)
        assert run(*args, "--target", "1e-1,1e-4", "--out", str(tmp_path / "all")) == EXIT_OK
        rows = []
        for target in ("1e-1", "1e-4"):
            assert run(*args, "--target", target, "--out", str(tmp_path / target)) == EXIT_OK
            rows += (tmp_path / target / "transfer_violations.csv").read_text().splitlines()[2:]
        together = (tmp_path / "all" / "transfer_violations.csv").read_text().splitlines()[2:]
        assert together == rows

    def test_each_config_runs_once_per_input_set(self, tmp_path, runs_by_input):
        rc = run("transfer", "--benchmark", "saxpy", "--n-inputs", "4",
                 "--target", "1e-1,1e-3,1e-5", *FAST, "--out", str(tmp_path))
        assert rc == EXIT_OK
        assert len(set(runs_by_input)) == len(runs_by_input)
        # one reference run per input set
        assert sorted(seed for seed, cfg in runs_by_input if cfg == (52, 52, 52)) == [0, 1, 2, 3]
        # the configs found on the first input set are checked on the others
        assert {seed for seed, cfg in runs_by_input if cfg != (52, 52, 52)} == {0, 1, 2, 3}

    def test_n_inputs_floor(self, tmp_path):
        rc = run("transfer", "--benchmark", "saxpy", "--n-inputs", "1",
                 "--out", str(tmp_path))
        assert rc == EXIT_USAGE


class TestSnapHwCommand:
    def make_result(self, tmp_path, config, target=1e-1):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({
            "benchmark": "saxpy",
            "config": config,
            "target": target,
            "shape": {"n": 64},
            "seed_input": 0,
        }))
        return path

    def test_ceiling_mapping(self, tmp_path):
        result = self.make_result(tmp_path, [5, 9, 5], target=1e-1)
        rc = run("snap-hw", "--result", str(result), "--formats", "3,7,10,23",
                 "--out", str(tmp_path))
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        doc = json.loads((tmp_path / "result_snapped.json").read_text())
        assert doc["snapped_config"] == [7, 10, 7]
        assert doc["feasible"] == (doc["actual_error"] <= doc["target"])

    def test_already_snapped_unchanged(self, tmp_path):
        result = self.make_result(tmp_path, [7, 23, 7])
        rc = run("snap-hw", "--result", str(result), "--formats", "3,7,10,23",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "result_snapped.json").read_text())
        assert doc["snapped_config"] == [7, 23, 7]

    def test_clamps_to_largest(self, tmp_path):
        result = self.make_result(tmp_path, [30, 30, 30])
        rc = run("snap-hw", "--result", str(result), "--formats", "3,7,10,23",
                 "--out", str(tmp_path))
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        doc = json.loads((tmp_path / "result_snapped.json").read_text())
        assert doc["snapped_config"] == [23, 23, 23]

    def test_missing_result(self, tmp_path):
        rc = run("snap-hw", "--result", str(tmp_path / "gone.json"),
                 "--out", str(tmp_path))
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("config", [
        [5.7, 9.9, 5.2], [True, 9, 5], [5, 9.0, 5], [0, 9, 5], [5, 53, 5], "5,9,5",
    ], ids=["fractional", "bool", "float", "zero", "above-max", "string"])
    def test_bad_widths_rejected(self, tmp_path, capsys, config):
        result = self.make_result(tmp_path, config)
        rc = run("snap-hw", "--result", str(result), "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert "integer widths" in capsys.readouterr().err
        assert not (tmp_path / "result_snapped.json").exists()

    def test_null_config_rejected(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({
            "benchmark": "saxpy", "config": None, "target": 1e-1,
            "shape": {"n": 64}, "seed_input": 0,
        }))
        assert run("snap-hw", "--result", str(path), "--out", str(tmp_path)) == EXIT_USAGE


    @pytest.mark.parametrize("field,value", [
        ("benchmark", None), ("benchmark", 3),
        ("target", None), ("target", True), ("target", "0.1"), ("target", 0), ("target", -1e-3),
        ("target", float("inf")), ("target", float("nan")),
        ("shape", None), ("shape", [64]), ("shape", {"n": "64"}), ("shape", {"n": True}), ("shape", {"n": 64.0}),
        ("seed_input", None), ("seed_input", True), ("seed_input", 0.0), ("seed_input", "0"),
    ])
    def test_malformed_field_rejected(self, tmp_path, capsys, field, value):
        doc = {"benchmark": "saxpy", "config": [5, 9, 5], "target": 1e-1, "shape": {"n": 64}, "seed_input": 0}
        path = tmp_path / "result.json"
        path.write_text(json.dumps({**doc, field: value}))
        assert run("snap-hw", "--result", str(path), "--out", str(tmp_path)) == EXIT_USAGE
        assert f"{field} " in capsys.readouterr().err
        assert not (tmp_path / "result_snapped.json").exists()

    def test_non_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        path.write_text(json.dumps([{"benchmark": "saxpy"}]))
        assert run("snap-hw", "--result", str(path), "--out", str(tmp_path)) == EXIT_USAGE
        assert "not a JSON object" in capsys.readouterr().err


class TestOracleCommand:
    def test_small_box(self, tmp_path):
        rc = run("oracle", "--benchmark", "saxpy", "--target", "1e-1",
                 "--nbit-min", "2", "--nbit-max", "8", "--shape", "n=64",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "saxpy_oracle.csv").read_text().splitlines()
        assert lines[1] == "target,total_bits,config,actual_error"
        target, bits, config, err = lines[2].split(",")
        assert int(bits) == sum(int(v) for v in config.split())
        assert float(err) <= 0.1

    def test_printed_error_is_read_not_run(self, tmp_path, monkeypatch, runs_by_input):
        # runs made before and after each target's enumeration
        marks = []

        def marked(*args, **kwargs):
            marks.append(len(runs_by_input))
            sol = solve.brute_force_optimum(*args, **kwargs)
            marks.append(len(runs_by_input))
            return sol

        monkeypatch.setattr(cli, "brute_force_optimum", marked)
        rc = run("oracle", "--benchmark", "saxpy", "--target", "1e-1,1e-3,1e-5",
                 "--nbit-min", "2", "--nbit-max", "12", "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_OK
        assert len(set(runs_by_input)) == len(runs_by_input)
        # nothing runs between one enumeration and the next, or after the last
        assert marks[2::2] == marks[1:-1:2] and marks[-1] == len(runs_by_input)
        rows = (tmp_path / "saxpy_oracle.csv").read_text().splitlines()[2:]
        inp = cli.run_input_set(config_of("--shape", "n=64"), "saxpy")
        ref = dataset.reference_output("saxpy", inp)
        for row in rows:
            _, _, config, err = row.split(",")
            out = dataset.run_kernel("saxpy", inp, [int(v) for v in config.split()])
            assert float(err) == dataset.compute_error(out, ref)

    def test_cap_exceeded(self, tmp_path):
        rc = run("oracle", "--benchmark", "dwt", "--target", "1e-1",
                 "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_USAGE


def module_env() -> dict:
    """The environment with the directory of the imported prectune package
    first on PYTHONPATH, so that a child python imports the same package
    from an uninstalled checkout."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": here + (os.pathsep + path if path else "")}


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "prectune.cli", "dataset", "--benchmark", "saxpy",
             "--dataset-size", "20", "--shape", "n=64", "--out", str(tmp_path)],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "saxpy_dataset.csv").exists()

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prectune.cli", "--help"],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0
        for sub in ("dataset", "train", "tune", "sweep", "transfer", "snap-hw", "oracle"):
            assert sub in proc.stdout
