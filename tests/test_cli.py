"""CLI: exit codes, file outputs, config handling, reproducibility."""

import json
import os
import subprocess
import sys

import pytest

from prectune.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_int_list,
    parse_shape_items,
    parse_targets,
    target_slug,
)
from prectune.dataset import load_dataset
from prectune.learn import load_classifier, load_regressor

FAST = ["--shape", "n=64", "--dataset-size", "150", "--budget", "15"]


def run(*argv) -> int:
    return main(list(argv))


class TestHelpers:
    def test_target_slug(self):
        assert target_slug(0.1) == "0.1"
        assert target_slug(1e-3) == "0.001"
        assert target_slug(1e-5) == "1e-5"
        assert target_slug(1e-30) == "1e-30"

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
        assert doc["wall_time_s"] > 0
        assert {"seed_input", "seed_sample", "seed_train"} <= doc.keys()

    def test_baseline_mode(self, tmp_path):
        rc = run("tune", "--benchmark", "saxpy", "--target", "1e-1",
                 "--mode", "baseline", "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "saxpy_baseline_0.1.json").read_text())
        assert doc["feasible"] is True
        assert doc["dataset_runs"] == 0

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

    @pytest.mark.parametrize("mode", ["smart", "smart_plus"])
    def test_targets_share_initial_fit(self, tmp_path, mode):
        # one invocation fits the initial models once for all its targets;
        # each record must equal that of a run with its target alone
        targets = ("1e-1", "1e-3", "1e-5")
        args = ("tune", "--benchmark", "saxpy", "--mode", mode, *FAST)
        assert run(*args, "--target", ",".join(targets), "--out", str(tmp_path / "all")) == EXIT_OK
        for target in targets:
            assert run(*args, "--target", target, "--out", str(tmp_path / target)) == EXIT_OK
            name = f"saxpy_{mode}_{target_slug(float(target))}.json"
            together = json.loads((tmp_path / "all" / name).read_text())
            alone = json.loads((tmp_path / target / name).read_text())
            del together["wall_time_s"], alone["wall_time_s"]
            assert together == alone


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

    def test_null_config_rejected(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps({
            "benchmark": "saxpy", "config": None, "target": 1e-1,
            "shape": {"n": 64}, "seed_input": 0,
        }))
        assert run("snap-hw", "--result", str(path), "--out", str(tmp_path)) == EXIT_USAGE


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

    def test_cap_exceeded(self, tmp_path):
        rc = run("oracle", "--benchmark", "dwt", "--target", "1e-1",
                 "--shape", "n=64", "--out", str(tmp_path))
        assert rc == EXIT_USAGE


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "prectune.cli", "dataset", "--benchmark", "saxpy",
             "--dataset-size", "20", "--shape", "n=64", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "saxpy_dataset.csv").exists()

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prectune.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("dataset", "train", "tune", "sweep", "transfer", "snap-hw", "oracle"):
            assert sub in proc.stdout
