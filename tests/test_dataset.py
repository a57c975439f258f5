"""Sampling, error metric, dataset construction and serialization."""

import json
import math

import numpy as np
import pytest

from prectune import dataset as D
from prectune import kernels as K
from builds import fresh_dataset
from oracles import samples_per_config
from prectune.dataset import (
    CLASS_THRESHOLD,
    Dataset,
    DatasetFormatError,
    Sample,
    build_dataset,
    compute_error,
    compute_errors,
    lhs_configs,
    load_dataset,
    log_error,
    error_sample,
    reference_output,
    save_dataset,
)
from prectune import solve
from prectune.solve import RunLedger


class TestLhsConfigs:
    def test_bounds_and_shape(self):
        cfgs = lhs_configs(200, 3, 1, 52, seed=0)
        assert cfgs.shape == (200, 3)
        assert cfgs.dtype == np.int64
        assert cfgs.min() >= 1 and cfgs.max() <= 52

    def test_deterministic(self):
        a = lhs_configs(50, 4, 4, 20, seed=7)
        b = lhs_configs(50, 4, 4, 20, seed=7)
        c = lhs_configs(50, 4, 4, 20, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_exact_cover_when_samples_equal_width(self):
        # one sample per stratum and one integer per stratum: each column
        # must be a permutation of the whole range
        lo, hi = 4, 12
        n = hi - lo + 1
        cfgs = lhs_configs(n, 5, lo, hi, seed=3)
        for d in range(5):
            assert sorted(cfgs[:, d].tolist()) == list(range(lo, hi + 1))

    def test_exact_multiplicity_when_samples_multiple_of_width(self):
        lo, hi, k = 1, 8, 5
        width = hi - lo + 1
        cfgs = lhs_configs(k * width, 3, lo, hi, seed=1)
        for d in range(3):
            vals, counts = np.unique(cfgs[:, d], return_counts=True)
            assert vals.tolist() == list(range(lo, hi + 1))
            assert np.all(counts == k)

    def test_near_uniform_cover_large_n(self):
        cfgs = lhs_configs(1000, 2, 1, 52, seed=5)
        for d in range(2):
            vals, counts = np.unique(cfgs[:, d], return_counts=True)
            assert vals.tolist() == list(range(1, 53))
            # 1000/52 = 19.23 draws per value; stratum straddling moves at most
            # a couple of draws across a value boundary
            assert counts.min() >= 15 and counts.max() <= 25

    def test_validation(self):
        with pytest.raises(ValueError):
            lhs_configs(0, 2, 1, 52, seed=0)
        with pytest.raises(ValueError):
            lhs_configs(10, 2, 0, 52, seed=0)
        with pytest.raises(ValueError):
            lhs_configs(10, 2, 8, 4, seed=0)
        with pytest.raises(ValueError):
            lhs_configs(10, 2, 1, 53, seed=0)


class TestErrorMetric:
    def test_identical_outputs(self):
        ref = np.array([1.0, -2.0, 3.5])
        assert compute_error(ref.copy(), ref) == 0.0

    def test_hand_value(self):
        assert compute_error(np.array([2.5]), np.array([2.0])) == 0.0625

    def test_max_over_elements(self):
        out = np.array([1.5, 1.25])
        ref = np.array([1.0, 1.0])
        assert compute_error(out, ref) == 0.25

    def test_tiny_reference_floor(self):
        out = np.array([2.0**-30])
        ref = np.array([0.0])
        assert compute_error(out, ref) == (2.0**-30) ** 2 / 1e-60

    def test_nonfinite_output(self):
        ref = np.array([1.0, 1.0])
        assert compute_error(np.array([np.inf, 1.0]), ref) == math.inf
        assert compute_error(np.array([1.0, np.nan]), ref) == math.inf
        assert compute_error(np.array([-np.inf, 1.0]), ref) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_error(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            compute_errors(np.zeros((2, 3)), np.zeros(4))

    @staticmethod
    def row_error(out, ref) -> float:
        # the one-output-at-a-time metric the batched one must reproduce
        if not np.all(np.isfinite(out)):
            return math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            worst = float(np.max((out - ref) ** 2 / np.maximum(ref**2, 1e-60)))
        return worst if worst == worst else math.inf

    @pytest.mark.parametrize("ref", [
        np.array([1.0, -2.0, 3.5, 0.0, 1e-200]),
        np.array([1.0, -1.7e308, 3.5, 0.0, math.inf]),
    ], ids=["finite", "huge-and-inf"])
    def test_rows_match_one_at_a_time(self, ref):
        rng = np.random.default_rng(0)
        outs = ref * (1.0 + rng.uniform(-1e-3, 1e-3, (8, ref.size)))
        outs[0] = ref
        outs[1, 2] = math.nan
        outs[2, 0] = -math.inf
        outs[3, 1] = 1.7e308  # overflows the square, finite output
        outs[4] = 0.0
        errors = compute_errors(outs, ref)
        assert errors.shape == (8,)
        for out, err in zip(outs, errors):
            assert np.float64(err).tobytes() == np.float64(self.row_error(out, ref)).tobytes()
            assert compute_error(out, ref) == err
        assert not np.isnan(errors).any()

    def test_log_error_caps(self):
        assert log_error(0.0) == 40.0
        assert log_error(math.inf) == -40.0
        assert log_error(1.0) == 0.0
        assert abs(log_error(1e-10) - 10.0) < 1e-12
        assert abs(log_error(100.0) + 2.0) < 1e-12
        assert log_error(1e-50) == 40.0


class TestMakeSample:
    def test_full_precision_sample(self):
        inp = K.gen_input_set("saxpy", {"n": 32}, seed=0)
        ref = reference_output("saxpy", inp)
        s = error_sample([52, 52, 52], compute_error(K.run_kernel("saxpy", inp, [52, 52, 52]), ref))
        assert s.error == 0.0
        assert s.log_err == 40.0
        assert s.class_label == 0
        assert s.config == (52, 52, 52)

    def test_low_precision_sample(self):
        inp = K.gen_input_set("saxpy", {"n": 32}, seed=0)
        ref = reference_output("saxpy", inp)
        s = error_sample([3, 3, 3], compute_error(K.run_kernel("saxpy", inp, [3, 3, 3]), ref))
        assert 0.0 < s.error
        assert s.log_err == log_error(s.error)
        assert s.class_label == int(s.error > CLASS_THRESHOLD)

    def test_class_one_on_blowup(self):
        # fwt at one bit loses everything to cancellation
        inp = K.gen_input_set("fwt", {"n": 64}, seed=1)
        ref = reference_output("fwt", inp)
        s = error_sample([1, 1], compute_error(K.run_kernel("fwt", inp, [1, 1]), ref))
        assert s.class_label == 1


class TestErrorSample:
    def test_class_threshold(self):
        assert error_sample((3, 4), CLASS_THRESHOLD).class_label == 0
        assert error_sample((3, 4), math.nextafter(CLASS_THRESHOLD, 1.0)).class_label == 1
        s = error_sample(np.array([3, 4]), math.inf)
        assert s == D.Sample((3, 4), math.inf, -40.0, 1)
        assert type(s.config[0]) is int

    def test_fields(self):
        s = error_sample([7, 8, 9], 1e-10)
        assert s.config == (7, 8, 9)
        assert s.error == 1e-10 and s.log_err == log_error(1e-10) and s.class_label == 0


BATCH_SHAPES = {
    "fwt": {"n": 64},
    "saxpy": {"n": 40},
    "convolution": {"rows": 14, "cols": 16},
    "dwt": {"n": 64},
    "correlation": {"series": 4, "points": 16},
    "bscholes": {"n": 16},
    "jacobi": {"side": 6, "iters": 3},
}


class TestBatchedBuild:
    """build_dataset measures its configs through the run ledger, which runs
    them in batches; the per-config loop in oracles.py must give the same
    samples, whatever the batch size."""

    @pytest.mark.parametrize("name", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("budget", [1, 300, 1 << 14, solve.BATCH_ELEMENTS])
    def test_matches_per_config_build(self, name, budget, monkeypatch):
        inp = K.gen_input_set(name, BATCH_SHAPES[name], 3)
        calls = []

        def counted(bench, input_set, config, **kwargs):
            calls.append(np.shape(config))
            return K.run_kernel(bench, input_set, config, **kwargs)

        monkeypatch.setattr(solve, "BATCH_ELEMENTS", budget)
        monkeypatch.setattr(solve, "run_kernel", counted)
        monkeypatch.setattr(D, "run_kernel", counted)
        ds = build_dataset(solve.RunLedger(inp), n_samples=37, seed_sample=5)
        values = sum(np.size(a) for a in inp.arrays.values())
        step = max(1, budget // values)
        n_var = K.get_benchmark(name).n_var
        configs = D.lhs_configs(37, n_var, 1, 52, 5)
        # the distinct configs the fresh ledger lacks: all but the reference
        new = len({tuple(c) for c in configs.tolist()} - {(52,) * n_var})
        # the reference run, then the batches
        assert calls == [(n_var,)] + [(min(step, new - i), n_var) for i in range(0, new, step)]

        ref = reference_output(name, inp)
        want = samples_per_config(lambda c: K.run_kernel(name, inp, c), configs, ref)
        assert [(s.config, s.error, s.log_err, s.class_label) for s in ds.samples] == want

    def test_class_one_samples_survive_batching(self):
        inp = K.gen_input_set("fwt", {"n": 64}, seed=1)
        ds = build_dataset(RunLedger(inp), n_samples=60, seed_sample=0)
        ref = reference_output("fwt", inp)
        want = samples_per_config(lambda c: K.run_kernel("fwt", inp, c), ds.configs(), ref)
        assert any(row[3] == 1 for row in want)
        assert [(s.config, s.error, s.log_err, s.class_label) for s in ds.samples] == want


class TestBuildThroughLedger:
    def test_each_distinct_config_runs_once(self):
        # the seed-0 draw of 1000 fwt configs over [1, 52] holds 845
        # distinct ones
        ledger = RunLedger(K.gen_input_set("fwt", None, 0))
        ds = build_dataset(ledger, n_samples=1000, seed_sample=0)
        configs = {s.config for s in ds.samples}
        assert len(ds.samples) == 1000
        assert ledger.runs == len(configs) == 845
        assert all(ledger.errors[s.config] == s.error for s in ds.samples)
        # a sampled config is read, not run again
        ledger.error(ds.samples[0].config)
        assert ledger.runs == 845

    def test_fields_come_from_the_ledger_input_set(self):
        inp = K.gen_input_set("saxpy", {"n": 16}, seed=4)
        ds = build_dataset(RunLedger(inp), n_samples=5, nbit_lo=3, nbit_hi=9, seed_sample=2)
        assert (ds.benchmark, ds.shape, ds.seed_input) == ("saxpy", {"n": 16}, 4)
        assert (ds.nbit_lo, ds.nbit_hi, ds.seed_sample) == (3, 9, 2)


class TestBuildDataset:
    def test_shape_and_determinism(self):
        ds1 = fresh_dataset("saxpy", n_samples=40, shape={"n": 32}, seed_input=2, seed_sample=3)
        ds2 = fresh_dataset("saxpy", n_samples=40, shape={"n": 32}, seed_input=2, seed_sample=3)
        ds3 = fresh_dataset("saxpy", n_samples=40, shape={"n": 32}, seed_input=2, seed_sample=4)
        assert len(ds1.samples) == 40
        assert ds1.samples == ds2.samples
        assert ds1.samples != ds3.samples
        assert ds1.configs().shape == (40, 3)
        assert ds1.benchmark == "saxpy"
        assert ds1.shape == {"n": 32}

    def test_box_respected(self):
        ds = fresh_dataset("saxpy", n_samples=30, nbit_lo=6, nbit_hi=14, shape={"n": 16})
        cfgs = ds.configs()
        assert cfgs.min() >= 6 and cfgs.max() <= 14

    def test_reference_is_binary64_even_for_small_box(self):
        # errors are measured against the 52-bit run even when the sampled
        # box tops out lower
        inp = K.gen_input_set("saxpy", {"n": 16}, seed=5)
        ds = build_dataset(RunLedger(inp), n_samples=10, nbit_lo=4, nbit_hi=8, seed_sample=1)
        ref = reference_output("saxpy", inp)
        s = ds.samples[0]
        out = K.run_kernel("saxpy", inp, s.config)
        assert s.error == compute_error(out, ref)
        assert s.error > 0.0

    def test_column_accessors(self):
        ds = fresh_dataset("saxpy", n_samples=12, shape={"n": 16})
        assert np.array([s.log_err for s in ds.samples]).shape == (12,)
        assert ds.class_labels().shape == (12,)
        assert set(np.unique(ds.class_labels())) <= {0, 1}

    def test_all_positive_kernel_has_no_class_one(self):
        ds = fresh_dataset("saxpy", n_samples=200, shape={"n": 64}, seed_sample=9)
        assert int(ds.class_labels().sum()) == 0

    def test_cancellation_kernel_has_class_one(self):
        ds = fresh_dataset("bscholes", n_samples=200, shape={"n": 64}, seed_sample=9)
        assert int(ds.class_labels().sum()) > 0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=25, shape={"n": 16}, seed_input=1, seed_sample=2)
        path = tmp_path / "saxpy.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.benchmark == ds.benchmark
        assert back.nbit_lo == ds.nbit_lo and back.nbit_hi == ds.nbit_hi
        assert back.seed_input == ds.seed_input and back.seed_sample == ds.seed_sample
        assert back.shape == ds.shape
        assert back.samples == ds.samples  # repr round-trips floats exactly

    def test_round_trip_with_inf_error(self, tmp_path):
        inp = K.gen_input_set("fwt", {"n": 64}, seed=1)
        ref = reference_output("fwt", inp)
        s = error_sample([1, 1], compute_error(K.run_kernel("fwt", inp, [1, 1]), ref))
        ds = Dataset("fwt", 1, 52, 1, 0, {"n": 64}, [s])
        path = tmp_path / "fwt.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.samples == ds.samples

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("w0,w1,w2,error,log_err,class\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key", ["benchmark", "nbit_lo", "nbit_hi", "seed_input", "seed_sample", "shape", "n_samples"]
    )
    def test_sidecar_missing_key_named(self, tmp_path, key):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        sidecar = tmp_path / "ds.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match=repr(key)):
            load_dataset(path)

    @pytest.mark.parametrize("key,value", [
        ("benchmark", None),
        ("benchmark", 3),
        ("nbit_lo", None),
        ("nbit_lo", 1.5),
        ("nbit_hi", "52"),
        ("nbit_hi", True),
        ("seed_input", None),
        ("seed_input", 0.0),
        ("seed_sample", "7"),
        ("seed_sample", False),
        ("shape", None),
        ("shape", [16]),
        ("shape", {"n": "16"}),
        ("shape", {"n": 16.0}),
        ("shape", {"n": True}),
        ("n_samples", None),
        ("n_samples", 3.0),
    ])
    def test_sidecar_bad_value_named(self, tmp_path, key, value):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        sidecar = tmp_path / "ds.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match=repr(key)):
            load_dataset(path)

    def test_sidecar_not_an_object(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        (tmp_path / "ds.csv.meta.json").write_text("5\n")
        with pytest.raises(DatasetFormatError, match="not a JSON object"):
            load_dataset(path)

    def test_bad_column_count_reports_line(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "bad.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = "1,2,3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=":3:"):
            load_dataset(path)

    def test_bad_float_reports_line(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "bad.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[3] = "not-a-number"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=":4:"):
            load_dataset(path)

    def test_sample_count_mismatch(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=4, shape={"n": 16})
        path = tmp_path / "short.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError, match="promises"):
            load_dataset(path)

    @pytest.mark.parametrize("meta_update,key", [
        ({"nbit_lo": -5}, "nbit_lo"),
        ({"nbit_lo": 0}, "nbit_lo"),
        ({"nbit_hi": 53}, "nbit_hi"),
        ({"nbit_hi": 99}, "nbit_hi"),
        ({"nbit_lo": 30, "nbit_hi": 20}, "nbit_lo"),
    ])
    def test_sidecar_bad_width_box_named(self, tmp_path, meta_update, key):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        sidecar = tmp_path / "ds.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta.update(meta_update)
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError, match=repr(key)):
            load_dataset(path)

    @staticmethod
    def with_widths(tmp_path, widths):
        """A saxpy dataset over the box [5, 20] whose line 4 has the given
        widths."""
        ds = fresh_dataset("saxpy", n_samples=3, nbit_lo=5, nbit_hi=20, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = widths + "," + lines[3].split(",", 3)[3]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("widths", ["99,5,5", "5,0,5", "4,5,5", "5,5,21"])
    def test_width_outside_box_reports_line(self, tmp_path, widths):
        path = self.with_widths(tmp_path, widths)
        with pytest.raises(DatasetFormatError, match=r":4: widths .* outside the sidecar's \[5, 20\]"):
            load_dataset(path)

    def test_widths_on_the_box_edges_load(self, tmp_path):
        assert load_dataset(self.with_widths(tmp_path, "5,20,5")).samples[2].config == (5, 20, 5)

    @pytest.mark.parametrize("label", ["7", "-1", "2"])
    def test_class_not_zero_or_one_reports_line(self, tmp_path, label):
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "bad.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + label
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f":3: class {label} is not 0 or 1"):
            load_dataset(path)

    @staticmethod
    def with_tail(tmp_path, tail):
        """A saved saxpy dataset whose line 3 keeps its widths and ends in
        tail, its error, log_err and class columns."""
        ds = fresh_dataset("saxpy", n_samples=3, shape={"n": 16})
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3] + [tail])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("tail,named", [
        ("0.001,35.0,1", "log_err 35.0 and class 1 disagree with error 0.001"),
        ("0.001,35.0,0", "log_err 35.0 and class 0 disagree with error 0.001"),
        ("0.001,3.0,1", "log_err 3.0 and class 1 disagree with error 0.001"),
        ("inf,-40.0,0", "log_err -40.0 and class 0 disagree with error inf"),
        ("nan,nan,0", "error nan is not a number >= 0"),
        ("nan,3.0,0", "error nan is not a number >= 0"),
        ("-0.5,40.0,0", "error -0.5 is not a number >= 0"),
    ])
    def test_row_contradicting_its_error_reports_line(self, tmp_path, tail, named):
        with pytest.raises(DatasetFormatError, match=":3: " + named):
            load_dataset(self.with_tail(tmp_path, tail))

    @pytest.mark.parametrize("error", [0.0, 1e-3, 0.95, math.inf])
    def test_row_agreeing_with_its_error_loads(self, tmp_path, error):
        s = error_sample((1, 1, 1), error)
        path = self.with_tail(tmp_path, f"{s.error!r},{s.log_err!r},{s.class_label}")
        loaded = load_dataset(path).samples[1]
        assert (loaded.error, loaded.log_err, loaded.class_label) == (s.error, s.log_err, s.class_label)

    def test_loaded_rows_are_rebuilt_from_their_errors(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=40, shape={"n": 16}, seed_input=3)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path).samples
        assert back == [error_sample(s.config, s.error) for s in ds.samples] == ds.samples
