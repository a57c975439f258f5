"""Model training: gradient correctness, optimizer steps, tree growth,
determinism, serialization."""

import json
import math

import numpy as np
import pytest

from builds import fresh_dataset
from oracles import train_mlp_per_array
from prectune.dataset import (
    Dataset,
    Sample,
    build_dataset,
    compute_error,
    error_sample,
    reference_output,
)
from prectune.kernels import gen_input_set, run_kernel
from prectune.solve import RunLedger
from prectune.learn import (
    ADAM_EPS,
    BETA1,
    BETA2,
    DTModel,
    InsufficientDataError,
    MLPModel,
    TrainConfig,
    _Adam,
    _grads,
    classify,
    eval_models,
    init_mlp,
    layer_sizes,
    load_classifier,
    load_regressor,
    predict_logerr,
    save_classifier,
    save_regressor,
    split_dataset,
    standardize_output,
    train_classifier,
    train_regressor,
    warm_epochs,
)


def synthetic_dataset(configs, log_errs=None, labels=None, lo=1, hi=52, benchmark="saxpy"):
    configs = np.atleast_2d(np.asarray(configs))
    n = configs.shape[0]
    if log_errs is None:
        log_errs = np.zeros(n)
    if labels is None:
        labels = np.zeros(n, dtype=int)
    samples = [
        Sample(tuple(int(v) for v in configs[i]), 0.0, float(log_errs[i]), int(labels[i]))
        for i in range(n)
    ]
    return Dataset(benchmark, lo, hi, 0, 0, {}, samples)


# --- gradient oracle ----------------------------------------------------------


def oracle_forward(weights, biases, x):
    a = x
    last = len(weights) - 1
    for l in range(len(weights)):
        z = a @ weights[l] + biases[l]
        a = z if l == last else np.where(z > 0.0, z, 0.0)
    return a[:, 0]


def oracle_loss(weights, biases, x, y):
    out = oracle_forward(weights, biases, x)
    return float(np.mean((out - y) ** 2))


class TestGradients:
    def test_loss_matches_oracle(self):
        rng = np.random.default_rng(0)
        model = init_mlp(3, 1, 52, seed=1)
        x = rng.random((8, 3))
        y = rng.normal(size=8)
        diff, _, _ = _grads(model.weights, model.biases, x, y)
        loss = float(np.mean(diff**2))
        assert loss == pytest.approx(oracle_loss(model.weights, model.biases, x, y), rel=1e-12)

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model = init_mlp(2, 1, 52, seed=3)
        # zero-init biases put dead-layer samples exactly on the ReLU kink,
        # where central differences measure the subgradient; jitter away
        for b in model.biases:
            b += rng.uniform(0.05, 0.2, b.shape)
        x = rng.random((6, 2))
        y = rng.normal(size=6)
        # keep every pre-activation clear of the kink so FD stays valid
        a = x
        for l, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = a @ w + b
            assert np.all(np.abs(z) > 1e-4)
            a = z if l == len(model.weights) - 1 else np.where(z > 0.0, z, 0.0)
        _, g_w, g_b = _grads(model.weights, model.biases, x, y)
        h = 1e-6
        params = list(model.weights) + list(model.biases)
        grads = list(g_w) + list(g_b)
        for p, g in zip(params, grads):
            flat_idx = rng.choice(p.size, size=min(p.size, 12), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, p.shape)
                orig = p[idx]
                p[idx] = orig + h
                up = oracle_loss(model.weights, model.biases, x, y)
                p[idx] = orig - h
                dn = oracle_loss(model.weights, model.biases, x, y)
                p[idx] = orig
                numeric = (up - dn) / (2 * h)
                assert g[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_gradient_zero_at_perfect_fit(self):
        # with zero weights everywhere and zero targets the output layer
        # gradient vanishes
        sizes = layer_sizes(2)
        weights = [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])]
        biases = [np.zeros(b) for b in sizes[1:]]
        x = np.array([[0.5, 0.5]])
        diff, g_w, g_b = _grads(weights, biases, x, np.zeros(1))
        assert float(np.mean(diff**2)) == 0.0
        assert all(np.all(g == 0.0) for g in g_w + g_b)


class TestAdam:
    def test_two_steps_scalar_quadratic(self):
        cfg = TrainConfig()
        theta = np.array([1.0])
        opt = _Adam([theta.shape], cfg)
        states = []
        m = v = 0.0
        ref = 1.0
        for t in (1, 2):
            g = 2.0 * ref
            opt.step([theta], [np.array([2.0 * theta[0]])])
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            ref = ref - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            states.append(theta[0])
            assert theta[0] == pytest.approx(ref, rel=0, abs=1e-15)
        # first step moves by almost exactly the learning rate
        assert states[0] == pytest.approx(1.0 - cfg.learning_rate, abs=1e-9)

    def test_descends_quadratic(self):
        cfg = TrainConfig()
        theta = np.array([1.0])
        opt = _Adam([theta.shape], cfg)
        for _ in range(2000):
            opt.step([theta], [np.array([2.0 * theta[0]])])
        assert abs(theta[0]) < 0.2


class TestInit:
    def test_layer_shapes(self):
        model = init_mlp(7, 1, 52, seed=0)
        assert [w.shape for w in model.weights] == [(7, 14), (14, 14), (14, 7), (7, 1)]
        assert [b.shape for b in model.biases] == [(14,), (14,), (7,), (1,)]

    def test_he_uniform_bounds_and_zero_biases(self):
        model = init_mlp(4, 1, 52, seed=5)
        sizes = layer_sizes(4)
        for w, fan_in in zip(model.weights, sizes):
            limit = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(w) <= limit)
            assert np.ptp(w) > limit  # actually spread out, not degenerate
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_seed_determinism(self):
        a = init_mlp(3, 1, 52, seed=2)
        b = init_mlp(3, 1, 52, seed=2)
        c = init_mlp(3, 1, 52, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))

    def test_normalization(self):
        model = init_mlp(2, 1, 52, seed=0)
        assert np.allclose(model.normalize(np.array([1.0, 52.0])), [0.0, 1.0])
        model_flat = init_mlp(2, 5, 5, seed=0)
        assert np.all(np.isfinite(model_flat.normalize(np.array([5.0, 5.0]))))


class TestTrainRegressor:
    def test_constant_target(self):
        rng = np.random.default_rng(1)
        configs = rng.integers(1, 53, size=(120, 3))
        ds = synthetic_dataset(configs, log_errs=np.full(120, 12.5))
        model = train_regressor(ds)
        preds = model.forward(configs.astype(float))
        assert np.all(np.abs(preds - 12.5) <= 0.05)

    def test_linear_target(self):
        rng = np.random.default_rng(2)
        configs = rng.integers(1, 53, size=(300, 2))
        target = 0.5 * configs.sum(axis=1) - 3.0
        ds = synthetic_dataset(configs, log_errs=target)
        model = train_regressor(ds)
        preds = model.forward(configs.astype(float))
        rmse = np.sqrt(np.mean((preds - target) ** 2))
        spread = target.max() - target.min()
        assert rmse / spread < 0.15

    def test_only_class_zero_used(self):
        # class-1 rows carry a poisoned target; training must ignore them
        configs = np.array([[10, 10], [20, 20], [30, 30], [40, 40], [5, 5], [45, 45]])
        log_errs = np.array([7.0, 7.0, 7.0, 7.0, -1000.0, -1000.0])
        labels = np.array([0, 0, 0, 0, 1, 1])
        ds = synthetic_dataset(configs, log_errs, labels)
        model = train_regressor(ds)
        preds = model.forward(configs[:4].astype(float))
        assert np.all(np.abs(preds - 7.0) < 1.0)

    def test_all_class_one_raises(self):
        ds = synthetic_dataset([[5, 5], [6, 6]], labels=[1, 1])
        with pytest.raises(InsufficientDataError):
            train_regressor(ds)

    def test_deterministic_bytes(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=60, shape={"n": 16}, seed_sample=4)
        m1 = train_regressor(ds, TrainConfig(epochs=20))
        m2 = train_regressor(ds, TrainConfig(epochs=20))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_regressor(m1, p1)
        save_regressor(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_model(self):
        ds = fresh_dataset("saxpy", n_samples=60, shape={"n": 16}, seed_sample=4)
        m1 = train_regressor(ds, TrainConfig(epochs=5, seed=0))
        m2 = train_regressor(ds, TrainConfig(epochs=5, seed=1))
        assert any(not np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_predict_logerr_scalar_and_batch(self):
        ds = fresh_dataset("saxpy", n_samples=40, shape={"n": 16})
        model = train_regressor(ds, TrainConfig(epochs=5))
        single = predict_logerr(model, [10, 20, 30])
        batch = predict_logerr(model, np.array([[10, 20, 30], [5, 5, 5]], dtype=float))
        assert isinstance(single, float)
        assert batch.shape == (2,)
        assert batch[0] == single


class TestFlatBufferAdam:
    """train_regressor updates all parameters as one flat buffer; the oracle
    does one Adam update per array, as the training loop first did."""

    @staticmethod
    def assert_matches_oracle(ds, cfg=TrainConfig()):
        keep = [s for s in ds.samples if s.class_label == 0]
        weights, biases = train_mlp_per_array(
            [s.config for s in keep], [s.log_err for s in keep], ds.nbit_lo, ds.nbit_hi,
            learning_rate=cfg.learning_rate, beta1=BETA1, beta2=BETA2,
            adam_eps=ADAM_EPS, epochs=cfg.epochs, batch_size=cfg.batch_size, seed=cfg.seed,
        )
        model = train_regressor(ds, cfg)
        assert len(model.weights) == len(weights) and len(model.biases) == len(biases)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert np.array_equal(got, want)
            assert got.flags.owndata

    @pytest.mark.parametrize("bench,n_var", [("fwt", 2), ("saxpy", 3), ("dwt", 7)])
    def test_bit_identical_to_per_array_adam(self, bench, n_var):
        ds = fresh_dataset(bench, n_samples=150, seed_sample=1)
        assert ds.n_var == n_var
        self.assert_matches_oracle(ds)

    def test_bit_identical_with_appended_misses(self):
        # the verify-retrain loop appends each verified miss to the dataset
        inp = gen_input_set("fwt", None, 3)
        ds = build_dataset(RunLedger(inp), n_samples=120, seed_sample=2)
        ref = reference_output("fwt", inp)
        for cfg in [(5, 5), (9, 12), (30, 30), (1, 1), (52, 52)]:
            ds.samples.append(error_sample(cfg, compute_error(run_kernel("fwt", inp, cfg), ref)))
        self.assert_matches_oracle(ds)
        self.assert_matches_oracle(ds, TrainConfig(learning_rate=0.01, epochs=20, batch_size=7, seed=3))


class TestWarmStart:
    """A retrain after the verify loop added samples resumes from the
    previous regressor."""

    @pytest.fixture(scope="class")
    def grown(self):
        # a fitted model, and its dataset grown by verified configs
        inp = gen_input_set("saxpy", {"n": 64}, 0)
        ds = build_dataset(RunLedger(inp), n_samples=120, seed_sample=1)
        model = train_regressor(ds, TrainConfig(epochs=20))
        ref = reference_output("saxpy", inp)
        for cfg in [(4, 9, 4), (12, 12, 20), (30, 2, 2)]:
            ds.samples.append(error_sample(cfg, compute_error(run_kernel("saxpy", inp, cfg), ref)))
        return ds, model

    def test_standardize_output_keeps_predictions(self, grown):
        ds, model = grown
        x = ds.configs().astype(np.float64)
        before = [a.copy() for a in model.weights + model.biases]
        for mu, sigma in [(0.0, 1.0), (3.7, 2.3), (-12.5, 0.04), (25.0, 40.0)]:
            std = standardize_output(model, mu, sigma)
            np.testing.assert_allclose(std.forward(x) * sigma + mu, model.forward(x), rtol=1e-12, atol=0)
            assert (std.input_lo, std.input_hi) == (model.input_lo, model.input_hi)
        # the start model is not touched
        for got, want in zip(model.weights + model.biases, before):
            assert np.array_equal(got, want)

    def test_warm_retrain_deterministic(self, grown):
        ds, model = grown
        cfg = TrainConfig(epochs=20)
        a = train_regressor(ds, cfg, start=model)
        b = train_regressor(ds, cfg, start=model)
        for got, want in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(got, want)
            assert got.flags.owndata
        # it trained, for the warm epochs only
        assert any(not np.array_equal(w, v) for w, v in zip(a.weights, model.weights))
        n_keep = sum(1 for s in ds.samples if s.class_label == 0)
        assert warm_epochs(cfg) == 2
        assert a.adam_steps == 2 * math.ceil(n_keep / cfg.batch_size)
        assert train_regressor(ds, cfg).adam_steps == 20 * math.ceil(n_keep / cfg.batch_size)

    def test_warm_epochs_at_least_one(self):
        assert warm_epochs(TrainConfig(epochs=5)) == 1
        assert warm_epochs(TrainConfig(epochs=100)) == 10

    def test_start_with_wrong_inputs_refused(self, grown):
        ds, _ = grown
        fwt = train_regressor(fresh_dataset("fwt", n_samples=40, seed_sample=0), TrainConfig(epochs=2))
        assert fwt.n_inputs == 2 and ds.n_var == 3
        with pytest.raises(ValueError, match="2 inputs"):
            train_regressor(ds, TrainConfig(epochs=2), start=fwt)


class TestTrainClassifier:
    def test_separable_structure(self):
        ds = synthetic_dataset([[1], [2], [3], [4]], labels=[1, 1, 0, 0])
        model = train_classifier(ds)
        assert model.root == {
            "feature": 0,
            "threshold": 2,
            "left": {"leaf": 1},
            "right": {"leaf": 0},
        }
        assert [classify(model, [v]) for v in (1, 2, 3, 4)] == [1, 1, 0, 0]

    def test_feature_tie_prefers_lowest(self):
        ds = synthetic_dataset([[1, 1], [2, 2]], labels=[1, 0])
        model = train_classifier(ds)
        assert model.root["feature"] == 0
        assert model.root["threshold"] == 1

    def test_threshold_tie_prefers_lowest(self):
        ds = synthetic_dataset([[1], [2], [3], [4]], labels=[1, 0, 1, 0])
        model = train_classifier(ds)
        assert model.root["feature"] == 0
        assert model.root["threshold"] == 1
        assert model.root["left"] == {"leaf": 1}

    def test_pure_dataset_single_leaf(self):
        ds = synthetic_dataset([[3, 4], [5, 6], [7, 8]], labels=[0, 0, 0])
        model = train_classifier(ds)
        assert model.root == {"leaf": 0}

    def test_majority_tie_goes_to_one(self):
        ds = synthetic_dataset([[5], [5]], labels=[0, 1])
        model = train_classifier(ds)
        assert model.root == {"leaf": 1}

    def test_depth_cap(self):
        ds = synthetic_dataset([[1], [2], [3], [4]], labels=[1, 0, 1, 0])
        model = train_classifier(ds, TrainConfig(max_depth=1))
        assert "feature" in model.root
        assert "leaf" in model.root["left"]
        assert "leaf" in model.root["right"]

    def test_zero_depth(self):
        ds = synthetic_dataset([[1], [2], [3]], labels=[1, 0, 0])
        model = train_classifier(ds, TrainConfig(max_depth=0))
        assert model.root == {"leaf": 0}

    def test_empty_dataset_raises(self):
        ds = synthetic_dataset(np.zeros((0, 2)))
        ds.samples = []
        with pytest.raises(InsufficientDataError):
            train_classifier(ds)

    def test_classify_matches_independent_walk(self):
        ds = fresh_dataset("fwt", n_samples=150, shape={"n": 64}, seed_sample=6)
        model = train_classifier(ds)

        def walk(node, cfg):
            if "leaf" in node:
                return node["leaf"]
            branch = "left" if cfg[node["feature"]] <= node["threshold"] else "right"
            return walk(node[branch], cfg)

        rng = np.random.default_rng(0)
        for cfg in rng.integers(1, 53, size=(50, 2)):
            assert classify(model, cfg) == walk(model.root, cfg)

    def test_fits_training_data_when_depth_allows(self):
        ds = fresh_dataset("fwt", n_samples=200, shape={"n": 64}, seed_sample=3)
        model = train_classifier(ds)
        labels = ds.class_labels()
        # integer inputs may collide with both labels; only demand near-fit
        preds = np.array([classify(model, s.config) for s in ds.samples])
        assert np.mean(preds == labels) >= 0.98


class TestEvalAndSplit:
    def test_eval_separable(self):
        ds = synthetic_dataset([[1], [2], [3], [4]], labels=[1, 1, 0, 0])
        clf = train_classifier(ds)
        metrics = eval_models(None, clf, ds)
        assert metrics["accuracy"] == 1.0
        assert metrics["confusion"] == {"tn": 2, "fp": 0, "fn": 0, "tp": 2}
        assert metrics["rmse"] is None

    def test_eval_regression_metrics(self):
        rng = np.random.default_rng(3)
        configs = rng.integers(1, 53, size=(200, 2))
        target = configs.sum(axis=1) / 4.0
        ds = synthetic_dataset(configs, log_errs=target)
        reg = train_regressor(ds)
        clf = train_classifier(ds)
        metrics = eval_models(reg, clf, ds)
        assert metrics["rmse"] >= 0.0
        assert 0.0 <= metrics["nrmse"] < 0.5
        assert metrics["accuracy"] == 1.0

    def test_split_partition(self):
        ds = fresh_dataset("saxpy", n_samples=50, shape={"n": 16}, seed_sample=1)
        train, hold = split_dataset(ds, 0.2, seed=0)
        assert len(hold.samples) == 10
        assert len(train.samples) == 40
        all_back = sorted(train.samples + hold.samples, key=lambda s: s.config)
        assert all_back == sorted(ds.samples, key=lambda s: s.config)

    def test_split_deterministic(self):
        ds = fresh_dataset("saxpy", n_samples=30, shape={"n": 16})
        t1, h1 = split_dataset(ds, 0.25, seed=5)
        t2, h2 = split_dataset(ds, 0.25, seed=5)
        t3, h3 = split_dataset(ds, 0.25, seed=6)
        assert t1.samples == t2.samples and h1.samples == h2.samples
        assert h1.samples != h3.samples

    def test_split_validation(self):
        ds = fresh_dataset("saxpy", n_samples=10, shape={"n": 16})
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split_dataset(ds, bad, seed=0)


class TestSerialization:
    def test_regressor_round_trip(self, tmp_path):
        ds = fresh_dataset("saxpy", n_samples=40, shape={"n": 16})
        model = train_regressor(ds, TrainConfig(epochs=10))
        path = tmp_path / "reg.json"
        save_regressor(model, path)
        back = load_regressor(path)
        probe = np.array([[10.0, 20.0, 30.0], [1.0, 1.0, 1.0]])
        assert back.forward(probe).tobytes() == model.forward(probe).tobytes()
        assert back.input_lo == model.input_lo and back.input_hi == model.input_hi

    def test_classifier_round_trip(self, tmp_path):
        ds = fresh_dataset("fwt", n_samples=100, shape={"n": 64})
        model = train_classifier(ds)
        path = tmp_path / "clf.json"
        save_classifier(model, path)
        back = load_classifier(path)
        assert back.root == model.root
        assert back.n_inputs == model.n_inputs

    def test_kind_check(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError):
            load_regressor(path)
        with pytest.raises(ValueError):
            load_classifier(path)
