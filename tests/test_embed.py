"""Box bounds: soundness of the regressor bound and the tightened hidden
ranges, exactness on points, and the tree's label boxes."""

import enum
import itertools

import numpy as np
import pytest

from builds import fresh_dataset
from oracles import interval_ranges, pre_activations
from prectune.dataset import build_dataset
from prectune.embed import DomainBox, dt_label_boxes, nn_bound_info, tighten_pre
from prectune.kernels import gen_input_set
from prectune.learn import (
    DTModel,
    MLPModel,
    TrainConfig,
    classify,
    train_classifier,
    train_regressor,
)
from prectune.solve import RunLedger


def random_box(rng, n_dims, lo=1, hi=52):
    a = rng.integers(lo, hi + 1, n_dims)
    b = rng.integers(lo, hi + 1, n_dims)
    return DomainBox(tuple(np.minimum(a, b).tolist()), tuple(np.maximum(a, b).tolist()))


def sample_in_box(rng, box, n):
    cols = [rng.integers(a, b + 1, n) for a, b in zip(box.lo, box.hi)]
    return np.stack(cols, axis=1)


@pytest.fixture(scope="module")
def fwt_models():
    ds = fresh_dataset("fwt", n_samples=400, shape={"n": 64}, seed_input=0, seed_sample=0)
    reg = train_regressor(ds, TrainConfig(epochs=30))
    clf = train_classifier(ds)
    return reg, clf


class TestDomainBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainBox((1, 2), (1,))
        with pytest.raises(ValueError):
            DomainBox((5,), (4,))

    def test_helpers(self):
        box = DomainBox((1, 4), (3, 4))
        assert box.n_dims == 2
        assert not box.is_singleton()
        assert box.contains((2, 4))
        assert not box.contains((2, 5))
        assert DomainBox((7, 9), (7, 9)).is_singleton()
        narrowed = box.with_dim(0, 2, 2)
        assert narrowed == DomainBox((2, 4), (2, 4))
        assert box == DomainBox((1, 4), (3, 4))  # original untouched


@pytest.fixture(scope="module", params=["saxpy", "dwt"])
def deep_models(request):
    bench = request.param
    inp = gen_input_set(bench, {"n": 128}, seed=0)
    ds = build_dataset(RunLedger(inp), n_samples=300, seed_sample=0)
    return train_regressor(ds, TrainConfig(epochs=30))


ABS_NET = MLPModel(
    # f(x) = relu(x) + relu(-x) = |x| with identity normalization
    weights=[np.array([[1.0, -1.0]]), np.array([[1.0], [1.0]])],
    biases=[np.zeros(2), np.zeros(1)],
    input_lo=0.0,
    input_hi=1.0,
)


class TestNNBounds:
    def test_hand_absolute_value_network(self):
        # one-dim box [-1, 2] in normalized space: the exact range is
        # [0, 2]; interval arithmetic loses the coupling between the two
        # relu branches and reaches 3, while the two chords sum to a line
        # whose maximum over the box is the exact 2
        box = DomainBox((-1,), (2,))
        lo, hi = interval_ranges(ABS_NET, box.lo, box.hi)[-1]
        assert (lo[0], hi[0]) == (0.0, 3.0)
        assert nn_bound_info(ABS_NET, [box.lo], [box.hi])[0][0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_singleton_is_exact(self):
        assert nn_bound_info(ABS_NET, [(-3,)], [(-3,)])[0][0] == 3.0

    def test_monte_carlo_containment(self, fwt_models):
        reg, _ = fwt_models
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = random_box(rng, 2)
            (ub,), _ = nn_bound_info(reg, [box.lo], [box.hi])
            outs = reg.forward(sample_in_box(rng, box, 200).astype(float))
            assert np.all(outs <= ub + 1e-12)


@pytest.fixture(scope="module", params=["saxpy", "dwt", "correlation"])
def batch_models(request):
    bench = request.param
    shape = {"series": 4, "points": 32} if bench == "correlation" else {"n": 128}
    inp = gen_input_set(bench, shape, seed=0)
    ds = build_dataset(RunLedger(inp), n_samples=300, seed_sample=0)
    return train_regressor(ds, TrainConfig(epochs=30))


class TestBatchedBounds:
    @staticmethod
    def mixed_boxes(rng, n_dims, count=40):
        # singletons, narrow and wide boxes and the whole domain, interleaved
        boxes = [DomainBox((1,) * n_dims, (52,) * n_dims)]
        for i in range(count):
            if i % 3 == 0:
                p = tuple(int(v) for v in rng.integers(1, 53, n_dims))
                boxes.append(DomainBox(p, p))
            elif i % 3 == 1:
                base = rng.integers(1, 49, n_dims)
                boxes.append(DomainBox(tuple(base.tolist()), tuple((base + rng.integers(0, 4, n_dims)).tolist())))
            else:
                boxes.append(random_box(rng, n_dims))
        return boxes

    def test_rows_match_single_box_calls(self, batch_models):
        reg = batch_models
        rng = np.random.default_rng(11)
        boxes = self.mixed_boxes(rng, reg.weights[0].shape[0])
        bounds, slacks = nn_bound_info(reg, [b.lo for b in boxes], [b.hi for b in boxes])
        assert bounds.shape == (len(boxes),) and slacks.shape == (len(boxes), boxes[0].n_dims)
        for box, bound, slack in zip(boxes, bounds, slacks):
            one, one_slack = nn_bound_info(reg, [box.lo], [box.hi])
            assert abs(bound - one[0]) <= 1e-12
            assert np.all(np.abs(slack - one_slack[0]) <= 1e-12)
            if box.is_singleton():
                assert np.all(slack == 0.0)
            outs = reg.forward(sample_in_box(rng, box, 200).astype(float))
            assert np.all(outs <= bound + 1e-12)

    def test_good_enough_keeps_every_prune_decision(self, batch_models):
        # rows settled early keep a looser bound, but only below good_enough,
        # and the rows left open get the full bound
        reg = batch_models
        rng = np.random.default_rng(12)
        boxes = self.mixed_boxes(rng, reg.weights[0].shape[0], count=60)
        lo, hi = [b.lo for b in boxes], [b.hi for b in boxes]
        full, _ = nn_bound_info(reg, lo, hi)
        cut = float(np.median(full))
        early, _ = nn_bound_info(reg, lo, hi, good_enough=cut)
        assert np.all(early >= full)
        assert np.array_equal(early < cut, full < cut)
        assert np.all(np.abs(early[early >= cut] - full[early >= cut]) <= 1e-12)


class TestTightenedRanges:
    def test_contain_sampled_pre_activations(self, deep_models):
        # the solver bounds the output through these ranges, so both ends
        # of every hidden layer must hold at sampled points
        reg = deep_models
        n_in = reg.weights[0].shape[0]
        rng = np.random.default_rng(8)
        narrowed_lo = narrowed_hi = 0
        for _ in range(150):
            box = random_box(rng, n_in)
            # a batch of one box
            pre = [(lo[None], hi[None]) for lo, hi in interval_ranges(reg, box.lo, box.hi)[:-1]]
            before = list(pre)
            lo_in, hi_in = reg.normalize(np.array([box.lo])), reg.normalize(np.array([box.hi]))
            tighten_pre(pre, reg.weights, reg.biases, lo_in, hi_in)
            zs = pre_activations(reg, sample_in_box(rng, box, 200))[:-1]
            assert len(pre) == len(zs) == len(reg.weights) - 1
            for (lo, hi), (lo0, hi0), z in zip(pre, before, zs):
                assert np.all(z >= lo - 1e-12) and np.all(z <= hi + 1e-12)
                assert np.all(lo >= lo0) and np.all(hi <= hi0)
                narrowed_lo += int(np.count_nonzero(lo > lo0))
                narrowed_hi += int(np.count_nonzero(hi < hi0))
        # the backward rewrite must actually tighten, at both ends
        assert narrowed_lo > 0 and narrowed_hi > 0


class BoxStatus(enum.Enum):
    ALL_ZERO = "all_zero"
    ALL_ONE = "all_one"
    MIXED = "mixed"


def label_status(model: DTModel, box: DomainBox) -> BoxStatus:
    """Which labels the box reaches, read off its label boxes."""
    if not dt_label_boxes(model, box, 1):
        return BoxStatus.ALL_ZERO
    if not dt_label_boxes(model, box, 0):
        return BoxStatus.ALL_ONE
    return BoxStatus.MIXED


HAND_TREE = DTModel(
    root={
        "feature": 0,
        "threshold": 2,
        "left": {"leaf": 1},
        "right": {
            "feature": 1,
            "threshold": 5,
            "left": {"leaf": 0},
            "right": {"leaf": 1},
        },
    },
    n_inputs=2,
    max_depth=20,
)


class TestDTBoxStatus:
    @pytest.mark.parametrize(
        "lo,hi,expected",
        [
            ((1, 1), (2, 9), BoxStatus.ALL_ONE),  # stays left of root
            ((3, 1), (9, 5), BoxStatus.ALL_ZERO),  # right of root, left of child
            ((3, 6), (9, 9), BoxStatus.ALL_ONE),  # right of both
            ((1, 1), (9, 5), BoxStatus.MIXED),  # straddles the root
            ((3, 1), (9, 9), BoxStatus.MIXED),  # straddles the child
            ((2, 2), (2, 2), BoxStatus.ALL_ONE),  # singleton
            ((3, 5), (3, 5), BoxStatus.ALL_ZERO),
        ],
    )
    def test_hand_tree(self, lo, hi, expected):
        assert label_status(HAND_TREE, DomainBox(lo, hi)) == expected

    def test_status_matches_exhaustive_labels(self, fwt_models):
        _, clf = fwt_models
        rng = np.random.default_rng(5)
        for _ in range(150):
            base = rng.integers(1, 49, 2)
            w = rng.integers(0, 4, 2)
            box = DomainBox(tuple(base.tolist()), tuple((base + w).tolist()))
            labels = {
                classify(clf, cfg)
                for cfg in itertools.product(
                    range(box.lo[0], box.hi[0] + 1), range(box.lo[1], box.hi[1] + 1)
                )
            }
            status = label_status(clf, box)
            if labels == {0}:
                assert status == BoxStatus.ALL_ZERO
            elif labels == {1}:
                assert status == BoxStatus.ALL_ONE
            else:
                assert status == BoxStatus.MIXED

    def test_singleton_matches_classify(self, fwt_models):
        _, clf = fwt_models
        rng = np.random.default_rng(6)
        for _ in range(200):
            cfg = rng.integers(1, 53, 2)
            status = label_status(clf, DomainBox(tuple(cfg.tolist()), tuple(cfg.tolist())))
            expected = BoxStatus.ALL_ONE if classify(clf, cfg) else BoxStatus.ALL_ZERO
            assert status == expected

    def test_pure_status_survives_shrinking(self, fwt_models):
        _, clf = fwt_models
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            box = random_box(rng, 2)
            status = label_status(clf, box)
            if status == BoxStatus.MIXED:
                continue
            d = int(rng.integers(0, 2))
            if box.lo[d] == box.hi[d]:
                continue
            inner = box.with_dim(d, box.lo[d] + 1, box.hi[d])
            assert label_status(clf, inner) == status
            checked += 1
        assert checked > 20
