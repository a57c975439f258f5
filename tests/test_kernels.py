"""Kernel behavior: slot counts, slot rules, full-precision fidelity,
input generation, validation errors, serialization."""

import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prectune import kernels as K
from prectune import solve
from prectune.kernels import ConfigError, InputSet, InvalidShapeError, UnknownBenchmarkError

from prectune.dataset import lhs_configs
from prectune.flexnum import FormatBatch, round_to_format
from prectune.solve import RunLedger, dependency_consistent, fptuning_baseline

from builds import fresh_dataset
from oracles import KERNEL_REFS, ROUNDED_KERNELS

EXPECTED_N_VAR = {
    "fwt": 2,
    "saxpy": 3,
    "convolution": 4,
    "dwt": 7,
    "correlation": 7,
    "bscholes": 15,
    "jacobi": 25,
}

ALL_BENCHMARKS = sorted(EXPECTED_N_VAR)

SMALL_SHAPES = {
    "fwt": {"n": 64},
    "saxpy": {"n": 64},
    "convolution": {"rows": 16, "cols": 16},
    "dwt": {"n": 64},
    "correlation": {"series": 4, "points": 32},
    "bscholes": {"n": 32},
    "jacobi": {"side": 8, "iters": 4},
}

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


@pytest.fixture(scope="module")
def reference():
    """perfbench/reference.py, loaded unchanged."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def full_config(name):
    return [52] * K.get_benchmark(name).n_var


class TestDescriptors:
    def test_benchmark_list(self):
        assert K.list_benchmarks() == ALL_BENCHMARKS

    @pytest.mark.parametrize("name,n", sorted(EXPECTED_N_VAR.items()))
    def test_slot_counts(self, name, n):
        desc = K.get_benchmark(name)
        assert desc.n_var == n
        assert len(desc.slot_names) == n
        assert len(set(desc.slot_names)) == n

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_edge_invariants(self, name):
        desc = K.get_benchmark(name)
        for sources, dst in desc.casts:
            assert 0 <= dst < desc.n_var
            assert all(0 <= s < desc.n_var for s in sources)
            assert len(sources) >= 2
            # a staged expression never feeds itself
            assert dst not in sources
        for rule in desc.assignments:
            assert len(rule) == 2
            src, dst = rule
            assert 0 <= src < desc.n_var and 0 <= dst < desc.n_var
            assert src != dst

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_cast_destinations_unique(self, name):
        # each cast-constrained slot is pinned by exactly one equality
        desc = K.get_benchmark(name)
        dests = [dst for _, dst in desc.casts]
        assert len(dests) == len(set(dests))

    def test_descriptor_refuses_casts_out_of_order(self):
        # one pass of solve.settle_casts is enough only when no cast reads a
        # slot a later cast writes, and no slot is written by two casts
        names = ("a", "b", "c", "d", "e")
        K.BenchmarkDescriptor("ordered", names, (((0, 1), 2), ((2, 3), 4)), ())
        with pytest.raises(ValueError, match="reversed: .*later cast"):
            K.BenchmarkDescriptor("reversed", names, (((2, 3), 4), ((0, 1), 2)), ())
        with pytest.raises(ValueError, match="twice: .*two casts"):
            K.BenchmarkDescriptor("twice", names, (((0, 1), 2), ((0, 3), 2)), ())
        with pytest.raises(ValueError, match="self: .*its own result"):
            K.BenchmarkDescriptor("self", names, (((0, 2), 2),), ())
        for casts, assignments, slot in [
            ((((0, 5), 2),), (), 5),
            ((((0, 1), 5),), (), 5),
            ((), ((0, 5),), 5),
            ((), ((-1, 0),), -1),
        ]:
            with pytest.raises(ValueError, match=f"wide: slot {slot} out of range"):
                K.BenchmarkDescriptor("wide", names, casts, assignments)

    def test_cast_destination_sets(self):
        def cast_destinations(name):
            return {dst for _, dst in K.get_benchmark(name).casts}

        assert cast_destinations("saxpy") == {2}
        assert cast_destinations("fwt") == {1}
        assert cast_destinations("convolution") == {2}
        assert cast_destinations("dwt") == set()
        assert cast_destinations("correlation") == {2, 6}
        assert cast_destinations("bscholes") == {5, 7, 8, 9, 10, 13, 14}
        assert cast_destinations("jacobi") == set(range(5, 25))
        for name in ALL_BENCHMARKS:
            desc = K.get_benchmark(name)
            assert desc.free == tuple(sorted(set(range(desc.n_var)) - cast_destinations(name)))

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_rules_match_the_benchmark_reference(self, name, reference):
        # perfbench/reference.py transcribes the slot rules apart from the
        # program, and the benchmark checks its results against them
        desc = K.get_benchmark(name)
        assert desc.n_var == reference.SLOTS[name]
        assert set(desc.casts) == set(reference.CAST[name])
        assert set(desc.assignments) == set(reference.ASSIGN[name])

    def test_unknown_benchmark(self):
        with pytest.raises(UnknownBenchmarkError):
            K.get_benchmark("fft")
        with pytest.raises(UnknownBenchmarkError):
            K.gen_input_set("fft")

    def test_edge_constructor_validation(self):
        names = ("a", "b", "c")
        with pytest.raises(ValueError):
            K.BenchmarkDescriptor("pair", names, (), ((0, 1, 2),))
        with pytest.raises(ValueError, match="single: .*fewer than two sources"):
            K.BenchmarkDescriptor("single", names, (((0,), 1),), ())


class TestInputGeneration:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_deterministic(self, name):
        a = K.gen_input_set(name, seed=3)
        b = K.gen_input_set(name, seed=3)
        c = K.gen_input_set(name, seed=4)
        for key in a.arrays:
            assert np.array_equal(np.asarray(a.arrays[key]), np.asarray(b.arrays[key]))
        assert any(
            not np.array_equal(np.asarray(a.arrays[k]), np.asarray(c.arrays[k]))
            for k in a.arrays
        )

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_default_shapes(self, name):
        inp = K.gen_input_set(name, seed=0)
        assert inp.benchmark == name
        assert inp.shape == K.get_benchmark(name).default_shape

    def test_generic_value_range(self):
        inp = K.gen_input_set("saxpy", seed=11)
        for key in ("x", "y"):
            arr = inp.arrays[key]
            assert np.all(arr >= 0.1) and np.all(arr < 10.0)
        assert 0.1 <= float(inp.arrays["a"]) < 10.0

    def test_bscholes_value_ranges(self):
        inp = K.gen_input_set("bscholes", seed=11)
        bounds = {
            "spot": (10.0, 100.0),
            "strike": (10.0, 100.0),
            "rate": (0.01, 0.05),
            "volatility": (0.1, 0.5),
            "maturity": (0.25, 2.0),
        }
        for key, (lo, hi) in bounds.items():
            arr = inp.arrays[key]
            assert np.all(arr >= lo) and np.all(arr < hi)

    def test_shape_override(self):
        inp = K.gen_input_set("fwt", {"n": 256}, seed=0)
        assert inp.arrays["x"].shape == (256,)
        assert inp.shape == {"n": 256}

    def test_unknown_shape_key(self):
        with pytest.raises(InvalidShapeError):
            K.gen_input_set("fwt", {"length": 256})

    @pytest.mark.parametrize(
        "name,shape",
        [
            ("fwt", {"n": 48}),
            ("fwt", {"n": 1}),
            ("saxpy", {"n": 0}),
            ("convolution", {"rows": 8}),
            ("convolution", {"cols": 10}),
            ("dwt", {"n": 12}),
            ("dwt", {"n": 0}),
            ("correlation", {"series": 1}),
            ("correlation", {"points": 1}),
            ("bscholes", {"n": 0}),
            ("jacobi", {"side": 1}),
            ("jacobi", {"iters": 0}),
        ],
    )
    def test_invalid_shapes(self, name, shape):
        with pytest.raises(InvalidShapeError):
            K.gen_input_set(name, shape)


class TestRunValidation:
    def test_config_length(self):
        inp = K.gen_input_set("saxpy", SMALL_SHAPES["saxpy"])
        with pytest.raises(ConfigError):
            K.run_kernel("saxpy", inp, [52, 52])
        with pytest.raises(ConfigError):
            K.run_kernel("saxpy", inp, [52] * 4)

    def test_config_range(self):
        inp = K.gen_input_set("saxpy", SMALL_SHAPES["saxpy"])
        with pytest.raises(ConfigError):
            K.run_kernel("saxpy", inp, [0, 52, 52])
        with pytest.raises(ConfigError):
            K.run_kernel("saxpy", inp, [52, 53, 52])

    def test_non_integer_widths(self):
        inp = K.gen_input_set("saxpy", SMALL_SHAPES["saxpy"])
        for bad in ([20.9, 20, 20], [True, True, True], [52, 52, math.nan], [52, 52, math.inf],
                    ["52", "52", "52"], [[52, 52, 52], [52, 20.5, 52]]):
            with pytest.raises(ConfigError, match="integers"):
                K.run_kernel("saxpy", inp, bad)
        # integral values of any numeric type are widths all the same
        want = K.run_kernel("saxpy", inp, [20, 52, 20])
        for same in ([20.0, 52.0, 20.0], np.array([20, 52, 20], dtype=np.uint8)):
            assert K.run_kernel("saxpy", inp, same).tobytes() == want.tobytes()

    def test_mismatched_input_set(self):
        inp = K.gen_input_set("saxpy", SMALL_SHAPES["saxpy"])
        with pytest.raises(ConfigError):
            K.run_kernel("fwt", inp, [52, 52])

    def test_batch_shape(self):
        inp = K.gen_input_set("saxpy", SMALL_SHAPES["saxpy"])
        for bad in (np.full((2, 2), 52), np.full((0, 3), 52), np.full((1, 2, 3), 52)):
            with pytest.raises(ConfigError):
                K.run_kernel("saxpy", inp, bad)
        with pytest.raises(ConfigError):
            K.run_kernel("saxpy", inp, [[52, 52, 52], [52, 0, 52]])


class TestFullPrecisionFidelity:
    """At 52 mantissa bits every rounding is the identity, so the tuned
    kernel must reproduce the unrounded reference bit for bit."""

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_reference(self, name, seed):
        inp = K.gen_input_set(name, SMALL_SHAPES[name], seed=seed)
        out = K.run_kernel(name, inp, full_config(name))
        ref = KERNEL_REFS[name](inp)
        assert out.dtype == np.float64
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_default_shape_bit_identical(self, name):
        inp = K.gen_input_set(name, seed=5)
        out = K.run_kernel(name, inp, full_config(name))
        ref = KERNEL_REFS[name](inp)
        assert out.tobytes() == ref.tobytes()


class TestRunBehavior:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_deterministic_and_pure(self, name):
        inp = K.gen_input_set(name, SMALL_SHAPES[name], seed=9)
        before = {k: np.array(v, copy=True) for k, v in inp.arrays.items()}
        cfg = [7] * K.get_benchmark(name).n_var
        out1 = K.run_kernel(name, inp, cfg)
        out2 = K.run_kernel(name, inp, cfg)
        assert out1.tobytes() == out2.tobytes()
        for k in before:
            assert np.array_equal(np.asarray(inp.arrays[k]), before[k])

    def test_output_lengths(self):
        cases = {
            "fwt": 64,
            "saxpy": 64,
            "convolution": 6 * 6,
            "dwt": 64,
            "correlation": 4 * 4,
            "bscholes": 32,
            "jacobi": 8 * 8,
        }
        for name, n_out in cases.items():
            inp = K.gen_input_set(name, SMALL_SHAPES[name])
            out = K.run_kernel(name, inp, full_config(name))
            assert out.shape == (n_out,), name

    def test_narrow_config_changes_output(self):
        inp = K.gen_input_set("fwt", SMALL_SHAPES["fwt"], seed=2)
        full = K.run_kernel("fwt", inp, [52, 52])
        narrow = K.run_kernel("fwt", inp, [4, 4])
        assert not np.array_equal(full, narrow)


class TestHandCases:
    def test_fwt_four_points(self):
        inp = InputSet("fwt", {"x": np.array([1.0, 2.0, 3.0, 4.0])}, seed=0, shape={"n": 4})
        out = K.run_kernel("fwt", inp, [52, 52])
        assert out.tolist() == [10.0, -2.0, -4.0, 0.0]

    def test_saxpy_two_bit_rounding(self):
        # a*x = 2.25 ties to 2.0 at two mantissa bits, then 2.0+0.25 again
        inp = InputSet(
            "saxpy",
            {"x": np.array([1.5]), "y": np.array([0.25]), "a": np.float64(1.5)},
            seed=0,
            shape={"n": 1},
        )
        out = K.run_kernel("saxpy", inp, [2, 2, 2])
        assert out.tolist() == [2.0]

    def test_saxpy_full_precision_formula(self):
        inp = InputSet(
            "saxpy",
            {"x": np.array([1.5]), "y": np.array([0.25]), "a": np.float64(1.5)},
            seed=0,
            shape={"n": 1},
        )
        out = K.run_kernel("saxpy", inp, [52, 52, 52])
        assert out.tolist() == [2.5]

    def test_convolution_all_ones(self):
        inp = InputSet(
            "convolution",
            {"image": np.ones((11, 11)), "weights": np.ones((11, 11))},
            seed=0,
            shape={"rows": 11, "cols": 11},
        )
        out = K.run_kernel("convolution", inp, [52] * 4)
        assert out.tolist() == [121.0]

    def test_convolution_narrow_accumulator_stagnates(self):
        # at one mantissa bit the accumulator sticks at a power of two
        inp = InputSet(
            "convolution",
            {"image": np.ones((11, 11)), "weights": np.ones((11, 11))},
            seed=0,
            shape={"rows": 11, "cols": 11},
        )
        out = K.run_kernel("convolution", inp, [52, 52, 52, 1])
        v = out[0]
        assert v < 121.0
        assert math.frexp(v)[0] == 0.5  # exact power of two

    def test_dwt_constant_pairs_zero_detail(self):
        x = np.array([1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0])
        inp = InputSet("dwt", {"x": x}, seed=0, shape={"n": 8})
        out = K.run_kernel("dwt", inp, [52] * 7)
        # layout: a3 (1), d3 (1), d2 (2), d1 (4); paired input zeroes d1
        assert np.all(out[4:] == 0.0)
        assert out[0] > 0.0

    def test_correlation_identical_series(self):
        data = np.vstack([np.linspace(1.0, 2.0, 16)] * 3)
        inp = InputSet("correlation", {"series": data}, seed=0, shape={"series": 3, "points": 16})
        out = K.run_kernel("correlation", inp, [52] * 7).reshape(3, 3)
        assert np.allclose(out, 1.0, rtol=0, atol=1e-13)
        assert out.tobytes() == out.T.copy(order="C").tobytes()

    def test_bscholes_price_bounds(self):
        inp = K.gen_input_set("bscholes", {"n": 128}, seed=3)
        price = K.run_kernel("bscholes", inp, [52] * 15)
        s = inp.arrays["spot"]
        k = inp.arrays["strike"]
        r = inp.arrays["rate"]
        t = inp.arrays["maturity"]
        intrinsic = s - k * np.exp(-r * t)
        assert np.all(price <= s + 1e-9)
        assert np.all(price >= intrinsic - 1e-9)
        assert np.all(price >= -1e-9)

    def test_norm_cdf_is_math_erf_bit_for_bit(self):
        rng = np.random.default_rng(5)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 40.0, -40.0]
        x = np.concatenate([rng.normal(scale=4.0, size=(3, 256)), np.tile(specials, (3, 1))], axis=1)
        want = np.array([[0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in row] for row in x])
        got = K._norm_cdf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    def test_jacobi_zero_source_fixed_point(self):
        side = 6
        inp = InputSet(
            "jacobi",
            {"grid": np.full((side, side), 1.0), "source": np.zeros((side, side))},
            seed=0,
            shape={"side": side, "iters": 10},
        )
        out = K.run_kernel("jacobi", inp, [5] * 25)
        assert np.all(out == 1.0)


# the array whose first value _spiked raises; saxpy's x would also overflow
# a*x at 52 bits
SPIKED_ARRAY = {"saxpy": "y"}
# kernels whose products or squares overflow from the spike at any width
SPIKE_OVERFLOWS_AT_52 = {"convolution", "correlation"}


def _spiked(inp):
    """The input set with one value near the top of binary64: finite at 52
    bits, rounded up to inf at 1 bit."""
    arrays = dict(inp.arrays)
    name = SPIKED_ARRAY.get(inp.benchmark, next(iter(arrays)))
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = 1.7e308
    return replace(inp, arrays=arrays)


class TestBatchedRuns:
    """A batch of configs runs as one pass; row i must be bit for bit the
    run of config i alone."""

    @staticmethod
    def configs(name) -> np.ndarray:
        n = K.get_benchmark(name).n_var
        rng = np.random.default_rng(n)
        cfgs = rng.integers(1, 53, (9, n))
        cfgs[1] = 1
        cfgs[2] = 52
        cfgs[3] = 1
        cfgs[5] = cfgs[4]
        cfgs[6] = 52
        return cfgs

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    @pytest.mark.parametrize("spike", [False, True])
    def test_batch_matches_single_runs(self, name, spike):
        inp = K.gen_input_set(name, SMALL_SHAPES[name], 4)
        if spike:
            inp = _spiked(inp)
        before = {k: np.array(v).tobytes() for k, v in inp.arrays.items()}
        cfgs = self.configs(name)
        with np.errstate(all="ignore"):
            singles = np.stack([K.run_kernel(name, inp, tuple(c)) for c in cfgs])
            batch = K.run_kernel(name, inp, cfgs)
            ones = [K.run_kernel(name, inp, c[None, :]) for c in cfgs]
        assert batch.shape == singles.shape
        assert batch.tobytes() == singles.tobytes()
        for one, single in zip(ones, singles):
            assert one.shape == (1, single.size)
            assert one.tobytes() == single.tobytes()
        # the all-1 rows overflow next to all-52 rows
        finite = np.isfinite(batch).all(axis=1)
        if not spike:
            assert finite.all()
        else:
            assert not finite[1] and not finite[3]
            assert finite[2] == finite[6] == (name not in SPIKE_OVERFLOWS_AT_52)
        assert {k: np.array(v).tobytes() for k, v in inp.arrays.items()} == before

    def test_uniform_and_mixed_slots(self):
        # a slot all configs agree on rounds with one plain format, the
        # others with one format per config; both must give single-run bits
        inp = K.gen_input_set("correlation", SMALL_SHAPES["correlation"], 2)
        cfgs = np.array([[30, 7, 52, 9, 52, 12, 1], [30, 20, 52, 3, 52, 40, 52]])
        singles = np.stack([K.run_kernel("correlation", inp, c) for c in cfgs])
        assert K.run_kernel("correlation", inp, cfgs).tobytes() == singles.tobytes()


def per_slot_hooks(cfgs):
    """rnd and load hooks that round each value on its own, to one slot's
    width in every config of the (B, n_var) batch cfgs."""

    def rnd(slot, value):
        return round_to_format(value, FormatBatch(cfgs[:, slot]))

    def load(slot, value):
        return rnd(slot, np.broadcast_to(value, (len(cfgs), *np.shape(value))))

    return rnd, load


class TestRoundedOracles:
    """The kernels that stack and hoist their roundings give the bits of
    the per-slot, per-point renditions in tests/oracles.py, for any config,
    alone or in a batch."""

    SHAPES = {
        "correlation": [SMALL_SHAPES["correlation"], {"series": 16, "points": 40}],
        "jacobi": [SMALL_SHAPES["jacobi"], {"side": 5, "iters": 2}],
    }

    @pytest.mark.parametrize("name", sorted(ROUNDED_KERNELS))
    @pytest.mark.parametrize("spike", [False, True])
    @pytest.mark.parametrize("which", [0, 1])
    def test_matches_per_slot_rendition(self, name, spike, which):
        inp = K.gen_input_set(name, self.SHAPES[name][which], 4)
        if spike:
            inp = _spiked(inp)
        cfgs = TestBatchedRuns.configs(name)
        with np.errstate(all="ignore"):
            want = ROUNDED_KERNELS[name](inp, *per_slot_hooks(cfgs))
            assert K.run_kernel(name, inp, cfgs).tobytes() == want.tobytes()
            for cfg, row in zip(cfgs, want):
                assert K.run_kernel(name, inp, cfg).tobytes() == row.tobytes()

    @pytest.mark.parametrize("name", sorted(ROUNDED_KERNELS))
    def test_consistent_configs_at_default_shape(self, name):
        # the configs verify and descent runs use: every stacked group of
        # slots shares one width
        n = K.get_benchmark(name).n_var
        cfgs = np.array([[w] * n for w in (1, 9, 30, 52)] + [CONSISTENT[name]])
        inp = K.gen_input_set(name, seed=6)
        with np.errstate(all="ignore"):
            want = ROUNDED_KERNELS[name](inp, *per_slot_hooks(cfgs))
            for cfg, row in zip(cfgs, want):
                assert K.run_kernel(name, inp, cfg).tobytes() == row.tobytes()


# dependency-consistent configs with distinct widths where the rules allow
CONSISTENT = {
    "correlation": [20, 24, 20, 30, 26, 28, 28],
    "jacobi": [22, 23, 19, 25, 23] + [22] * 4 + [22, 22, 22, 19, 19, 19]
    + [23] * 4 + [23, 23, 23, 19, 19, 19],
}


class TestRoundingCalls:
    """Rounding calls per run, a count that does not drift with the
    machine: the stacked and hoisted kernels make fewer of them."""

    @staticmethod
    def counter(monkeypatch) -> list:
        count = [0]

        def counted(x, fmt):
            count[0] += 1
            return round_to_format(x, fmt)

        monkeypatch.setattr(K, "round_to_format", counted)
        return count

    @classmethod
    def calls(cls, monkeypatch, name, inp, cfg) -> int:
        count = cls.counter(monkeypatch)
        K.run_kernel(name, inp, cfg)
        return count[0]

    @pytest.mark.parametrize("name,most", [("correlation", 800), ("jacobi", 710)])
    def test_single_run_at_default_shape(self, monkeypatch, name, most):
        # one call per slot and point made 1,288 (correlation) and 1,105
        # (jacobi)
        cfg = CONSISTENT[name]
        assert dependency_consistent(cfg, K.get_benchmark(name))
        assert self.calls(monkeypatch, name, K.gen_input_set(name, seed=0), cfg) <= most

    def test_batch_makes_no_more_calls(self, monkeypatch):
        # a dataset batch of 32 configs over 64 points: one call per slot
        # and point made 1 + 64 + 2 + (2 * 64 + 1) * 2 + 3 = 328
        inp = K.gen_input_set("correlation", {"points": 64}, seed=0)
        cfgs = np.random.default_rng(0).integers(1, 53, (32, 7))
        assert self.calls(monkeypatch, "correlation", inp, cfgs) <= 328

    @pytest.mark.parametrize("name,shape,calls", [
        ("convolution", {"rows": 32, "cols": 32}, 9028),
        ("correlation", {"points": 64}, 8561),
    ])
    def test_dataset_build(self, monkeypatch, name, shape, calls):
        # a 1000-config build as dataset-heavy makes it, reference run
        # included: convolution in 36 batches of up to 28 configs, 244
        # calls each
        count = self.counter(monkeypatch)
        fresh_dataset(name, 1000, shape=shape)
        assert count[0] == calls


class TestBatchMemory:
    def test_constants_are_three_copies_per_value_shape(self):
        # a FormatBatch writes its three uint64 constants out to the shape
        # of each value it rounds, and keeps them for the run; one run
        # where every slot is a FormatBatch may hold no more than that over
        # one where every slot is a plain format
        inp = K.gen_input_set("convolution", {"rows": 32, "cols": 32}, seed=0)
        batch = 28
        mixed = lhs_configs(batch, 4, 1, 52, 0)
        uniform = np.tile([20, 21, 22, 23], (batch, 1))
        peaks = []
        for cfgs in (mixed, uniform):
            K.run_kernel("convolution", inp, cfgs)
            tracemalloc.start()
            try:
                K.run_kernel("convolution", inp, cfgs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # image 32x32, weights 11x11, product and accumulator 22x22
        values = batch * (32 * 32 + 11 * 11 + 2 * 22 * 22)
        assert peaks[0] - peaks[1] <= 1.05 * 3 * 8 * values


# the stages each kernel keeps in a memo, by key
STAGES = {"correlation": {"means", "totals"}, "jacobi": {"diffusion"}}


class TestStages:
    """A run through a memo reuses the stages whose slots it agrees on with
    the run that stored them, and must still give a fresh run's bits."""

    @staticmethod
    def chain(name) -> list[list[int]]:
        """Single configs that each change one slot of the one before:
        each slot alone down from the all-52 config and back up, then
        every slot to a random width from a random, dependency-inconsistent
        config, and back to an earlier config."""
        n = K.get_benchmark(name).n_var
        rng = np.random.default_rng(n)
        cfg = [52] * n
        chain = []
        for slot in range(n):
            for w in (int(rng.integers(1, 52)), 52):
                cfg[slot] = w
                chain.append(list(cfg))
        cfg = [int(w) for w in rng.integers(1, 53, n)]
        chain.append(list(cfg))
        for slot in rng.permutation(n):
            cfg[slot] = int(rng.choice([w for w in range(1, 53) if w != cfg[slot]]))
            chain.append(list(cfg))
        return chain + chain[:3]

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    @pytest.mark.parametrize("spike", [False, True])
    def test_memo_runs_match_fresh_runs(self, name, spike):
        inp = K.gen_input_set(name, SMALL_SHAPES[name], 3)
        if spike:
            inp = _spiked(inp)
        chain = self.chain(name)
        n = K.get_benchmark(name).n_var
        assert all(sum(a != b for a, b in zip(x, y)) == 1 for x, y in zip(chain[: 2 * n], chain[1 : 2 * n]))
        assert not all(dependency_consistent(c, K.get_benchmark(name)) for c in chain)
        memo = {}
        with np.errstate(all="ignore"):
            for cfg in chain:
                fresh = K.run_kernel(name, inp, cfg)
                assert K.run_kernel(name, inp, cfg, memo=memo).tobytes() == fresh.tobytes()
        assert set(memo) == STAGES.get(name, set())

    @pytest.mark.parametrize("name", sorted(STAGES))
    def test_memo_saves_rounding_calls(self, monkeypatch, name):
        inp = K.gen_input_set(name, SMALL_SHAPES[name], 3)
        count = TestRoundingCalls.counter(monkeypatch)
        calls = []
        for memo in (None, {}):
            count[0] = 0
            for cfg in self.chain(name):
                K.run_kernel(name, inp, cfg, memo=memo)
            calls.append(count[0])
        assert calls[1] < calls[0]

    def test_stage_results_are_read_only(self):
        inp = K.gen_input_set("correlation", SMALL_SHAPES["correlation"], 3)
        cfg = [30, 20, 20, 25, 25, 25, 25]
        memo = {}
        want = K.run_kernel("correlation", inp, cfg, memo=memo)
        # memo entries are (input set, widths read, result)
        data, mean = memo["means"][2]
        kept = [data, mean, memo["totals"][2]]
        for arr in kept:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        assert K.run_kernel("correlation", inp, cfg, memo=memo).tobytes() == want.tobytes()

    def test_memo_of_another_input_set_is_not_reused(self):
        cfg = [30, 20, 20, 25, 25, 25, 25]
        memo = {}
        for seed in (1, 2):
            inp = K.gen_input_set("correlation", SMALL_SHAPES["correlation"], seed)
            fresh = K.run_kernel("correlation", inp, cfg)
            assert K.run_kernel("correlation", inp, cfg, memo=memo).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("name,shape,calls", [
        ("correlation", {"points": 64}, (13485, 9081)),
        ("jacobi", {"side": 8}, (68385, 57121)),
    ])
    def test_baseline_descent(self, monkeypatch, name, shape, calls):
        # the ledger a baseline descent leaves is the same with and without
        # the memo, and the memo saves rounding calls; the counts are pinned
        inp = K.gen_input_set(name, shape, seed=0)
        count = TestRoundingCalls.counter(monkeypatch)
        ledgers, counts = [], []
        for runner in (lambda b, i, c, memo: K.run_kernel(b, i, c), K.run_kernel):
            monkeypatch.setattr(solve, "run_kernel", runner)
            ledger = RunLedger(inp)
            count[0] = 0
            configs = [fptuning_baseline(ledger, t).config for t in (1e-3, 1e-7, 1e-12)]
            ledgers.append((configs, ledger.runs, ledger.errors))
            counts.append(count[0])
        assert ledgers[0] == ledgers[1]
        assert tuple(counts) == calls
