"""Rounding core tests, checked against exact-rational oracles."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flex_op, round_by_grid_search, round_nearest_even
from prectune.flexnum import (
    FlexFormat,
    FormatBatch,
    _round_frexp,
    round_to_format,
)


def same_float(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class TestFormatValidation:
    def test_mantissa_out_of_range(self):
        with pytest.raises(ValueError):
            FlexFormat(0, 11)
        with pytest.raises(ValueError):
            FlexFormat(53, 11)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            FlexFormat(4, 1)
        with pytest.raises(ValueError):
            FlexFormat(4, 12)

    @pytest.mark.parametrize(
        "bad",
        [True, np.bool_(True), 4.5, 4.0, np.float64(4.0), "4"],
        ids=["bool", "numpy-bool", "fraction", "integral-float", "numpy-float", "str"],
    )
    def test_widths_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            FlexFormat(bad)
        with pytest.raises(ValueError, match="must be an integer"):
            FlexFormat(4, bad)

    def test_numpy_integer_widths(self):
        # stored as Python ints: a negated numpy unsigned width would wrap
        f = FlexFormat(np.uint8(2), np.uint8(3))
        assert type(f.mantissa_bits) is int and type(f.exponent_bits) is int
        assert f == FlexFormat(2, 3) and f.max_value == 14.0
        assert repr(FlexFormat(np.int64(7))) == repr(FlexFormat(7))
        assert round_to_format(2.72, FlexFormat(np.int32(3))) == 2.75

    def test_params(self):
        f = FlexFormat(2, 3)
        assert f.emax == 3 and f.emin == -2
        assert f.max_value == 14.0
        assert FlexFormat(52, 11).emin == -1022


class TestKnownValues:
    # hand-frozen values, independently derived from the grid definition
    CASES = [
        (1.0, (3, 11), 1.0),
        (0.1, (2, 11), 0.09375),
        (2.72, (3, 11), 2.75),
        (-2.72, (3, 11), -2.75),
        (1.25, (2, 11), 1.25),  # already on the grid
        (1.25, (1, 11), 1.0),  # tie, even neighbor below
        (1.75, (1, 11), 2.0),  # tie, even neighbor above
        (15.0, (2, 3), math.inf),  # tie at the top of the grid goes to inf
        (14.9, (2, 3), 14.0),
        (-15.0, (2, 3), -math.inf),
        (0.09, (2, 3), 0.0625),  # subnormal grid, step 2^-4
        (0.03, (2, 3), 0.0),
        (0.03125, (2, 3), 0.0),  # tie with zero, zero is even
    ]

    @pytest.mark.parametrize("x,fmt,expected", CASES)
    def test_case(self, x, fmt, expected):
        got = round_to_format(x, FlexFormat(*fmt))
        assert same_float(got, expected), f"{x} under {fmt}: {got} != {expected}"

    @pytest.mark.parametrize("x,fmt,expected", CASES)
    def test_case_matches_oracle(self, x, fmt, expected):
        assert same_float(round_nearest_even(x, *fmt), expected)


class TestSpecials:
    @pytest.mark.parametrize("fmt", [(1, 2), (2, 5), (5, 8), (23, 8), (52, 11)])
    def test_specials_pass_through(self, fmt):
        f = FlexFormat(*fmt)
        assert math.isnan(round_to_format(math.nan, f))
        assert round_to_format(math.inf, f) == math.inf
        assert round_to_format(-math.inf, f) == -math.inf
        assert same_float(round_to_format(0.0, f), 0.0)
        assert same_float(round_to_format(-0.0, f), -0.0)


class TestBinary64Identity:
    def test_samples_identity(self):
        rng = np.random.default_rng(7)
        vals = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, 200) * 1e308,
                rng.uniform(-1.0, 1.0, 200) * 5e-324 * 1e10,
                np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
            ]
        )
        out = round_to_format(vals, FlexFormat(52, 11))
        assert out.tobytes() == vals.tobytes()

    def test_native_ops_bit_identical(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1e10, 1e10, 1000)
        b = rng.uniform(-1e10, 1e10, 1000)
        for kind, ref in [
            ("add", a + b),
            ("sub", a - b),
            ("mul", a * b),
            ("div", a / b),
        ]:
            got = flex_op(kind, a, b, FlexFormat(52, 11))
            assert got.tobytes() == ref.tobytes(), kind


class TestAgainstOracle:
    def _sample_values(self, rng, n):
        with np.errstate(over="ignore"):
            mag = 10.0 ** rng.uniform(-320, 305, n)
        sign = rng.choice([-1.0, 1.0], n)
        return sign * mag

    @pytest.mark.parametrize("mbits", [1, 2, 3, 5, 8, 23, 51])
    @pytest.mark.parametrize("ebits", [3, 5, 8, 11])
    def test_random_values(self, mbits, ebits):
        fmt = FlexFormat(mbits, ebits)
        rng = np.random.default_rng(1000 + mbits * 13 + ebits)
        for x in self._sample_values(rng, 150):
            got = round_to_format(float(x), fmt)
            want = round_nearest_even(float(x), mbits, ebits)
            assert same_float(got, want), (x, mbits, ebits, got, want)

    @pytest.mark.parametrize("mbits,ebits", [(1, 3), (2, 3), (3, 4), (4, 5)])
    def test_near_grid_and_midpoints(self, mbits, ebits):
        # midpoints between consecutive grid values are the hard cases
        from oracles import grid_positive

        fmt = FlexFormat(mbits, ebits)
        grid = grid_positive(mbits, ebits)
        mids = (grid[:-1] + grid[1:]) / 2.0
        for x in np.concatenate([grid, mids, -mids]):
            got = round_to_format(float(x), fmt)
            want = round_nearest_even(float(x), mbits, ebits)
            assert same_float(got, want), (x, got, want)

    @pytest.mark.parametrize("mbits,ebits", [(1, 3), (2, 4), (3, 3)])
    def test_oracles_agree_with_each_other(self, mbits, ebits):
        # the neighbor oracle and the exhaustive grid search must coincide
        rng = np.random.default_rng(5 + mbits + ebits)
        emax = 2 ** (ebits - 1) - 1
        vals = np.concatenate(
            [
                self._sample_values(rng, 40),
                rng.uniform(-(2.0 ** (emax + 2)), 2.0 ** (emax + 2), 40),
            ]
        )
        for x in vals:
            a = round_nearest_even(float(x), mbits, ebits)
            b = round_by_grid_search(float(x), mbits, ebits)
            assert same_float(a, b), (x, a, b)


class TestProperties:
    @given(
        x=st.floats(allow_nan=False, allow_infinity=False, width=64),
        mbits=st.integers(1, 52),
        ebits=st.integers(2, 11),
    )
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x, mbits, ebits):
        fmt = FlexFormat(mbits, ebits)
        once = round_to_format(x, fmt)
        twice = round_to_format(once, fmt)
        assert same_float(once, twice)

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False, width=64),
        y=st.floats(allow_nan=False, allow_infinity=False, width=64),
        mbits=st.integers(1, 52),
        ebits=st.integers(2, 11),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, x, y, mbits, ebits):
        fmt = FlexFormat(mbits, ebits)
        lo, hi = (x, y) if x <= y else (y, x)
        assert round_to_format(lo, fmt) <= round_to_format(hi, fmt)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1e5, 1e5, 500)
        fmt = FlexFormat(4, 6)
        vec = round_to_format(xs, fmt)
        for i, x in enumerate(xs):
            assert same_float(float(vec[i]), round_to_format(float(x), fmt))


class TestFlexOp:
    def test_spec_sums(self):
        assert flex_op("add", 1.0, 1.0, FlexFormat(3, 11)) == 2.0
        assert flex_op("add", 1.0, 2.0**-10, FlexFormat(5, 11)) == 1.0

    def test_absorption_boundary(self):
        # 2^-6 is half an ulp of 1.0 at 5 mantissa bits: tie, 1.0 is even
        assert flex_op("add", 1.0, 2.0**-6, FlexFormat(5, 11)) == 1.0
        # just above the tie the sum must move up one step
        assert flex_op("add", 1.0, 2.0**-6 + 2.0**-20, FlexFormat(5, 11)) == 1.0 + 2.0**-5

    def test_div_special_cases(self):
        f = FlexFormat(5, 8)
        assert flex_op("div", 1.0, 0.0, f) == math.inf
        assert flex_op("div", -1.0, 0.0, f) == -math.inf
        assert math.isnan(flex_op("div", 0.0, 0.0, f))

    def test_mul_overflows_small_format(self):
        f = FlexFormat(2, 3)  # max finite 14.0
        assert flex_op("mul", 8.0, 4.0, f) == math.inf

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            flex_op("pow", 1.0, 2.0, FlexFormat(3, 11))

    def test_rounding_applied_to_result_only(self):
        # operands stay binary64: 1.375 * 2 is exact, then rounded at 1 bit
        f = FlexFormat(1, 11)
        # 2.75 at 1 mantissa bit: step 1.0 in [2,4): candidates 2(i=2),3(i=3): 2.75 -> 3.0
        assert flex_op("mul", 1.375, 2.0, f) == 3.0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestBitPatternPath:
    """With 11 exponent bits round_to_format adds and masks on the binary64
    bit pattern; the frexp path, kept for narrower exponents, must give the
    same bits."""

    NAN_PAYLOADS = [0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
                    0xFFF8000000000000, 0xFFF0000000000001, 0x7FF4000000000000]

    @staticmethod
    def values() -> np.ndarray:
        rng = np.random.default_rng(52)
        with np.errstate(over="ignore"):
            normals = 10.0 ** rng.uniform(-307, 308, 2000)
        subnormals = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
        # just below and at powers of two: rounding up carries into the next binade
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        carries = np.concatenate([np.nextafter(powers, 0.0), powers, powers * 1.75])
        edges = np.array([0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                          1.7976931348623157e308, 1.5 * 2.0**1023, np.inf])
        vals = np.concatenate([normals, subnormals, carries, edges])
        nans = np.array(TestBitPatternPath.NAN_PAYLOADS, dtype=np.uint64).view(np.float64)
        return np.concatenate([vals, -vals, nans])

    @pytest.mark.parametrize("mbits", range(1, 53))
    def test_matches_frexp_path(self, mbits):
        vals = self.values()
        with np.errstate(over="ignore"):
            want = _round_frexp(vals, FlexFormat(mbits, 11))
        got = round_to_format(vals, FlexFormat(mbits, 11))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mbits", [1, 7, 23, 51, 52])
    def test_nan_payloads_kept(self, mbits):
        nans = np.array(self.NAN_PAYLOADS, dtype=np.uint64).view(np.float64)
        assert round_to_format(nans, FlexFormat(mbits, 11)).tobytes() == nans.tobytes()

    @pytest.mark.parametrize("mbits", [1, 4, 30, 52])
    def test_scalars_and_zero_d_arrays(self, mbits):
        fmt = FlexFormat(mbits, 11)
        for x in [0.1, -0.0, 0.0, 1.7976931348623157e308, 5e-324, -math.inf, math.nan, 3]:
            want = float(_round_frexp(np.array([x], dtype=np.float64), fmt)[0])
            for arg in (x, np.float64(x), np.array(x)):
                got = round_to_format(arg, fmt)
                assert type(got) is float
                assert _bits(got) == _bits(want), (x, mbits)

    def test_overflow_at_one_bit(self):
        fmt = FlexFormat(1, 11)
        assert round_to_format(1.7976931348623157e308, fmt) == math.inf
        assert round_to_format(-1.7e308, fmt) == -math.inf
        assert round_to_format(1.5 * 2.0**1023, fmt) == 1.5 * 2.0**1023

    def test_cached_constants_leave_the_format_value_alone(self):
        fmt = FlexFormat(7, 11)
        assert fmt == FlexFormat(7) and hash(fmt) == hash(FlexFormat(7)) == hash((7, 11))
        assert fmt != FlexFormat(8) and fmt != FlexFormat(7, 8)
        assert len({FlexFormat(7), FlexFormat(7, 11), FlexFormat(8)}) == 2
        assert repr(fmt) == "FlexFormat(mantissa_bits=7, exponent_bits=11)"
        # a replaced format works out its own constants
        x = np.linspace(0.1, 9.9, 50)
        for new in (replace(fmt, mantissa_bits=3), replace(fmt, exponent_bits=5)):
            with np.errstate(over="ignore"):
                assert round_to_format(x, new).tobytes() == _round_frexp(x, new).tobytes()

    @pytest.mark.parametrize("mbits", [1, 30, 52])
    def test_result_never_aliases_input(self, mbits):
        x = np.linspace(0.5, 9.5, 16)
        before = x.copy()
        out = round_to_format(x, FlexFormat(mbits, 11))
        assert not np.shares_memory(out, x)
        out[:] = -1.0  # the kernels write into what they get back
        assert x.tobytes() == before.tobytes()


class TestFormatBatch:
    def test_rows_match_single_rounding(self):
        rng = np.random.default_rng(9)
        widths = np.array([1, 52, 7, 52, 23, 1])
        with np.errstate(over="ignore"):
            x = (10.0 ** rng.uniform(-320, 308, (len(widths), 5, 40))) * rng.choice([-1.0, 1.0], (len(widths), 5, 40))
        x[0, 0, :3] = [math.nan, math.inf, -0.0]
        got = round_to_format(x, FormatBatch(widths))
        assert got.shape == x.shape
        for i, m in enumerate(widths):
            assert got[i].tobytes() == round_to_format(x[i], FlexFormat(int(m), 11)).tobytes()

    def test_one_batch_serves_every_rank(self):
        # a batch keeps its written-out constants per row size and views of
        # them per value shape: reusing one across shapes and ranks, in any
        # order, gives the bits of a fresh batch each time
        rng = np.random.default_rng(3)
        widths = np.array([3, 52, 1, 17])
        batch = FormatBatch(widths)
        shapes = [(4,), (4, 9), (4, 2, 5), (4, 9), (4,)]
        for shape in shapes:
            x = rng.uniform(-50.0, 50.0, shape)
            got = round_to_format(x, batch)
            assert got.tobytes() == round_to_format(x, FormatBatch(widths)).tobytes()
            for i, m in enumerate(widths):
                assert _bits(got[i]) == _bits(round_to_format(x[i], FlexFormat(int(m))))

    def test_widths_are_a_read_only_copy(self):
        w = np.array([4, 5])
        batch = FormatBatch(w)
        x = np.full((2, 1), 1.7)
        before = round_to_format(x, batch)
        w[0] = 0  # out of range, had the batch kept the caller's array
        assert batch.mantissa_bits.tolist() == [4, 5]
        assert not batch.mantissa_bits.flags.writeable
        with pytest.raises(ValueError):
            batch.mantissa_bits[0] = 0
        after = round_to_format(x, batch)
        assert after.tobytes() == before.tobytes()
        assert after[0, 0] == round_to_format(1.7, FlexFormat(4)) != 2.0

    def test_broadcast_input_gets_a_fresh_array(self):
        x = np.arange(1.0, 9.0)
        batch = np.broadcast_to(x, (3, x.size))
        out = round_to_format(batch, FormatBatch(np.array([52, 52, 3])))
        out[:] = 0.0
        assert x.tolist() == list(np.arange(1.0, 9.0))

    @pytest.mark.parametrize(
        "widths",
        [np.array([4.5, 5.9]), np.array([4.0, 5.0]), [4.0, 5.0], np.array([True, False])],
        ids=["fractions", "integral-floats", "float-list", "bools"],
    )
    def test_widths_must_be_integers(self, widths):
        with pytest.raises(ValueError, match="integer widths"):
            FormatBatch(widths)

    def test_integer_widths_of_any_kind(self):
        x = np.full((2, 3), 2.72)
        want = round_to_format(x, FormatBatch(np.array([3, 5])))
        for widths in ([3, 5], np.array([3, 5], dtype=np.uint8), np.array([3, 5], dtype=np.int32)):
            batch = FormatBatch(widths)
            assert batch.mantissa_bits.dtype == np.int64
            assert round_to_format(x, batch).tobytes() == want.tobytes()

    def test_bad_batches(self):
        with pytest.raises(ValueError):
            FormatBatch(np.array([4, 53]))
        with pytest.raises(ValueError):
            FormatBatch(np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            round_to_format(np.zeros((3, 2)), FormatBatch(np.array([4, 5])))
        with pytest.raises(ValueError):
            round_to_format(1.0, FormatBatch(np.array([4])))


class TestFormatBatchBits:
    """A FormatBatch writes its constants out to the shape of the values it
    rounds; every entry must still get the bits of its own FlexFormat."""

    SPECIALS = np.concatenate([
        [math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
         -1.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308],
        # NaNs whose payloads sit in the bits a narrow width drops
        np.array([0x7FF0000000000001, 0xFFF0000000000003, 0x7FF8000000000001,
                  0x7FF00000000FFFFF], dtype=np.uint64).view(np.float64),
    ])

    @classmethod
    def values(cls, shape, seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
        # every row gets the specials, at a place of its own
        flat = x.reshape(shape[0], -1)
        for i, row in enumerate(flat):
            k = min(len(cls.SPECIALS), row.size)
            row[rng.permutation(row.size)[:k]] = np.roll(cls.SPECIALS, i)[:k]
        return x

    @staticmethod
    def assert_rows_match(x, widths, got):
        assert got.shape == x.shape
        for i in np.ndindex(widths.shape):
            want = round_to_format(x[i], FlexFormat(int(widths[i])))
            assert np.asarray(got[i]).tobytes() == np.asarray(want).tobytes(), (i, widths[i])

    @pytest.mark.parametrize("shape", [(28, 22, 22), (32, 1, 272), (32, 512, 1), (32, 1024)])
    def test_workload_shapes(self, shape):
        widths = np.random.default_rng(shape[1]).integers(1, 53, shape[0])
        widths[:4] = [1, 52, 51, 2]
        x = self.values(shape, 1)
        self.assert_rows_match(x, widths, round_to_format(x, FormatBatch(widths)))

    def test_stacked_widths(self):
        widths = np.random.default_rng(2).integers(1, 53, (6, 4))
        widths[0] = 52
        widths[1] = [1, 52, 1, 52]
        for shape in [(6, 4), (6, 4, 11), (6, 4, 3, 7)]:
            x = self.values(shape, 3)
            self.assert_rows_match(x, widths, round_to_format(x, FormatBatch(widths)))

    def test_broadcast_inputs(self):
        # loads broadcast an input along the config axis, and a column may
        # be broadcast along the others: both have stride-0 axes
        widths = np.array([1, 52, 9, 30, 52, 17])
        row = self.values((1, 40), 4)[0]
        col = self.values((6, 1), 5)
        for x in (np.broadcast_to(row, (6, 40)), np.broadcast_to(col, (6, 40)),
                  np.broadcast_to(row.reshape(4, 10), (6, 4, 10))):
            got = round_to_format(x, FormatBatch(widths))
            assert got.flags.c_contiguous and got.flags.writeable
            self.assert_rows_match(x, widths, got)

    def test_width_52_rows_are_the_input(self):
        x = self.values((3, 64), 6)
        got = round_to_format(x, FormatBatch(np.array([52, 52, 52])))
        assert got.tobytes() == x.tobytes()

    def test_nan_payloads_in_dropped_bits_kept(self):
        nans = self.SPECIALS[-4:]
        x = np.tile(nans, (4, 1))
        assert round_to_format(x, FormatBatch(np.array([1, 7, 51, 52]))).tobytes() == x.tobytes()

    @pytest.mark.parametrize("size", [1, 3, 4099])
    def test_shift_by_64_is_zero(self, size):
        # the width-52 row shifts by 64 and relies on numpy giving 0, on
        # scalars and on the vector loops of long arrays alike
        bits = np.random.default_rng(size).integers(0, 2**64, size, dtype=np.uint64)
        bits[0] = 2**64 - 1
        s64 = np.uint64(64)
        assert not (bits >> s64).any()
        assert not (bits >> np.array(64, dtype=np.uint64)).any()
        assert not (bits >> np.full(size, 64, dtype=np.uint64)).any()
        assert np.uint64(2**64 - 1) >> s64 == 0
        assert not (bits[::2] >> np.full(bits[::2].shape, 64, dtype=np.uint64)).any()

    def test_constants_shared_per_row_size(self):
        # fwt's butterfly stages round (B, n / 2h, h) values for h = 1 ...
        # n / 2: one row size, so one set of constants between them
        batch = FormatBatch(np.array([3, 52, 1, 17]))
        stages = [(4, 512 // h, h) for h in (1, 2, 8, 512)]
        sets = [batch.constants(shape) for shape in stages]
        for shape, consts in zip(stages, sets):
            assert len(consts) == 3
            for c, first in zip(consts, sets[0]):
                assert c.shape == shape and c.dtype == np.uint64 and c.flags.c_contiguous
                assert np.shares_memory(c, first)
        assert all(a is b for a, b in zip(batch.constants(stages[1]), sets[1]))
        for c, first in zip(batch.constants((4, 1024)), sets[0]):
            assert not np.shares_memory(c, first)
        # stacked widths: the row is what follows both of their axes
        stacked = FormatBatch(np.array([[3, 4], [5, 6]]))
        a, b = stacked.constants((2, 2, 6))[0], stacked.constants((2, 2, 2, 3))[0]
        assert np.shares_memory(a, b)
