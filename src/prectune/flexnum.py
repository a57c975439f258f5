"""Reduced-precision floating-point emulation on top of binary64.

Values are carried as ordinary binary64 scalars or numpy arrays.  Reducing
precision means rounding a value to the nearest member of a smaller format's
value grid (round to nearest, ties to even), with gradual underflow and
overflow to infinity.  Operations are computed exactly in binary64 and the
*result* is rounded once; operands are never pre-rounded.

A format with 52 mantissa bits and 11 exponent bits has the same value grid
as binary64 itself, so rounding to it is the identity and emulated operations
are bit-identical to native ones.

round_to_format has two paths that give the same bits.  With 11 exponent
bits a format shares binary64's exponent range, and so its grid is every
binary64 value whose low 52 - m mantissa bits are zero, subnormals
included.  Rounding is then an integer add and mask on the bit pattern:
add half an ulp of the target (minus one when the kept last bit is even,
which breaks ties to even) and clear the dropped bits.  A carry out of the
mantissa moves to the next binade, and one out of the largest binade lands
on the pattern of inf, which is the overflow.  Only NaN needs a guard,
since the add can carry a payload into the sign bit or clear it.  Narrower
exponent fields take the general path: scale by the frexp exponent so that
the grid spacing becomes one, rint, scale back and test for overflow.

A FormatBatch gives one width per entry of an array's leading axes, all
with 11 exponent bits, so one call rounds the same value of many configs
at once on the bit path.  With 1-d widths each row of the leading axis
has its own format; with (B, k) widths each (row, column) of the two
leading axes has one, which lets a kernel round values of k slots stacked
along axis 1 in one call.

The bit-path constants are worked out once per format, not per call, so
that a call pays for asarray, the bit ops and the NaN guard alone, which
matters because kernels round a few hundred values per call.  A
FlexFormat takes them at construction, as 0-d uint64 arrays (numpy
scalars and Python ints cost more per ufunc call).  A FormatBatch writes
them out to the full shape of the values it rounds: one set for each row
size (the number of values after its widths' own axes) it meets, handed
out as views reshaped to each value shape.  Every bit operation then runs
on contiguous or 0-d operands, at about the speed of one format: columns
broadcast over each row would cost 2-3 times as much per value, since a
stride-0 operand misses numpy's contiguous and scalar loops.  A set holds
three uint64 values per value of a shape it serves and lives as long as
the batch, which run_kernel makes for one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MANTISSA_MIN = 1
MANTISSA_MAX = 52
EXPONENT_MIN = 2
EXPONENT_MAX = 11

# dtype objects, not type names: a view or asarray resolves them faster
_F64 = np.dtype(np.float64)
_U64 = np.dtype(np.uint64)

# Row m holds the constants of bit-pattern rounding to m mantissa bits: the
# shift that brings the kept last bit to bit 0, half an ulp of the target
# minus one, and the mask of the kept bits.  When no bit is dropped there is
# no last bit to keep, and the shift is 64, which numpy's uint64 >> takes to
# 0 (the tests pin this).
_BIT_TABLE = np.array(
    [(d or 64, (1 << d >> 1) - (d > 0), -(1 << d) % 2**64) for d in range(MANTISSA_MAX, -1, -1)],
    dtype=np.uint64,
)
# the same rows as 0-d arrays, which a FlexFormat takes at construction
_BIT_ROWS = [tuple(np.array(c) for c in row) for row in _BIT_TABLE]
# and its columns, which a FormatBatch indexes with its widths
_BIT_COLUMNS = _BIT_TABLE.T.copy()
# the mask of the kept last bit after the shift, 0-d like the rows
_ONE = np.array(1, dtype=_U64)


@dataclass(frozen=True)
class FlexFormat:
    """A floating-point format: explicit mantissa bits + exponent field width.

    mantissa_bits counts the bits after the implicit leading one, so the
    significand carries mantissa_bits + 1 bits of precision for normals.
    The exponent field follows IEEE conventions: the all-ones code is
    reserved, bias is 2**(exponent_bits-1) - 1, and values below the
    smallest normal are represented on the fixed subnormal grid.  Both
    widths must be Python or numpy integers, not bools, and are kept as
    Python ints.
    """

    mantissa_bits: int
    exponent_bits: int = 11
    # the bit path's row of _BIT_ROWS; None where the frexp path rounds
    _bits: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        for name in ("mantissa_bits", "exponent_bits"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            # a Python int: numpy's unsigned ones wrap when negated
            object.__setattr__(self, name, int(v))
        if not MANTISSA_MIN <= self.mantissa_bits <= MANTISSA_MAX:
            raise ValueError(
                f"mantissa_bits must be in [{MANTISSA_MIN}, {MANTISSA_MAX}], "
                f"got {self.mantissa_bits}"
            )
        if not EXPONENT_MIN <= self.exponent_bits <= EXPONENT_MAX:
            raise ValueError(
                f"exponent_bits must be in [{EXPONENT_MIN}, {EXPONENT_MAX}], "
                f"got {self.exponent_bits}"
            )
        if self.exponent_bits == EXPONENT_MAX:
            object.__setattr__(self, "_bits", _BIT_ROWS[self.mantissa_bits])

    @property
    def emax(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @property
    def emin(self) -> int:
        return 1 - self.emax

    @property
    def max_value(self) -> float:
        # (2 - 2^-m) * 2^emax, always finite in binary64 since emax <= 1023
        return float(np.ldexp(2.0 - np.ldexp(1.0, -self.mantissa_bits), self.emax))


@dataclass(frozen=True, eq=False)
class FormatBatch:
    """One format per entry of an array's leading axes: with widths of
    shape S, x[i] for an index i into S is rounded to
    FlexFormat(mantissa_bits[i], 11), and x.shape must start with S.
    mantissa_bits is a read-only copy of the widths given, which must have
    an integer dtype."""

    mantissa_bits: np.ndarray
    # row size -> _BIT_TABLE's columns written out to (3, widths.size, row size)
    _sets: dict = field(init=False, repr=False, default_factory=dict)
    # value shape -> views of its row size's set, reshaped to that shape
    _views: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        m = np.array(self.mantissa_bits)
        if m.ndim < 1 or not m.size:
            raise ValueError(f"a format batch needs a non-empty array of widths, got shape {m.shape}")
        if m.dtype.kind not in "iu":
            raise ValueError(f"a format batch needs integer widths, got dtype {m.dtype}")
        m = m.astype(np.int64, copy=False)
        # the narrowest and widest rows stand for all of them
        FlexFormat(int(m.min()))
        FlexFormat(int(m.max()))
        m.flags.writeable = False
        object.__setattr__(self, "mantissa_bits", m)

    def constants(self, shape: tuple) -> tuple:
        """The bit-path constants of every value of an array of the given
        shape, whose leading axes are the widths' own, as contiguous
        arrays of that shape."""
        views = self._views.get(shape)
        if views is None:
            m = self.mantissa_bits
            row = math.prod(shape[m.ndim :])
            flat = self._sets.get(row)
            if flat is None:
                flat = self._sets[row] = np.empty((len(_BIT_COLUMNS), m.size, row), dtype=_U64)
                flat[...] = _BIT_COLUMNS[:, m.ravel(), None]
            views = self._views[shape] = tuple(c.reshape(shape) for c in flat)
        return views


def _round_bits(arr: np.ndarray, shift, half, keep) -> np.ndarray:
    """Bit-pattern rounding for 11 exponent bits, given one row of
    _BIT_TABLE or constants of arr's shape."""
    bits = arr.view(_U64)
    t = bits >> shift
    t &= _ONE
    t += half
    t += bits
    t &= keep
    out = t.view(_F64)
    np.copyto(out, arr, where=np.isnan(arr))
    return out


def _round_frexp(arr: np.ndarray, fmt: FlexFormat) -> np.ndarray:
    """General rounding for any exponent width.

    The grid spacing at x is 2^(max(e-1, emin) - mantissa_bits) where e
    is the frexp exponent of x, which covers normals, the subnormal range
    (fixed spacing) and the binade crossings in one formula.  All the scalings
    are exact in binary64, so the single rint is the only rounding step
    and inherits the FPU's ties-to-even behaviour."""
    finite = np.isfinite(arr)
    work = np.where(finite, arr, 0.0)

    _, e = np.frexp(work)
    k = np.maximum(e - 1, fmt.emin) - fmt.mantissa_bits
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(work, -k)
        rounded = np.ldexp(np.rint(scaled), k)
        overflow = np.abs(rounded) > fmt.max_value
        rounded = np.where(overflow, np.copysign(np.inf, work), rounded)
    return np.where(finite, rounded, arr)


def round_to_format(x, fmt: FlexFormat | FormatBatch):
    """Round binary64 value(s) to the nearest value of fmt, ties to even.

    NaN stays NaN, +/-inf stay themselves, signed zeros are preserved.
    Finite values whose rounded magnitude exceeds fmt's largest finite
    value overflow to +/-inf.  Accepts scalars or arrays; returns a float
    for scalar input and a new ndarray otherwise.  A FormatBatch rounds
    each entry of x's leading axes to its own format.
    """
    arr = np.asarray(x, dtype=_F64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if isinstance(fmt, FormatBatch):
        lead = fmt.mantissa_bits.shape
        if scalar or arr.shape[: len(lead)] != lead:
            raise ValueError(f"formats of shape {lead} for an array of shape {np.shape(x)}")
        out = _round_bits(arr, *fmt.constants(arr.shape))
    elif fmt._bits is None:
        out = _round_frexp(arr, fmt)
    elif fmt.mantissa_bits == MANTISSA_MAX:
        # the bits _round_bits gives at this width, for speed: a copy of
        # 1024 values takes 0.7 us against 12 us, descents from the all-52
        # config round at this width often, and perfbench's
        # baseline-descent job_s was 23% higher without it (6 paired runs,
        # processor time, 2-vCPU VM)
        out = arr.copy()
    else:
        out = _round_bits(arr, *fmt._bits)
    return float(out[0]) if scalar else out

