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

A FormatBatch gives one width per row of an array's leading axis, all with
11 exponent bits, so one call rounds the same value of many configs at
once on the bit path.

The bit-path constants are worked out once per format, not per call: a
FlexFormat takes them at construction, as 0-d uint64 arrays (numpy
scalars cost more per ufunc call), and a FormatBatch works out its
columns, shaped to broadcast along an array's leading axis, once for each
array rank it meets.  A call then pays for asarray, the bit ops and the
NaN guard alone, which matters because kernels round a few hundred values
per call.
"""

from __future__ import annotations

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
# number d of dropped bits, the mask of the kept last bit (zero when nothing
# is dropped), half an ulp of the target minus one, and the mask of the kept
# bits.
_BIT_TABLE = np.array(
    [(d, int(d > 0), (1 << d >> 1) - (d > 0), -(1 << d) % 2**64) for d in range(MANTISSA_MAX, -1, -1)],
    dtype=np.uint64,
)
# the same rows as 0-d arrays, which a FlexFormat takes at construction
_BIT_ROWS = [tuple(np.array(c) for c in row) for row in _BIT_TABLE]


@dataclass(frozen=True)
class FlexFormat:
    """A floating-point format: explicit mantissa bits + exponent field width.

    mantissa_bits counts the bits after the implicit leading one, so the
    significand carries mantissa_bits + 1 bits of precision for normals.
    The exponent field follows IEEE conventions: the all-ones code is
    reserved, bias is 2**(exponent_bits-1) - 1, and values below the
    smallest normal are represented on the fixed subnormal grid.
    """

    mantissa_bits: int
    exponent_bits: int = 11
    # the bit path's row of _BIT_ROWS; None where the frexp path rounds
    _bits: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
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


BINARY64 = FlexFormat(52, 11)


@dataclass(frozen=True, eq=False)
class FormatBatch:
    """One format per row of a batch: row i of an array's leading axis is
    rounded to FlexFormat(mantissa_bits[i], 11).  mantissa_bits is a
    read-only copy of the widths given."""

    mantissa_bits: np.ndarray
    # array rank -> _BIT_TABLE's columns, shaped (B, 1, ..., 1) to that rank
    _columns: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        m = np.array(self.mantissa_bits, dtype=np.int64)
        if m.ndim != 1 or not m.size:
            raise ValueError(f"a format batch needs a 1-d array of widths, got shape {m.shape}")
        # the narrowest and widest rows stand for all of them
        FlexFormat(int(m.min()))
        FlexFormat(int(m.max()))
        m.flags.writeable = False
        object.__setattr__(self, "mantissa_bits", m)

    def columns(self, ndim: int) -> tuple:
        """The bit-path constants of every row, broadcastable against an
        array of rank ndim whose leading axis is the batch."""
        cols = self._columns.get(ndim)
        if cols is None:
            shape = (-1,) + (1,) * (ndim - 1)
            cols = tuple(c.reshape(shape) for c in _BIT_TABLE[self.mantissa_bits].T)
            self._columns[ndim] = cols
        return cols


def _round_bits(arr: np.ndarray, drop, lsb, half, keep) -> np.ndarray:
    """Bit-pattern rounding for 11 exponent bits, given one row of
    _BIT_TABLE or columns that broadcast against arr."""
    bits = arr.view(_U64)
    t = bits >> drop
    t &= lsb
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
    each row of x's leading axis to its own format.
    """
    arr = np.asarray(x, dtype=_F64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if isinstance(fmt, FormatBatch):
        if scalar or arr.shape[0] != fmt.mantissa_bits.size:
            raise ValueError(f"{fmt.mantissa_bits.size} formats for an array of shape {np.shape(x)}")
        out = _round_bits(arr, *fmt.columns(arr.ndim))
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


_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
}


def flex_op(kind: str, a, b, result_fmt: FlexFormat):
    """Apply a binary op in binary64 and round the result to result_fmt.

    kind is one of "add", "sub", "mul", "div".  Division by zero and
    invalid operations follow IEEE semantics (inf / nan results), no
    exceptions are raised.
    """
    try:
        op = _OPS[kind]
    except KeyError:
        raise ValueError(f"unknown op kind {kind!r}, expected one of {sorted(_OPS)}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = op(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return round_to_format(raw, result_fmt)
