"""The CSV of a variance-bound scan, formed in one vectorized pass per chunk of rows.

The CSV is handed out chunk by chunk as ASCII bytes, so a writer holds one
chunk at a time, never the whole scan.  Every float is printed as
``format(x, '.17g')`` prints it.  The cells' j22 and log10(j22) are formatted
exactly by integer digit generation instead of one CPython dtoa call each; the
few values that pass does not cover go through ``format`` itself.
:func:`anonsense.configio.scan_rows_to_csv` imports this module on its first use.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from .fisher import ScanGrid

SCAN_CSV_HEADER = b"n,a,q0,theta1,theta2,j22,log10_j22,flag\n"


def scan_csv(grid: ScanGrid) -> Iterator[bytes]:
    """The scan as CSV, one row per cell, axes nested as (n, q0, theta1, theta2),
    in ASCII chunks: the header line, then the rows of each chunk.

    A cell's row is ``n,a,q0,theta1,theta2,j22,log10_j22,flag`` with flag
    ``ok``, or ``nan,nan,divergent`` in place of the last three where the
    cell's j22 is NaN.  Every float reads as ``format(x, '.17g')``.
    The n, a, q0, theta1 head is formatted once per theta1 row and theta2
    once per axis value; per cell j22 and math.log10(j22) are formatted by
    :func:`_format_values` in one pass over a chunk of about
    :data:`_CSV_CHUNK_ROWS` rows, whole theta1 lines of ``grid.j22`` in order
    across block ends.  Each chunk is one NUL-padded byte matrix with a fixed
    column for each field, and its NULs drop as it becomes text.  The chunks
    are formed one at a time, as they are asked for.
    """
    yield SCAN_CSV_HEADER
    if not grid.n_rows:
        return
    theta1 = [_format_float(th1) for th1 in grid.theta1]
    theta2 = _padded([f",{_format_float(th2)}," for th2 in grid.theta2])
    prefixes = [f"{_format_count(n)},{_format_count(a)},{_format_float(q0)},"
                for n, a, q0 in grid.designs]
    j22 = grid.j22.reshape(-1, len(grid.theta2))
    rows, lines = len(theta1), max(1, _CSV_CHUNK_ROWS // len(grid.theta2))
    for start in range(0, len(j22), lines):
        end = min(start + lines, len(j22))
        heads = _padded([prefixes[line // rows] + theta1[line % rows] for line in range(start, end)])
        yield _chunk_csv(heads, theta2, j22[start:end])


# rows formatted as one byte matrix, which bounds the writer's memory; a 65 x
# 65 figure grid is one chunk
_CSV_CHUNK_ROWS = 8192
_OK_TAIL = b",ok\n"
_DIVERGENT_TAIL = b"nan,nan,divergent\n"  # in place of ",j22,log10_j22,ok\n"


def _padded(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as the rows of a NUL-padded uint8 matrix."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def _chunk_csv(heads: np.ndarray, theta2: np.ndarray, j22: np.ndarray) -> bytes:
    """The ASCII rows of one chunk: ``heads`` (lines x bytes) for each
    theta1 line, ``theta2`` (columns x bytes) for each column, and the cells'
    j22 (lines x columns), NaN where divergent."""
    lines, columns = j22.shape
    cells = lines * columns
    j22 = j22.ravel()
    divergent = np.flatnonzero(np.isnan(j22))
    if divergent.size:  # their rows print no number; 2.0 keeps the pass on its fast path
        j22 = j22.copy()
        j22[divergent] = 2.0
    logs = np.fromiter(map(math.log10, j22.tolist()), dtype=float, count=cells)
    values = _format_values(np.concatenate([j22, logs]))
    del j22, logs
    # a divergent row's text overwrites its value columns and the tail
    widths = [heads.shape[1], theta2.shape[1], values.shape[1], 1, values.shape[1], len(_OK_TAIL)]
    starts = list(itertools.accumulate(widths, initial=0))
    text = bytearray(cells * starts[-1])
    rows = np.frombuffer(text, dtype=np.uint8).reshape(lines, columns, -1)
    rows[:, :, :starts[1]] = heads[:, None]
    rows[:, :, starts[1]:starts[2]] = theta2
    rows = rows.reshape(cells, -1)
    rows[:, starts[2]:starts[3]] = values[:cells]
    rows[:, starts[3]] = ord(",")
    rows[:, starts[4]:starts[5]] = values[cells:]
    rows[:, starts[5]:starts[5] + len(_OK_TAIL)] = np.frombuffer(_OK_TAIL, dtype=np.uint8)
    if divergent.size:
        rows[divergent, starts[2]:] = 0
        rows[divergent, starts[2]:starts[2] + len(_DIVERGENT_TAIL)] = np.frombuffer(
            _DIVERGENT_TAIL, dtype=np.uint8)
    del values, rows
    return text.translate(None, b"\0")


def _format_count(x: float) -> str:
    return "inf" if math.isinf(x) else str(int(x))


def _format_float(x: float) -> str:
    return f"{x:.17g}"


# format(x, '.17g') prints 17 significant digits, in fixed notation where the
# decimal exponent e of the rounded value is in [-4, 16]: the digits are then
# D = round-half-even(|x| * 10^(16 - e)), an integer in [10^16, 10^17), and
# 10^(16 - e) is an exact double.  x * 10^p is formed exactly as a double and
# its rounding error by Dekker's two-product (Numer. Math. 18, 224 (1971)), so D
# is the correctly rounded integer that CPython's dtoa prints.
_POW10 = np.array([float(10 ** p) for p in range(21)])
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT_POW10 = np.array([10 ** p for p in range(17)], dtype=np.int64)
# a formatted value is 11 groups of four bytes: a byte for the sign and the
# first of the 17 digits of the integer part (group 0), its other 16 digits
# (1-4), the point (5) and the 20 digits of the fraction (6-10)
_GROUPS = 11


def _byte_rows(rows) -> np.ndarray:
    """Rows of four bytes as one uint32 each."""
    return np.asarray(rows, dtype=np.uint8).view(np.uint32).ravel()


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 0000..9999 as one uint32 each, and how many zeros each ends in."""
    digits = np.arange(10, dtype=np.uint8)
    groups = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), axis=-1)
    trailing = np.zeros(10000, dtype=np.uint8)
    for step in (10, 100, 1000, 10000):
        trailing[::step] += 1
    return _byte_rows(groups.reshape(-1, 4) + ord("0")), trailing


_DIGIT_GROUPS, _TRAILING_ZEROS = _digit_tables()
# _KEEP_AFTER[16 + c] keeps the bytes of a group after its first c (every byte
# for c <= 0, none for c >= 4), and _KEEP_BEFORE[c] those before its last c
_KEEP_AFTER = _byte_rows([[0] * c + [255] * (4 - c) for c in np.clip(range(-16, 20), 0, 4)])
_KEEP_BEFORE = _byte_rows([[255] * (4 - c) + [0] * c for c in range(5)])
_POINT = _byte_rows([ord("."), 0, 0, 0])[0]


def _scaled_digits(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round-half-even(x * 10^(16 - e)) as int64, exact wherever the product is
    at least 2^53 (so the rounded product is an even integer): the two-product's
    error then rounds alone."""
    p = 16 - e
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    prod = x * _POW10[p]
    del p
    x_hi = x * _SPLIT
    x_hi -= x_hi - x
    x_lo = x - x_hi
    # err = x_lo*b_lo - (((prod - x_hi*b_hi) - x_lo*b_hi) - x_hi*b_lo), one step at a time
    err = prod - x_hi * b_hi
    err -= x_lo * b_hi
    err -= x_hi * b_lo
    del x_hi
    np.subtract(x_lo * b_lo, err, out=err)
    digits = prod.astype(np.int64)
    digits += np.rint(err).astype(np.int64)
    return digits


def _fixed_digits(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and the exponent e of each positive finite float of ``ax``,
    from an estimate ``e`` of floor(log10) that may be one off, and whether it
    prints in fixed notation (e in [-4, 16]); D is 10^16 and e is 0 where not."""
    kernel = (e >= -4) & (e <= 16)
    if not kernel.all():
        ax, e = np.where(kernel, ax, 1.0), np.where(kernel, e, 0)
    digits = _scaled_digits(ax, e)
    # an estimate one low puts D at 10^17 or above, one high below 10^16 or,
    # for x just below 10^e, at 10^16 itself: those are redone at e +- 1,
    # where D >= 10^17 is a carry into 10^16 at e + 1 (as a power of ten
    # takes it back); any still outside fixed notation go to format
    shift = (digits >= 10 ** 17).astype(np.intp) - (digits <= 10 ** 16)
    redo = np.flatnonzero(shift)
    if redo.size:
        e[redo] += shift[redo]
        inside = (e[redo] >= -4) & (e[redo] <= 16)
        kernel[redo[~inside]] = False
        redo = redo[inside]
        digits[redo] = _scaled_digits(ax[redo], e[redo])
        carry = redo[digits[redo] >= 10 ** 17]
        digits[carry] = 10 ** 16
        e[carry] += 1
        kernel[redo] &= (digits[redo] >= 10 ** 16) & (e[redo] <= 16)
        e[~kernel] = 0
        digits[~kernel] = 10 ** 16
    return digits, e, kernel


def _format_values(x: np.ndarray) -> np.ndarray:
    """``format(v, '.17g')`` of each float of ``x``, one row of 44 NUL-padded bytes each.

    Values in fixed notation are written from the 17 digits of
    :func:`_fixed_digits`, the integer part right-aligned and the fraction
    left-aligned; leading zeros of the integer part, trailing zeros of the
    fraction and a point with no fraction are NULs.  Zero, values in
    scientific notation and non-finite values are formatted by ``format``
    into their own rows.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    finite = np.isfinite(e)  # false for 0, inf and nan
    if not finite.all():
        ax, e = np.where(finite, ax, 1.0), np.where(finite, e, 0.0)
    digits, e, kernel = _fixed_digits(ax, e.astype(np.intp))
    kernel &= finite
    # D = q * 10^s + r splits off the integer part, or below 1 the first 16
    # digits of the fraction
    whole = e >= 0
    s = np.where(whole, 16 - e, -e)
    q = digits // _INT_POW10[s]
    r = digits - q * _INT_POW10[s]
    del digits, s
    out = np.empty((_GROUPS, len(x)), dtype=np.uint32)  # one group at a time
    # the integer part's max(e, 0) + 1 digits end at byte 19, so group k
    # starts with 19 - max(e, 0) - 4k NULs
    integer = np.where(whole, q, 0)
    lead = 35 - np.maximum(e, 0)  # 16 + 19 - max(e, 0)
    first = integer // 10 ** 16
    for k, index in enumerate([first, *_split4(integer - first * 10 ** 16, 4)]):
        np.bitwise_and(_DIGIT_GROUPS.take(index), _KEEP_AFTER.take(lead - 4 * k), out=out[k])
    del integer, lead, first, index
    # the fraction's 16 high digits and 4 low ones; from the last group on, a
    # group before only zero groups drops its trailing zeros
    high = np.where(whole, r * _INT_POW10[np.maximum(e, 0)], q)
    low = np.where(whole, 0, r) * _INT_POW10[np.minimum(4 + e, 4)]
    del q, r
    after = np.ones(len(x), dtype=bool)  # whether every later fraction group is zero
    for k, index in zip(range(10, 5, -1), [low, *reversed(_split4(high, 4))]):
        zeros = _TRAILING_ZEROS.take(index)
        zeros *= after
        np.bitwise_and(_DIGIT_GROUPS.take(index), _KEEP_BEFORE.take(zeros), out=out[k])
        after &= index == 0
    del high, low, index, zeros
    np.multiply(~after, _POINT, out=out[5])
    out = np.ascontiguousarray(out.T).view(np.uint8)
    out[:, 0] = (x < 0) * ord("-")  # one of group 0's three leading NULs
    fallback = np.flatnonzero(~kernel)
    if fallback.size:  # 44 bytes hold any float's text
        texts = np.array([format(v, ".17g") for v in x[fallback].tolist()], dtype=bytes)
        out[fallback] = 0
        out[fallback, :texts.itemsize] = texts.view(np.uint8).reshape(len(fallback), -1)
    return out


def _split4(number: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` four-digit groups of ``number`` < 10^(4 * count), the most
    significant first; the last may be ``number`` itself."""
    if count == 1:
        return [number]
    low = count // 2
    high = number // 10 ** (4 * low)
    return _split4(high, count - low) + _split4(number - high * 10 ** (4 * low), low)

