"""paths.csv's number formatter: _g17, an exact vectorized format(x, ".17g").

Every finite x with 1e-10 <= |x| < 1e15 gets its 17 digits from its
significand times 5**k (k <= 27, a product below 2**117 held in two uint64
limbs), rounded half to even on the exact remainder, and is laid out by
the %g rules from tables; every other value (+-0, subnormals, smaller or
larger magnitudes, inf, nan) is formatted one at a time by format itself.
_rows_text assembles a chunk of paths.csv's rows from NUL-padded byte
cells (_cells) and drops the NULs, so the written bytes are those of
format(v, ".17g"), value by value.

Only cli's paths.csv writer imports this module, inside its call, so a
command that writes no paths.csv neither compiles nor imports it.
"""

from __future__ import annotations

import numpy as np

# _g17's arithmetic. A value x in [1e-10, 1e15) is M * 2**(e - 53), with M its
# 53-bit integer significand; its decade d (10**d <= x < 10**(d + 1)) makes
# Q = M * 5**k, k = 16 - d, whose top bits floor(Q / 2**s), s = 53 - e - k,
# are the 17 digits floor(x * 10**k). 5**k for k in [0, 27] is kept split
# into 32-bit halves, so the 53 x 63-bit product is four partial products
# that each fit uint64.
_U64 = np.uint64
_POW5_HI, _POW5_LO = np.divmod(_U64(5) ** np.arange(28, dtype=_U64), _U64(1 << 32))
_LOW32 = _U64(0xFFFFFFFF)
_FRACTION = _U64((1 << 52) - 1)
_HIDDEN_BIT = _U64(1 << 52)
_E16, _E17 = _U64(10**16), _U64(10**17)
_G17_MIN, _G17_MAX = 1e-10, 1e15
_G17_WIDTH = 28


def _group_tables():
    """For every 4-digit group 0000-9999: its ASCII digits as one uint32 (in
    memory order); and, in row i for the group's place i in [0, 3] among the
    16 digits after the first, 4 * i plus the position in [1, 4] of its last
    nonzero digit, 0 for 0000."""
    digits = np.empty((10000, 4), np.uint8)
    for place in range(4):  # thousands, hundreds, tens, ones
        digits[:, place] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - place)), 10**place)
    last = np.full(10000, 4, np.uint8)
    for place in (3, 2, 1):  # multiples of 10, 100, 1000
        last[:: 10 ** (4 - place)] = place
    at = last + np.array([[0], [4], [8], [12]], np.uint8)
    at[:, 0] = 0
    return digits.view(np.uint32).ravel(), at


def _layout_tables():
    """The three cell rows of every layout code, as void items.

    A value is laid out in a cell of _G17_WIDTH bytes, NUL where nothing is
    written. Its digit row holds, by column: 0 a NUL, 1-4 the zeros "0000",
    5 the first of the 17 digits, 6-21 the other 16. The text takes column
    c of the digit row left of the point column P and column c - 1 right of
    it (the shift row), so the digits right of P move over by one; the keep
    row then clears what lies outside the text and the add row adds the
    point, a sign and an exponent. The code is ((d + 11) * 17 + t) * 2 +
    negative, for the decade d in [-11, 15] and the last nonzero digit t in
    [0, 16]:
    - %g writes fixed notation for -4 <= d < 17 and d.ddd...e-XX otherwise,
      which below 1e15 means d < -4. The point follows digit d of the 17 in
      fixed notation and digit 0 in exponent form: P = 6 + that.
    - The text runs from the first digit, or the "0" before the point when
      d < 0, to digit t (column 6 + t); when t is left of the point, to the
      last integer digit (column P - 1), without the point.
    - '-' goes just before the text, and "e-XX" in columns 24-27.
    The rows are built as bytes: 918 codes, a few slices each.
    """
    shift, keep, add = [], [], []
    for d in range(-11, 16):
        point_digit = d if d >= -4 else 0
        point, first = 6 + point_digit, 5 + min(point_digit, 0)
        left = b"\xff" * point + bytes(_G17_WIDTH - point)
        integer = bytes(first) + b"\xff" * (point - first) + bytes(_G17_WIDTH - point)
        fraction = bytes(first) + b"\xff" * (point - first) + b"\0" + b"\xff" * (_G17_WIDTH - 1 - point)
        plain = bytes(_G17_WIDTH - 4) + (b"e-%02d" % -d if d < -4 else bytes(4))
        dotted = plain[:point] + b"." + plain[point + 1:]
        for t in range(17):
            kept, marks = (integer, plain) if t <= point_digit else (fraction[:7 + t] + bytes(_G17_WIDTH - 7 - t), dotted)
            shift += [left, left]
            keep += [kept, kept]
            add += [marks, marks[:first - 1] + b"-" + marks[first:]]
    return tuple(np.frombuffer(b"".join(rows), f"V{_G17_WIDTH}") for rows in (shift, keep, add))


# _g17's tables, built at import in well under 1 ms: only simulate imports
# this module, and it always formats.
_TABLES = (*_group_tables(), *_layout_tables())

_DIGIT_ROW = np.array([0] + [48] * 4 + [0] * (_G17_WIDTH - 5), np.uint8).view(f"V{_G17_WIDTH}")


def _g17_fallback(x: float) -> bytes:
    """The per-value form, for what _g17 leaves out."""
    return format(x, ".17g").encode()


def _scaled(mant, e, d):
    """floor(Q / 2**s), Q mod 2**s and 2**(s - 1) for Q = mant * 5**(16 - d)
    and s = 53 - e - (16 - d) = 37 - e + d, elementwise.

    Q < 2**53 * 5**27 < 2**117 is held as two uint64 limbs. s lies in
    [1, 60] where d is the decade of the value, and in [1, 63] where d is one
    off (which log10 can give only next to a power of ten, where the value
    times 10**(16 - d) is near 10**16 or 10**17); so every shift count below
    is in [0, 63].
    """
    s = (37 - e + d).astype(_U64)
    pow_hi, pow_lo = _POW5_HI.take(16 - d), _POW5_LO.take(16 - d)
    mant_hi, mant_lo = mant >> _U64(32), mant & _LOW32
    low = mant_lo * pow_lo
    mid = mant_hi * pow_lo
    mid += mant_lo * pow_hi  # < 2**21 * 2**32 + 2**32 * 2**31 < 2**64
    q_hi = mant_hi * pow_hi
    q_hi += mid >> _U64(32)
    q_lo = low + (mid << _U64(32))  # mod 2**64: it wrapped where it is below low
    q_hi += q_lo < low
    one = _U64(1)
    top = q_hi << (_U64(64) - s)
    top |= q_lo >> s
    return top, q_lo & ((one << s) - one), one << (s - one)


def _decimal17(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits q (uint64, in [10**16, 10**17)) and the decade d of
    each value of mag, all in [1e-10, 1e15), so that round-half-to-even of
    mag * 10**(16 - d) is q, exactly.

    d is floor(log10(mag)), corrected where the truncated digits fall
    outside [10**16, 10**17); a carry of the rounding to 10**17 becomes
    10**16 at decade d + 1.
    """
    bits = mag.view(_U64)
    mant = (bits & _FRACTION) | _HIDDEN_BIT
    e = (bits >> _U64(52)).astype(np.int64) - 1022
    d = np.floor(np.log10(mag)).astype(np.int64)
    q, rem, half = _scaled(mant, e, d)
    off = np.flatnonzero((q < _E16) | (q >= _E17))
    if off.size:
        d[off] += np.where(q[off] >= _E17, 1, -1)
        q[off], rem[off], half[off] = _scaled(mant[off], e[off], d[off])
    q += (rem > half) | ((rem == half) & (q & _U64(1)).astype(bool))
    carry = np.flatnonzero(q == _E17)
    q[carry] = _E16
    d[carry] += 1
    return q, d


def _g17(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of every v in the float64 array x, as an
    (x.size, _G17_WIDTH) uint8 array of NUL-padded cells: the text is a
    cell's non-NUL bytes in order.

    Finite v with 1e-10 <= |v| < 1e15 are formatted exactly in uint64
    arithmetic: the 17 digits rounded half to even (see _decimal17), then
    the %g layout (see _layout_tables). Every other v is formatted by
    _g17_fallback.
    """
    n = x.size
    group_text, group_last, shift, keep, add = _TABLES
    mag = np.abs(x)
    fallback = np.flatnonzero(~((mag >= _G17_MIN) & (mag < _G17_MAX)))
    mag[fallback] = 1.0  # formatted below, and overwritten by the fallback
    q, d = _decimal17(mag)

    # The 17 digits (q < 10**17 < 2**63): the first, then four groups of four.
    rest = q.view(np.int64)
    lead = rest // 10**16
    rest -= lead * 10**16
    groups = np.empty((n, 4), np.intp)
    for i, power in enumerate((10**12, 10**8, 10**4)):
        groups[:, i] = rest // power
        rest -= groups[:, i] * power
    groups[:, 3] = rest
    last = group_last[0].take(groups[:, 0])  # index of the last nonzero digit, in [0, 16]
    for i in range(1, 4):
        np.maximum(last, group_last[i].take(groups[:, i]), out=last)
    row = np.empty(n * _G17_WIDTH + 1, np.uint8)
    row[0] = 0
    digits = row[1:].reshape(n, _G17_WIDTH)
    digits.view(f"V{_G17_WIDTH}")[:] = _DIGIT_ROW
    digits[:, 5] = lead + 48
    digits[:, 6:22] = group_text.take(groups).view(np.uint8)
    del rest, lead, groups  # freed before the cell-sized arrays: a lower peak

    code = ((d + 11) * 17 + last) * 2 + (x < 0)
    here, left = row[1:], row[:-1]  # column c and column c - 1 of each cell
    cells = shift.take(code).view(np.uint8)
    cells &= left ^ here
    cells ^= left
    cells &= keep.take(code).view(np.uint8)
    cells |= add.take(code).view(np.uint8)
    cells = cells.reshape(n, _G17_WIDTH)
    if fallback.size:
        text = [_g17_fallback(v) for v in x[fallback].tolist()]
        cells[fallback] = np.array(text, dtype=f"S{_G17_WIDTH}").view(np.uint8).reshape(-1, _G17_WIDTH)
    return cells


def _cells(texts: list[str]) -> np.ndarray:
    """The texts as rows of bytes as wide as the longest, padded with NULs on
    the right (which _rows_text drops)."""
    raw = [text.encode() for text in texts]
    width = max(map(len, raw))
    return np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)


def _take_rows(cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """cells[rows], one copy per row (not one per byte)."""
    width = cells.shape[1]
    return cells.view(f"V{width}").ravel().take(rows).view(np.uint8).reshape(rows.size, width)


def _rows_text(steps, columns, index, rows: slice, stock, dw) -> np.ndarray:
    """The bytes of a block's rows `rows`: each row is its step's row of
    `steps` with the path's `index` cell ending at columns[0] and the S and
    dW cells starting at columns[1] and columns[2], less every NUL."""
    index_end, s_at, dw_at = columns
    stock_cells, dw_cells = _g17(stock), _g17(dw)
    path, step = np.divmod(np.arange(rows.start, rows.stop), steps.shape[0])
    text = _take_rows(steps, step)
    text[:, index_end - index.shape[1]:index_end] = _take_rows(index, path)
    text[:, s_at:s_at + _G17_WIDTH] = stock_cells
    text[:, dw_at:dw_at + _G17_WIDTH] = dw_cells
    del stock_cells, dw_cells  # freed before the mask: a lower peak
    text = text.ravel()
    return text[text != 0]
