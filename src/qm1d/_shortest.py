"""Shortest round-trip text of float arrays, equal to ``repr`` cell by cell.

``rows(values)`` returns, for finite floats of any shape, a ``shape + (24,)``
uint8 array: the ASCII of each cell's ``repr`` padded with ``PAD``, computed
over as few blocks of at most 2,048 cells as hold them.  The digits are
Schubfach's (R. Giulietti, "The Schubfach way to render doubles", 2020): the
shortest decimal inside the double's rounding interval, the one closest to
the double when several are that short, ties to even, as CPython's ``dtoa``
chooses.  A cell takes three round-to-odd products of its interval bounds
with a 126-bit power of ten, the values of Java's ``rop``, here from exact
128-bit products on 32-bit limbs, written in place into the uint64 array that
then holds the bounds.  Unlike Java's ``Double.toString``, which Schubfach's
reference code serves, one digit suffices: the candidate one digit shorter is
tried for every cell of two digits or more, and subnormals are not scaled by
ten.

The text then takes CPython's layout: fixed notation for a value
0.d1d2...dn 10^point with point from -3 to 16, else ``d.ddde±XX``, a ``-``
sign, and ``0.0``/``-0.0``.  A cell's source holds its 17 digits, its
exponent's sign and 3 digits, and a few constant bytes, and a block's
source is laid out by byte: its row j holds byte j of every cell.  Every
cell with the same sign, digit count and layout (one of 20 decimal points,
or an exponent of 2 or 3 digits) takes the same row of offsets into that
source.  The 792 rows, 152 KB of intp, are built on first use; one gather
per slice of cells adds each cell's index to its rows of offsets and writes
their bytes to the output.

No uint64 array meets an int64 one in an operation: numpy promotes that pair
to float64.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32, _M52, _M63 = _U(2**32 - 1), _U(2**52 - 1), _U(2**63 - 1)
_0, _1, _2, _3, _10, _32, _63 = (_U(v) for v in (0, 1, 2, 3, 10, 32, 63))
_E_MIN, _E_MAX = -292, 324  # the range of -k over all doubles: 617 powers
_DIGITS = 17  # every decimal significand is padded to this many digits
_WIDTH = 24  # len("-1.2345678901234567e-308")
PAD = 0xFF  # fills each row after its text: no UTF-8 text holds this byte
_POW10 = 10 ** np.arange(_DIGITS + 1, dtype=np.uint64)
# floor(x / 10^j) is floor((x + 1/2) float32(10^-j)) in float32 for integers
# x < 10^6: the product's error stays below a fifth of its distance to the
# next integer.
_INVERSE_POWERS = (10.0 ** -np.arange(5.0, -1.0, -1.0)[:, None]).astype(np.float32)
_PLACE = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]
# A cell's source: its 17 digit characters, the exponent's sign and 3
# digits, then these constants.
_EXPONENT = _DIGITS
_SOURCE = np.array([PAD, *b"-.0e"], dtype=np.uint8)
_PAD, _MINUS, _DOT, _ZERO, _E = range(_EXPONENT + 4, _EXPONENT + 4 + len(_SOURCE))
_LAYOUTS = 22  # fixed notation for 20 points, exponential for 2 exponent widths
# Cells formatted at once, and the length of a source row, which holds the
# byte of every cell of a block: 2,048.  A block's temporaries peak at about
# 171 bytes a cell; its fixed cost, about 130 us, is that of 260 cells of repr.
_BLOCK = 2048
_GATHER = 256  # cells per gather: its index takes 24 intp a cell
_CELLS = np.arange(_BLOCK, dtype=np.intp)[:, None]


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, read-only: each cached table is shared by every call."""
    table.flags.writeable = False
    return table


def _flog2pow10(e):
    """floor(e log2 10)."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers() -> np.ndarray:
    """(2, 617) uint64: g1 and g0 of g = floor(10^e 2^-r) + 1 = g1 2^63 + g0,
    with 2^125 <= 10^e 2^-r < 2^126, for e = -k from _E_MIN to _E_MAX."""
    words = []
    for e in range(_E_MIN, _E_MAX + 1):
        r = _flog2pow10(e) - 125
        if e >= 0:
            g = (10**e >> r if r >= 0 else 10**e << -r) + 1
        else:
            g = (1 << -r) // 10**-e + 1
        words.append((g >> 63, g & (2**63 - 1)))
    return _frozen(np.array(words, dtype=np.uint64).T.copy())


def _bounds(magnitude):
    """(c, k, v) for nonzero finite doubles given by their bits without the
    sign, overwritten by c: the significand c, the decimal exponent k and, as
    v[0], v[1], v[2], Schubfach's vbl, vb and vbr: 4 10^-k times the lower
    bound, value and upper bound of the rounding interval, rounded to odd."""
    biased = magnitude.view(np.int64) >> 52
    t = np.bitwise_and(magnitude, _M52, out=magnitude)
    irregular = (t == _0) & (biased > 1)  # c = 2^52: the gap below is half
    c = np.bitwise_or(t, _U(2**52), out=magnitude, where=biased != 0)
    q = np.maximum(biased, 1, out=biased)
    q -= 1075
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = np.add(q, _flog2pow10(-k) + 2, out=q).view(np.uint64)
    g = _powers().take(-_E_MIN - k, axis=1)

    # g c' for c' = 4c (row 1) and the bounds 4c - 2 (4c - 1 when irregular,
    # row 0) and 4c + 2 (row 2): exact 128-bit products, high and low words,
    # of g1 (g[0]) and g0 (g[1]) by 32-bit limbs of a = g and b = c' (rows 0, 2).
    high, low = np.empty((2, 3, 2, len(c)), dtype=np.uint64)
    a_hi, b_hi, a_lo, b_lo = high[0], high[2], low[0], low[2]
    np.right_shift(g, _32, out=a_hi)
    np.bitwise_and(g, _M32, out=a_lo)
    np.right_shift(c, _U(30), out=b_hi)  # both rows: no broadcast operand, faster
    np.bitwise_and(c << _2, _M32, out=b_lo)
    np.multiply(a_lo, b_lo, out=low[1])
    np.multiply(a_hi, b_lo, out=high[1])
    a_lo *= b_hi
    a_lo += np.right_shift(low[1], _32, out=b_lo)
    a_lo += np.bitwise_and(high[1], _M32, out=b_lo)  # the cross sum
    high[1] >>= _32
    high[1] += np.multiply(a_hi, b_hi, out=a_hi)
    high[1] += np.right_shift(a_lo, _32, out=b_hi)
    low[1] &= _M32
    low[1] |= np.left_shift(a_lo, _32, out=a_lo)
    step = np.left_shift(g, _1, out=g)
    np.add(low[1], step, out=low[2])
    np.add(high[1], low[2] < step, out=high[2])
    step[:, irregular] >>= _1
    np.subtract(low[1], step, out=low[0])
    np.subtract(high[1], low[1] < step, out=high[0])
    del g, step, irregular

    # Java's rop(g1, g0, c' << h): y1 and x1, g1 c' 2^h and g0 c' 2^h over 2^64
    # rounded down, in ``high``; y0, the low word of g1 c' 2^h; z = y0 / 2 + x1.
    y1, x1, y0, z = high[:, 0], high[:, 1], low[:, 0], low[:, 1]
    high <<= h
    x1 |= np.right_shift(z, _U(64) - h, out=z)
    np.left_shift(y0, h, out=z)
    y1 |= np.right_shift(y0, _U(64) - h, out=y0)
    z >>= _1
    z += x1
    y1 += np.right_shift(z, _63, out=y0)
    z &= _M63
    z += _M63
    y1 |= np.right_shift(z, _63, out=z)
    return c, k, y1


def _decimal(magnitude):
    """(f, k) with f 10^k the shortest round-trip decimal of each nonzero
    finite double, given by its bits without the sign."""
    c, k, (lowest, vb, highest) = _bounds(magnitude)
    out = c & _1  # an odd significand's interval is open
    lowest += out  # 4x is inside iff lowest <= 4x <= highest
    highest -= out
    s = vb >> _2
    # One digit shorter: the multiple of 10 next to s, if exactly one of the
    # two lies in the interval.
    sp10 = (s // _10) * _10
    upin = lowest <= sp10 << _2
    wpin = (sp10 << _2) + _U(40) <= highest
    shorter = (upin != wpin) & (s >= _10)
    # Else s or s + 1, whichever lies in the interval, or the closer of the
    # two, s on a tie when s is even.
    uin = lowest <= vb & ~_3
    win = (vb | _3) + _1 <= highest
    take_s = np.where(uin != win, uin, (vb & _3) + (s & _1) < _3)
    f = np.where(shorter, sp10 + _10 * wpin, s + ~take_s)
    return f, k


def _row(negative: bool, n: int, layout: int) -> list[int]:
    """Source columns of the text of a cell 0.d1...dn 10^point with ``n``
    significant digits (0 for zero): in fixed notation for point =
    ``layout - 3`` when ``layout`` < 20, else in exponential notation with
    a 2-digit exponent (``layout`` 20) or a 3-digit one (21)."""
    digits = list(range(n))
    point = layout - 3
    if n == 0:
        body = [_ZERO, _DOT, _ZERO]
    elif layout >= 20:
        body = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        body += [_E, _EXPONENT] + [_EXPONENT + 1 + i for i in range(21 - layout, 3)]
    elif point <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -point + digits
    elif point < n:
        body = digits[:point] + [_DOT] + digits[point:]
    else:
        body = digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    row = [_MINUS] * negative + body
    return row + [_PAD] * (_WIDTH - len(row))


@functools.cache
def _layouts() -> np.ndarray:
    """(792, 24) intp: the offsets into a block's source of the row of every
    layout key, (negative (_DIGITS + 1) + n) _LAYOUTS + layout."""
    return _frozen(np.array([_row(negative, n, layout) for negative in (False, True)
                             for n in range(_DIGITS + 1) for layout in range(_LAYOUTS)],
                            dtype=np.intp) * _BLOCK)


def _block(x: np.ndarray, out: np.ndarray):
    """Write the rows of the cells ``x`` to ``out``."""
    bits = np.ascontiguousarray(x).view(np.uint64)
    magnitude = bits & _M63
    zero = magnitude == _0
    magnitude[zero] = _U(0x3FF0000000000000)  # 1.0 stands in for 0.0
    f, k = _decimal(magnitude)
    del magnitude

    # f 10^k = 0.d1...d17 10^point.  The digits of f padded to 17 digits,
    # in three groups of six (a leading zero first), and of |point - 1|, the
    # exponent, each group a float32 row: rows (4, 6, len) of digits.
    count = (f >= _POW10[16]) + np.intp(16)  # digits: 16 or 17 unless subnormal
    small = f < _POW10[15]
    if small.any():
        count[small] = np.searchsorted(_POW10, f[small], side="right")
    point = count + k
    f *= _POW10[_DIGITS - count]
    digits = np.empty((4, 1, len(x)), dtype=np.float32)
    digits[0, 0] = top = f // _U(10**12)
    f -= top * _U(10**12)
    digits[1, 0] = middle = f // _U(10**6)
    digits[2, 0] = f - middle * _U(10**6)
    digits[3, 0] = exponent = np.abs(point - 1)
    del f, k, count, small, top, middle
    digits += np.float32(0.5)
    digits = digits * _INVERSE_POWERS
    np.floor(digits, out=digits)
    digits[:, 3:] -= np.float32(10.0) * digits[:, 2:5]  # less ten times the row above,
    digits[:, 1:3] -= np.float32(10.0) * digits[:, :2]  # 3 rows at a time
    significand = digits[:3].reshape(18, len(x))[1:]
    n = ((significand != 0) * _PLACE).max(axis=0)  # significant digits
    n[zero] = 0
    digits += np.float32(ord("0"))
    source = np.empty((_EXPONENT + 4 + len(_SOURCE), _BLOCK), dtype=np.uint8)
    cells = source[:, :len(x)]  # byte j of cell i is source[j, i]
    cells[:_DIGITS] = significand
    cells[_EXPONENT] = np.where(point > 0, ord("+"), ord("-"))
    cells[_EXPONENT + 1:_EXPONENT + 4] = digits[3, 3:]
    cells[_EXPONENT + 4:] = _SOURCE[:, None]
    del digits, significand, cells

    # The layout: fixed notation for a point from -3 to 16, else exponential.
    layout = point + 3
    layout = np.where(layout.view(np.uint64) < _U(20), layout, 20 + (exponent >= 100))
    keys = ((bits >> _63).astype(np.intp) * (_DIGITS + 1) + n) * _LAYOUTS + layout
    del point, exponent, n, zero, layout  # before the gathers
    for lo in range(0, len(x), _GATHER):
        index = _layouts().take(keys[lo:lo + _GATHER], axis=0)
        index += _CELLS[lo:lo + len(index)]
        source.take(index, out=out[lo:lo + _GATHER])


def rows(values) -> np.ndarray:
    """``shape + (24,)`` uint8 for finite floats of any shape: each cell's row
    is the ASCII of ``repr(float(cell))`` followed by ``PAD`` (float32 and
    float16 cells as the doubles they widen to)."""
    x = np.asarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("only finite floats have a shortest round-trip text")
    shape, x = x.shape, x.ravel()
    out = np.empty((len(x), _WIDTH), dtype=np.uint8)
    blocks = -(-len(x) // _BLOCK) or 1  # as few blocks as hold the cells
    bounds = [len(x) * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _block(x[lo:hi], out[lo:hi])
    return out.reshape(shape + (_WIDTH,))
