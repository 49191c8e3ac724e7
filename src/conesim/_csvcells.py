"""A trace's CSV rows formatted in numpy, each float cell exactly as Python's
'%.17g' prints its value and empty for NaN; `SimulationTrace.write_csv`
imports it on first use."""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np


def csv_body(columns) -> bytes:
    """The CSV rows of the float columns, each '\\n', the step t and a cell
    per column; a column that is all NaN is written empty, without digits."""
    rows = len(columns[0])
    absent = [bool(np.isnan(np.fmax.reduce(c))) for c in columns]
    present = [c for c, a in zip(columns, absent) if not a]
    return b"".join(
        _csv_rows(present, absent, t, min(rows, t + _CSV_ROWS)) for t in range(0, rows, _CSV_ROWS)
    )


# A float x with 1e-100 <= |x| <= 1e100 prints from its decimal exponent
# X = floor(log10 |x|) and the 17 digits D of y = |x| 10^(16-X), in
# [1e16, 1e17), rounded half-even: '%.17g' shows D without its trailing zeros,
# in fixed notation when -4 <= X < 17.
# - X is X0 or X0 + 1, X0 that of 2^(e-1) for frexp's exponent e, split
#   exactly at the least float >= 10^(X0+1).
# - y = p + lo: p = fl(|x| hi) and lo the rest of |x| (hi + hi'), where
#   hi + hi' is 10^(16-X) to 105 bits. |x| hi - p is exact by Dekker's
#   splitting into 26-bit halves, at most 2^3, and |x| hi' is below 2^4
#   (y < 2^57), so lo errs by less than 2^-46: two roundings and the table's.
# - Python formats (`_python_format`) a cell whose lo is within _TIE_MARGIN
#   of a half, subnormals, infinities and |x| outside the range; NaN and
#   zeros need no digits.
# - A cell is six 8-byte words in a fixed layout: ',' '-' '0' '.' '0' '0'
#   '0' d0, then d1..d16 each after a '.', then 'e', the exponent's sign and
#   three digits. A mask chosen by its shape (notation, X, number of digits)
#   zeroes the bytes it does not show, and one pass drops every zero byte.
#
# _CSV_ROWS bounds a block's memory (about 200 bytes per cell) and divides
# 10^4, so that t // 10^4 is the same for every row of a block.
_CSV_ROWS = 5000
_LOW, _HIGH = 1e-100, 1e100  # the |x| the tables cover, whose X0 and X0 + 1 lie in
_XMIN, _XMAX = -102, 102
_TIE_MARGIN = 2.0**-32
_SPLIT = 2.0**27 + 1


class _CsvTables(NamedTuple):
    scale: np.ndarray  # rows hi, hi's 26-bit halves and hi' of 10^(16-X), by X - _XMIN
    first: np.ndarray  # X0 - _XMIN by frexp's exponent e, negative e from the end
    ceil: np.ndarray  # the least float >= 10^(X0+1), by e
    groups: np.ndarray  # the word of a 4-digit group, a '.' before each digit
    counts: np.ndarray  # digits up to a group's last nonzero one from d0, by group
    heads: np.ndarray  # a cell's first word by sign and d0
    exps: np.ndarray  # a cell's last word by X - _XMIN
    masks: np.ndarray  # a cell's six masks by shape
    shapes: np.ndarray  # a cell's shape less its digit count, by X - _XMIN
    t4: np.ndarray  # t % 10^4 as 4 bytes, without and with leading zeros


@cache
def _csv_tables() -> _CsvTables:
    """The numpy CSV writer's tables, built on first use."""
    xs = range(_XMIN, _XMAX + 1)
    tens = [10**k for k in range(_XMAX + 17)]
    scale, ceil = [], []  # ceil: the least float >= 10^X
    for X in xs:
        f = float(f"1e{X}")  # 10^X correctly rounded
        n, d = f.as_integer_ratio()
        below = n < d * tens[X] if X >= 0 else n * tens[-X] < d
        ceil.append(math.nextafter(f, math.inf) if below else f)
        num, den = (tens[16 - X], 1) if X <= 16 else (1, tens[X - 16])  # 10^(16-X)
        s = num.bit_length() - den.bit_length() - 110
        q = (num << -s) // den if s < 0 else (num >> s) // den  # 2^109 < q < 2^111
        hi = float(q)
        c = _SPLIT * hi
        h1 = c - (c - hi)
        scale.append([math.ldexp(v, s) for v in (hi, h1, hi - h1, float(q - int(hi)))])
    e = np.r_[0:1025, -1023:0]
    first = np.clip(((e - 1) * 78913 >> 18) - _XMIN, 0, len(xs) - 2)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()  # of 0000..9999
    groups = np.full((10000, 8), ord("."), np.uint8)
    groups[:, 1::2] = 48 + digits
    last = 4 - np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    counts = np.stack([np.where(last > 0, 4 * k + 1 + last, k == 0) for k in range(4)])  # 1: d0
    heads = [f",{sign}0.000{d}" for sign in "\0-" for d in range(10)]
    leading = np.cumsum(digits, axis=1, dtype=np.int16) > 0
    leading[:, 3] = True
    t4 = np.stack([(48 + digits) * leading, 48 + digits])
    xa = np.arange(_XMIN, _XMAX + 1)
    exps = np.zeros((len(xs), 8), np.uint8)
    exps[:, :2] = [ord("e"), ord("+")]
    exps[xa < 0, 1] = ord("-")
    exps[:, 2:5] = 48 + digits[np.abs(xa), 1:]
    # shapes: fixed notation by X in -4..16 and digit count n, then
    # exponent notation by exponent width (2, 3) and n
    X = np.r_[np.repeat(np.arange(-4, 17), 17), np.full(34, 99)][:, None]
    n = np.tile(np.arange(1, 18), 23)[:, None]
    wide = (np.arange(len(X)) >= 21 * 17 + 17)[:, None]
    fixed = X < 17
    pos = np.arange(48)
    j = (pos - 7) // 2  # d_j at byte 7 + 2j, the '.' after it at 8 + 2j
    shown = np.where(fixed & (X >= 0), np.maximum(n, X + 1), n)
    point = np.where(fixed, np.where(n > X + 1, X, -1), np.where(n > 1, 0, -1))
    keep = (
        (pos < 2)
        | ((pos >= 7) & (pos < 40) & (pos % 2 == 1) & (j < shown))
        | ((pos >= 8) & (pos < 40) & (pos % 2 == 0) & (j == point))
        | (fixed & (X < 0) & (pos >= 2) & (pos < 3 - X))
        | (~fixed & (np.isin(pos, [40, 41, 43, 44]) | (wide & (pos == 42))))
    )
    shape = np.where((xa >= -4) & (xa < 17), (xa + 4) * 17, 357 + 17 * (np.abs(xa) >= 100)) - 1
    tables = _CsvTables(
        np.array(scale).T.copy(),
        first,
        np.array(ceil)[first + 1],
        groups.view(np.uint64)[:, 0],
        counts.astype(np.int8),
        _ascii(heads, 8).view(np.uint64)[:, 0],
        exps.view(np.uint64)[:, 0],
        (keep * np.uint8(255)).astype(np.uint8).view(np.uint64),
        shape,
        t4.view(np.uint32)[..., 0],
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _ascii(strings, width: int) -> np.ndarray:
    """ASCII strings as the rows of a uint8 array, zero padded to `width`."""
    data = b"".join(s.encode("ascii").ljust(width, b"\0") for s in strings)
    return np.frombuffer(data, np.uint8).reshape(-1, width)


def _python_format(values: np.ndarray) -> list[str]:
    """The cells the numpy writer leaves to Python."""
    return ["%.17g" % v for v in values.tolist()]


def _csv_rows(present: list, absent: list, start: int, stop: int) -> bytes:
    """Rows start..stop-1 of the CSV body, each '\\n', t and the cells; `present`
    holds the columns not flagged in `absent`."""
    rows = stop - start
    head = str(start // 10**4) if start >= 10**4 else ""
    at = [c for c, a in enumerate(absent) if not a]
    lead = at[0] if at else len(absent)
    width = (len(head) + lead + 12) // 8  # words of '\n', t and leading commas
    table = np.empty((rows, width + 6 * len(at)), np.uint64)
    b = table.view(np.uint8)
    b[:, : 8 * width] = _ascii(["\n" + head + "0000" + "," * lead], 8 * width)
    t4 = np.take(_csv_tables().t4[int(start >= 10**4)], np.arange(start, stop) % 10**4)
    b[:, 1 + len(head) : 5 + len(head)] = t4.view(np.uint8).reshape(rows, 4)
    words = table[:, width:].reshape(rows, len(at), 6)
    if at:
        _format_cells(np.stack([c[start:stop] for c in present], axis=1), words)
    # the absent columns after a present one: commas in its cell's last bytes
    for c, (here, end) in enumerate(zip(at, at[1:] + [len(absent)])):
        if end > here + 1:
            words[:, c, 5] |= _ascii(["\0" * 5 + "," * (end - here - 1)], 8).view(np.uint64)[0]
    return b.tobytes().translate(None, b"\0")


def _format_cells(x: np.ndarray, words: np.ndarray) -> None:
    """Write ',' and the '%.17g' of each float of x, (rows, k), into the six
    words of its cell, `words` (rows, k, 6)."""
    tables = _csv_tables()
    D, i, rare = _digits(x)
    high = D // 10**8
    D -= high * 10**8
    d0 = high // 10**8
    high -= d0 * 10**8
    Q = np.empty((4,) + x.shape, np.intp)  # d1..d16 in 4-digit groups
    np.floor_divide(high, 10**4, out=Q[0])
    np.floor_divide(D, 10**4, out=Q[2])
    np.subtract(high, Q[0] * 10**4, out=Q[1])
    np.subtract(D, Q[2] * 10**4, out=Q[3])
    del D, high
    d0 += 10 * np.signbit(x)
    words[..., 0] = np.take(tables.heads, d0)
    words[..., 1:5] = np.moveaxis(np.take(tables.groups, Q), 0, -1)
    words[..., 5] = np.take(tables.exps, i)
    n = np.take(tables.counts[0], Q[0])
    for k in (1, 2, 3):
        np.maximum(n, np.take(tables.counts[k], Q[k]), out=n)
    i = np.take(tables.shapes, i)
    i += n
    words &= np.take(tables.masks, i, axis=0)
    if rare.any():
        r, c = np.nonzero(rare)
        v = x[r, c]
        hard = ~np.isnan(v) & (v != 0)  # NaN is empty, a zero "0" or "-0"
        cells = np.where(np.isnan(v), "", np.where(np.signbit(v), "-0", "0")).astype(object)
        cells[hard] = _python_format(v[hard])
        words[r, c] = _ascii(("," + s for s in cells), 48).view(np.uint64)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X - _XMIN and the cells left to Python or written without digits,
    for the floats of x, as the comment above _CSV_ROWS derives them."""
    scale, first, ceil = _csv_tables()[:3]
    ax = np.abs(x)
    a = np.fmax(np.fmin(ax, _HIGH), _LOW)  # NaN to _HIGH: no NaN past here
    rare = a != ax
    e = np.frexp(a)[1]
    i = np.take(first, e)
    i += a >= np.take(ceil, e)
    h = np.take(scale[0], i)
    p = a * h
    lo = a * np.take(scale[3], i, out=h)
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = np.subtract(a, a1, out=c)
    del ax
    np.take(scale[1], i, out=h)
    err = a1 * h  # |x| hi - p, exact in Dekker's order of the four products
    err -= p
    t = a2 * h
    err += t
    np.take(scale[2], i, out=h)
    err += np.multiply(a1, h, out=t)
    err += np.multiply(a2, h, out=t)
    lo += err
    r = np.rint(lo)
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    lo -= r
    rare |= np.abs(lo, out=lo) > 0.5 - _TIE_MARGIN
    carry = D == 10**17
    D -= carry * (9 * 10**16)
    i += carry
    return D, i, rare
