"""The text of a table of numbers: format_rows, CELL_FORMAT per cell, on all cells at once.

A cell x of decimal exponent e = floor(log10 |x|) prints the 17-digit
integer D = round(X), X = |x| 10^(16 - e).  With 10^(16 - e) = hi + lo
from _POW10, p = fl(|x| hi) is an integer wherever D can pass the test
below; Dekker's TwoProduct gives |x| hi - p exactly, and adding
fl(|x| lo) gives rest with X = p + rest to within 2^-48 for X < 10^17
(2^-45 for X < 10^18, where log10 rounds across a power of ten).  So
D = p + rint(rest) whenever rest lies more than 2^-20 from a
half-integer, and D checks e: 10^16 < D < 10^17 only if 10^16 <= X <
10^17.  Each cell becomes seven uint32 words of ASCII from tables (sign
and first digit, four groups of four digits, exponent, separator),
NUL-padded; the NULs are deleted once, from the whole table.  A cell the
fast path cannot prove is written by CELL_FORMAT itself: zero, NaN, an
infinity, |x| outside [1e-98, 1e16], rest within 2^-20 of a half-integer
(a possible tie, such as 2^-25 k) and D outside (10^16, 10^17).

experiments.format_rows imports this module at the first table a command
writes: compiling it and building its tables takes ~2-3 ms in a fresh
interpreter, which importing the package and the commands that write no
table do not pay.
"""

from __future__ import annotations

import numpy as np

from .experiments import CELL_FORMAT

# the fast path takes 1e-98 <= |x| <= 1e16: floor(log10 |x|) then has two
# digits and 10^(16 - e) is an integer, even where log10 rounds across a
# power of ten
_LOW, _HIGH = 1e-98, 1e16
# the decimal exponent e of each table row: 0 ... 16, then -99 ... -1, so
# that indexing from the end finds a negative e's row at index e
_EXPONENTS = [*range(17), *range(-99, 0)]
# a rest this close to a half-integer is left to CELL_FORMAT: X may be a tie
_WINDOW = 0.5 - 2.0 ** -20


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split v = head + tail, each of at most 26 significant bits."""
    scaled = (2.0 ** 27 + 1) * v
    head = scaled - (scaled - v)
    return head, v - head


# rows hi, lo, head, tail per exponent e: 10^(16 - e) = hi + lo, each
# rounded to the nearest double from exact integers (so within 2^-106
# relative), and hi = head + tail
_powers = [10 ** (16 - e) for e in _EXPONENTS]
_hi = np.array(_powers, dtype=float)
_POW10 = np.array([_hi, [p - int(h) for p, h in zip(_powers, _hi.tolist())], *_split(_hi)],
                  dtype=float)
# NUL-padded ASCII as uint32 words: the four digits of n < 10^4 at n; '-'
# if s = 1, the digit d and '.' at d + 10 s; 'e+dd' per exponent
_DIGITS = (np.stack(np.indices((10,) * 4, np.uint8), axis=-1) + ord("0")).view(np.uint32).ravel()
_LEAD = np.array([f"{s}{d}." for s in ("", "-") for d in range(10)], "S4").view(np.uint32)
_EXPONENT = np.array([f"e{e:+03d}" for e in _EXPONENTS], "S4").view(np.uint32)


def format_rows(numbers: np.ndarray) -> list[str]:
    """Row n of the 2-D numbers as ",".join(CELL_FORMAT % v for v in row), byte for byte."""
    x = np.asarray(numbers, dtype=float)
    mag = np.abs(x)
    # NaN, 0 and the infinities are clipped into range, so that log10 sees
    # only fast-path magnitudes; they fail the fast test below
    clipped = np.fmin(np.fmax(mag, _LOW), _HIGH)
    e = np.floor(np.log10(clipped)).astype(np.intp)
    hi, lo, head, tail = _POW10.take(e, axis=1)
    p = clipped * hi
    upper, lower = _split(clipped)
    rest = ((upper * head - p) + upper * tail + lower * head) + lower * tail + clipped * lo
    rounded = np.rint(rest)
    d = p.astype(np.int64) + rounded.astype(np.int64)
    fast = (clipped == mag) & (np.abs(rest - rounded) < _WINDOW) & (d > 10 ** 16) & (d < 10 ** 17)
    # the lead word's index is the first digit + 10 s; a slow cell's digits
    # only need to index the tables, as CELL_FORMAT overwrites them
    d = np.where(fast, d, 10 ** 16) + np.signbit(x) * 10 ** 17
    first = d // 10 ** 16
    d -= first * 10 ** 16
    halves = np.empty(x.shape + (2,), np.int64)
    np.floor_divide(d, 10 ** 8, out=halves[..., 0])
    np.subtract(d, halves[..., 0] * 10 ** 8, out=halves[..., 1])
    quads = halves // 10 ** 4
    out = np.empty(x.shape + (7,), np.uint32)
    out[..., 0] = _LEAD[first]
    out[..., 1:5:2] = _DIGITS[quads]
    out[..., 2:5:2] = _DIGITS[halves - quads * 10 ** 4]
    out[..., 5] = _EXPONENT[e]
    # one byte in a word of NULs, whichever its place in the word
    out[..., 6] = ord(",")
    out[:, -1, 6] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [CELL_FORMAT % v for v in x.ravel()[slow].tolist()]
        out.reshape(-1, 7)[slow, :6] = np.array(cells, "S24").view(np.uint32).reshape(-1, 6)
    return out.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
