"""Byte-exact ``'%.9g' % v`` over float64 arrays, for the trace CSV.

Every value's text is built in a 16-byte slot held as two ``uint64``
words, with integer arithmetic. The words are read back as bytes, byte 0
first, which assumes a little-endian host (x86-64, arm64):

1. the decimal exponent ``e = floor(log10(|x|))``;
2. the 9-digit mantissa ``m = rint(|x| * 10**(8 - e))``; a mantissa that
   rounds up to ``10**9`` carries to ``10**8`` and ``e + 1``;
3. the nine ASCII digits of ``m`` from a 4-digit table, cut after the last
   non-zero digit that ``%g`` keeps, split at the decimal point and shifted
   in among the constant bytes of the value's layout: sign, ``0.000``
   prefix, ``.`` and exponent. A table keyed by (exponent, digits kept,
   sign) holds the layouts.

``%.9g`` rounds the exact binary value, half to even. The scaled mantissa
in step 2 takes two roundings (the power of ten, then the product), so it
is within 2.3e-7 of the exact ``|x| * 10**(8 - e)``, and ``rint`` rounds it
as ``%`` does whenever it is more than 1e-6 from a tie. Python's own ``%``
formats every value that the fast path cannot decide:

- the scaled mantissa is within 1e-6 of a rounding tie;
- the scaled mantissa is outside [99999999.99, 1e9), which also catches an
  exponent that ``log10`` got wrong;
- ``|x|`` is outside [1e-36, 1e30), the range whose exponents have two
  digits and whose powers of ten stay normal;
- the value is NaN or infinite.

Zero and -0.0 stay on the fast path.

Trace columns repeat: gains, zeros and a locked pose hold for many rows.
``format_runs`` compares each value's bit pattern with the one above it in
its column, formats only the first value of each run and copies its slot
down the run.

A CSV row is a run of 17-byte cells: the 16 text bytes, NUL-padded, then
the separator byte. No text holds a NUL, so dropping the NULs of a block
of rows (``bytearray.translate``) leaves its CSV lines.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

_EMIN, _EMAX = -37, 30  # decimal exponents the layout tables cover
_SMALLEST, _LARGEST = 1e-36, 1e30  # fast-path magnitudes: [_SMALLEST, _LARGEST)
_TIE_GAP = 1e-6
_U64 = np.uint64

# _SCALE[e - _EMIN] = 10**(8 - e), correctly rounded (parsed, not pow())
_SCALE = np.array([float(f"1e{8 - e}") for e in range(_EMIN, _EMAX + 1)])

_k = np.arange(10000, dtype=_U64)
# _ASCII4[k]: the four digits of k, zero-padded, as ASCII bytes 0-3
_ASCII4 = (
    (_k // 1000 + 48) | (_k // 100 % 10 + 48) << 8
    | (_k // 10 % 10 + 48) << 16 | (_k % 10 + 48) << 24
)
# _TRAILING4[k]: trailing decimal zeros of k as four digits (4 for k == 0)
_TRAILING4 = (_k % 10 == 0).astype(np.intp) + (_k % 100 == 0) + (_k % 1000 == 0) + (_k == 0)
del _k


def _low_bytes(n):
    """(lo, hi) words with bytes 0 .. n-1 set, for an int array n in 0..16."""
    ones = ~_U64(0)
    lo_n = np.minimum(n, 8).astype(_U64)
    hi_n = np.clip(n - 8, 0, 8).astype(_U64)
    lo = np.where(lo_n == 8, ones, (_U64(1) << 8 * lo_n) - _U64(1))
    hi = np.where(hi_n == 8, ones, (_U64(1) << 8 * hi_n) - _U64(1))
    return lo, hi


def _layouts():
    """One layout per key ``((e - _EMIN) * 10 + kept) * 2 + negative``:
    masks for the digits before and after the decimal point, their shifts
    and the constant bytes."""
    e, kept, neg = np.meshgrid(
        np.arange(_EMIN, _EMAX + 1), np.arange(10), np.arange(2), indexing="ij"
    )
    fixed = (e >= 0) & (e < 9)  # d.ddd up to ddddddddd
    small = (e >= -4) & (e < 0)  # 0.ddd up to 0.000ddd
    sci = ~(fixed | small)  # d.ddde+XX
    digits = np.where(fixed, np.maximum(kept, e + 1), kept)  # integer digits stay
    point = np.where(fixed, e + 1, 1)  # digits before the '.'
    dot = np.where(fixed, kept > e + 1, sci & (kept > 1))
    prefix = neg + np.where(small, 1 - e, 0)  # '-', then '0.' and -e-1 zeros
    body = digits + dot

    head_lo, head_hi = _low_bytes(np.where(dot, point, digits))
    all_lo, all_hi = _low_bytes(digits)
    cut_lo, cut_hi = _low_bytes(np.where(dot, point, 16))
    head_shift = (8 * prefix).astype(_U64)
    tail_shift = (8 * (prefix + 1)).astype(_U64)

    const = np.zeros(e.shape + (17,), np.uint8)  # byte 16 takes unused writes

    def put(pos, char, where):
        pos = np.where(where, pos, 16)[..., None]
        char = np.broadcast_to(np.asarray(char, np.uint8), e.shape)[..., None]
        np.put_along_axis(const, pos, char, axis=-1)

    put(0, ord("-"), neg == 1)
    put(neg, ord("0"), small)
    put(neg + 1, ord("."), small)
    for j in range(3):
        put(neg + 2 + j, ord("0"), small & (j < -e - 1))
    put(prefix + point, ord("."), dot)
    end = prefix + body
    put(end, ord("e"), sci)
    put(end + 1, np.where(e < 0, ord("-"), ord("+")), sci)
    put(end + 2, 48 + abs(e) // 10, sci)
    put(end + 3, 48 + abs(e) % 10, sci)
    const_words = np.ascontiguousarray(const[..., :16]).view(_U64)

    words = (
        head_lo, head_hi, all_lo & ~cut_lo, all_hi & ~cut_hi,
        head_shift, 64 - head_shift, tail_shift, 64 - tail_shift,
        const_words[..., 0], const_words[..., 1],
    )
    return tuple(np.ascontiguousarray(w, dtype=_U64).ravel() for w in words)


(
    _HEAD_LO, _HEAD_HI, _TAIL_LO, _TAIL_HI,
    _HEAD_SHIFT, _HEAD_CARRY, _TAIL_SHIFT, _TAIL_CARRY,
    _CONST_LO, _CONST_HI,
) = _layouts()


def pack_texts(texts: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi) slots of byte strings of at most 16 non-NUL bytes."""
    words = np.frombuffer(b"".join(t.ljust(16, b"\0") for t in texts), _U64)
    return words[0::2], words[1::2]


class G9Work:
    """Work arrays for ``format_g9`` over up to ``size`` values: ten rows
    of 8-byte words and three of flags.

    A writer that encodes block after block reuses their pages. Fresh
    temporaries above malloc's mmap threshold (128 KiB) would be mapped,
    faulted in and unmapped on every block; with the work arrays a block
    allocates only its ``log10`` estimate and the rare slow-path texts."""

    def __init__(self, size: int):
        self.rows = np.empty((10, size), _U64)
        self.flags = np.empty((3, size), np.bool_)


def format_g9(x: np.ndarray, work: G9Work = None) -> Tuple[np.ndarray, np.ndarray]:
    """``'%.9g' % v`` of every value of the 1-D float64 array ``x``, as two
    uint64 arrays (lo, hi) that hold each text's 16-byte slot, NUL-padded.
    With ``work`` (of at least ``len(x)`` values) the result is two of its
    arrays, overwritten by the next call that uses it."""
    # np.take copies through a buffer when given out= in its default
    # "raise" mode, so the lookups clip. Every index is in range: only a
    # wrong log10 could put an exponent outside the tables, and its scaled
    # mantissa then falls outside [99999999.99, 1e9), so the value takes
    # the slow path and its slot is rewritten.
    n = len(x)
    w = G9Work(n) if work is None else work
    # each row is reused once the value it held is dead: the floats give
    # way to the digit words, the integer stages to the layout words, and
    # the digit words to the result
    rows = list(w.rows[:, :n])
    mag, scaled, tmp = (r.view(np.float64) for r in rows[:3])
    e, m, first, rest, mid4, low4, kept = (r.view(np.intp) for r in rows[3:])
    d_lo, d_hi, word = rows[:3]
    head_lo, head_hi, _, tail_lo, tail_hi, shift1, shift2 = rows[3:]
    lo, hi = rows[:2]
    fast, slow, flag = w.flags[:, :n]
    np.abs(x, out=mag)
    np.greater_equal(mag, _SMALLEST, out=fast)
    fast &= np.less(mag, _LARGEST, out=flag)
    scaled.fill(1.0)
    np.copyto(scaled, mag, where=fast)  # log10 sees no 0, NaN or inf
    log = np.log10(scaled)
    np.copyto(e, np.floor(log, out=log), casting="unsafe")
    scaled *= np.take(_SCALE, np.subtract(e, _EMIN, out=m), out=tmp, mode="clip")
    m_float = np.rint(scaled, out=tmp)
    np.equal(mag, 0.0, out=slow)
    slow |= fast
    np.logical_not(slow, out=slow)
    diff = np.abs(np.subtract(scaled, m_float, out=mag), out=mag)
    slow |= np.greater(diff, 0.5 - _TIE_GAP, out=flag)
    slow |= np.less(scaled, 99999999.99, out=flag)
    slow |= np.greater_equal(scaled, 1e9, out=flag)
    np.copyto(m, m_float, casting="unsafe")
    m *= fast  # zero renders as the digits of m = 0 at e = 0
    carry = np.equal(m, 1_000_000_000, out=flag)
    e += carry
    np.copyto(m, 100_000_000, where=carry)

    np.floor_divide(m, 100_000_000, out=first)
    np.subtract(m, np.multiply(first, 100_000_000, out=rest), out=rest)
    np.floor_divide(rest, 10000, out=mid4)
    np.subtract(rest, np.multiply(mid4, 10000, out=low4), out=low4)
    low_ascii = np.take(_ASCII4, low4, out=d_hi, mode="clip")
    # the nine digits as bytes 0-8 of (d_lo, d_hi)
    np.copyto(d_lo, first, casting="unsafe")
    d_lo += _U64(48)
    d_lo |= np.left_shift(np.take(_ASCII4, mid4, out=word, mode="clip"), _U64(8), out=word)
    d_lo |= np.left_shift(low_ascii, _U64(40), out=word)
    np.right_shift(low_ascii, _U64(24), out=d_hi)
    # 9 - trailing zeros: of low4, and of mid4 too when low4 is 0000
    np.take(_TRAILING4, mid4, out=kept, mode="clip")
    kept *= np.equal(low4, 0, out=flag)
    kept += np.take(_TRAILING4, low4, out=rest, mode="clip")
    np.subtract(9, kept, out=kept)

    # the digits before the point (head) move past the prefix, those after
    # it (tail) one byte further, past the '.'; bytes shifted out of lo
    # carry into hi
    key = np.subtract(e, _EMIN, out=first)
    key *= 20
    kept *= 2
    key += kept
    key += np.signbit(x, out=flag)
    np.take(_HEAD_LO, key, out=head_lo, mode="clip")
    head_lo &= d_lo
    np.take(_HEAD_HI, key, out=head_hi, mode="clip")
    head_hi &= d_hi
    np.take(_TAIL_LO, key, out=tail_lo, mode="clip")
    tail_lo &= d_lo
    np.take(_TAIL_HI, key, out=tail_hi, mode="clip")
    tail_hi &= d_hi
    s1 = np.take(_HEAD_SHIFT, key, out=shift1, mode="clip")
    s2 = np.take(_TAIL_SHIFT, key, out=shift2, mode="clip")
    np.left_shift(head_lo, s1, out=lo)
    lo |= np.left_shift(tail_lo, s2, out=word)
    lo |= np.take(_CONST_LO, key, out=word, mode="clip")
    np.left_shift(head_hi, s1, out=hi)
    hi |= np.right_shift(head_lo, np.take(_HEAD_CARRY, key, out=word, mode="clip"), out=word)
    hi |= np.left_shift(tail_hi, s2, out=word)
    hi |= np.right_shift(tail_lo, np.take(_TAIL_CARRY, key, out=word, mode="clip"), out=word)
    hi |= np.take(_CONST_HI, key, out=word, mode="clip")

    where = np.nonzero(slow)
    if where[0].size:
        lo[where], hi[where] = pack_texts(
            [b"%.9g" % v for v in x[where].tolist()]
        )
    return lo, hi


class RunWork:
    """Work arrays for ``format_runs`` over up to ``size`` values, held
    for a whole file: the columns, their run marks, run indices, first
    values and spread texts, and ``format_g9``'s own."""

    def __init__(self, size: int):
        self.values = np.empty((2, size))
        self.new = np.empty(size, np.bool_)
        self.run = np.empty(size, np.intp)
        self.text = np.empty((2, size), _U64)
        self.g9 = G9Work(size)


def format_runs(x: np.ndarray, work: RunWork = None) -> Tuple[np.ndarray, np.ndarray]:
    """``format_g9`` of the 2-D float64 array ``x`` (at least one row),
    which formats a value only where its bit pattern differs from the one
    above it in its column, and copies each run's text down its rows. Bit
    patterns keep ``0.0`` and ``-0.0`` and NaN payloads apart. With
    ``work`` (of at least ``x.size`` values) the result is two of its
    arrays, overwritten by the next call that uses it."""
    rows, cols = x.shape
    n = x.size
    w = RunWork(n) if work is None else work
    flat = w.values[0, :n]
    values = flat.reshape(cols, rows)
    np.copyto(values, x.T)  # column after column: runs lie along rows
    bits = values.view(_U64)
    new = w.new[:n]
    marks = new.reshape(cols, rows)
    marks[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=marks[:, 1:])
    run = np.cumsum(new, out=w.run[:n])
    run -= 1  # each value's run, numbered in column order
    firsts = np.compress(new, flat, out=w.values[1, : run[-1] + 1])
    text = w.text[:, :n]
    for spread, first_text in zip(text, format_g9(firsts, w.g9)):
        np.take(first_text, run, out=spread, mode="clip")
    return tuple(t.reshape(cols, rows).T for t in text)


class RowSlots:
    """Empty CSV rows of ``cells`` cells, 17 bytes each: the 16 text bytes,
    NUL-padded, then the separator, a comma after every cell but the last,
    which ends its line. ``text[row, cell]`` is a cell's slot as two
    uint64 words (lo, hi); the views are unaligned, which numpy allows."""

    def __init__(self, rows: int, cells: int):
        self._row_bytes = 17 * cells
        self._buf = bytearray(rows * self._row_bytes)
        cell = np.frombuffer(self._buf, np.uint8).reshape(rows, cells, 17)
        self.text = cell[:, :, :16].view(_U64)
        cell[:, :-1, 16] = ord(",")
        cell[:, -1, 16] = ord("\n")

    def join(self, rows: int) -> bytearray:
        """The CSV lines of the first ``rows`` rows."""
        n = rows * self._row_bytes
        return (self._buf if n == len(self._buf) else self._buf[:n]).translate(None, b"\0")
