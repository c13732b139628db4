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

A CSV row is a run of cells of three words each: the 16 text bytes,
NUL-padded, then the separator byte. No text holds a NUL, so dropping the
NULs of a block of rows leaves its CSV lines.
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
    """Work arrays for ``format_g9`` over float64 arrays of one shape.

    A writer that encodes block after block of one shape reuses their
    pages. Fresh temporaries above malloc's mmap threshold (128 KiB) would
    be mapped, faulted in and unmapped on every block; with the work
    arrays a block allocates only its ``log10`` estimate and the rare
    slow-path texts."""

    def __init__(self, shape):
        def empty(dtype):
            return np.empty(shape, dtype)

        self.mag, self.scaled, self.tmp = (empty(np.float64) for _ in range(3))
        self.fast, self.slow, self.flag = (empty(np.bool_) for _ in range(3))
        self.e, self.m, self.first, self.rest, self.mid4, self.low4, self.kept = (
            empty(np.intp) for _ in range(7)
        )
        self.d_lo, self.d_hi, self.head_lo, self.head_hi, self.tail_lo, self.tail_hi = (
            empty(_U64) for _ in range(6)
        )
        self.shift1, self.shift2, self.word, self.lo, self.hi = (empty(_U64) for _ in range(5))


def format_g9(x: np.ndarray, work: G9Work = None) -> Tuple[np.ndarray, np.ndarray]:
    """``'%.9g' % v`` of every value of the float64 array ``x``, as two
    uint64 arrays of ``x``'s shape (lo, hi) that hold each text's 16-byte
    slot, NUL-padded. With ``work`` (of ``x``'s shape) the result is two of
    its arrays, overwritten by the next call that uses it."""
    # np.take copies through a buffer when given out= in its default
    # "raise" mode, so the lookups clip. Every index is in range: only a
    # wrong log10 could put an exponent outside the tables, and its scaled
    # mantissa then falls outside [99999999.99, 1e9), so the value takes
    # the slow path and its slot is rewritten.
    w = G9Work(x.shape) if work is None else work
    mag = np.abs(x, out=w.mag)
    fast = np.greater_equal(mag, _SMALLEST, out=w.fast)
    fast &= np.less(mag, _LARGEST, out=w.flag)
    scaled = w.scaled
    scaled.fill(1.0)
    np.copyto(scaled, mag, where=fast)  # log10 sees no 0, NaN or inf
    e = w.e
    log = np.log10(scaled)
    np.copyto(e, np.floor(log, out=log), casting="unsafe")
    scaled *= np.take(_SCALE, np.subtract(e, _EMIN, out=w.m), out=w.tmp, mode="clip")
    m_float = np.rint(scaled, out=w.tmp)
    slow = np.equal(mag, 0.0, out=w.slow)
    slow |= fast
    np.logical_not(slow, out=slow)
    diff = np.abs(np.subtract(scaled, m_float, out=w.mag), out=w.mag)
    slow |= np.greater(diff, 0.5 - _TIE_GAP, out=w.flag)
    slow |= np.less(scaled, 99999999.99, out=w.flag)
    slow |= np.greater_equal(scaled, 1e9, out=w.flag)
    m = w.m
    np.copyto(m, m_float, casting="unsafe")
    m *= fast  # zero renders as the digits of m = 0 at e = 0
    carry = np.equal(m, 1_000_000_000, out=w.flag)
    e += carry
    np.copyto(m, 100_000_000, where=carry)

    first = np.floor_divide(m, 100_000_000, out=w.first)
    rest = np.subtract(m, np.multiply(first, 100_000_000, out=w.rest), out=w.rest)
    mid4 = np.floor_divide(rest, 10000, out=w.mid4)
    low4 = np.subtract(rest, np.multiply(mid4, 10000, out=w.low4), out=w.low4)
    word = w.word
    low_ascii = np.take(_ASCII4, low4, out=w.d_hi, mode="clip")
    # the nine digits as bytes 0-8 of (d_lo, d_hi)
    d_lo = w.d_lo
    np.copyto(d_lo, first, casting="unsafe")
    d_lo += _U64(48)
    d_lo |= np.left_shift(np.take(_ASCII4, mid4, out=word, mode="clip"), _U64(8), out=word)
    d_lo |= np.left_shift(low_ascii, _U64(40), out=word)
    d_hi = np.right_shift(low_ascii, _U64(24), out=w.d_hi)
    # 9 - trailing zeros: of low4, and of mid4 too when low4 is 0000
    kept = np.take(_TRAILING4, mid4, out=w.kept, mode="clip")
    kept *= np.equal(low4, 0, out=w.flag)
    kept += np.take(_TRAILING4, low4, out=w.rest, mode="clip")
    np.subtract(9, kept, out=kept)

    # the digits before the point (head) move past the prefix, those after
    # it (tail) one byte further, past the '.'; bytes shifted out of lo
    # carry into hi
    key = np.subtract(e, _EMIN, out=w.first)
    key *= 20
    kept *= 2
    key += kept
    key += np.signbit(x, out=w.flag)
    head_lo = np.take(_HEAD_LO, key, out=w.head_lo, mode="clip")
    head_lo &= d_lo
    head_hi = np.take(_HEAD_HI, key, out=w.head_hi, mode="clip")
    head_hi &= d_hi
    tail_lo = np.take(_TAIL_LO, key, out=w.tail_lo, mode="clip")
    tail_lo &= d_lo
    tail_hi = np.take(_TAIL_HI, key, out=w.tail_hi, mode="clip")
    tail_hi &= d_hi
    s1 = np.take(_HEAD_SHIFT, key, out=w.shift1, mode="clip")
    s2 = np.take(_TAIL_SHIFT, key, out=w.shift2, mode="clip")
    lo = np.left_shift(head_lo, s1, out=w.lo)
    lo |= np.left_shift(tail_lo, s2, out=word)
    lo |= np.take(_CONST_LO, key, out=word, mode="clip")
    hi = np.left_shift(head_hi, s1, out=w.hi)
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


def row_slots(rows: int, cells: int) -> np.ndarray:
    """Empty CSV rows as a (rows, cells, 3) uint64 array: words 0-1 of a
    cell take its text slot, word 2 holds its separator, a comma after
    every cell but the last, which ends its line."""
    slots = np.zeros((rows, cells, 3), _U64)
    slots[:, :-1, 2] = ord(",")
    slots[:, -1, 2] = ord("\n")
    return slots


def join_rows(slots: np.ndarray) -> np.ndarray:
    """The CSV lines of ``row_slots`` rows, as a uint8 array."""
    raw = slots.view(np.uint8).ravel()
    return raw[raw != 0]
