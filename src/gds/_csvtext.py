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


def format_g9(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``'%.9g' % v`` of every value of the float64 array ``x``, as two
    uint64 arrays of ``x``'s shape (lo, hi) that hold each text's 16-byte
    slot, NUL-padded."""
    mag = np.abs(x)
    fast = (mag >= _SMALLEST) & (mag < _LARGEST)
    scaled = np.where(fast, mag, 1.0)  # log10 sees no 0, NaN or inf
    e = np.floor(np.log10(scaled)).astype(np.intp)
    scaled *= np.take(_SCALE, e - _EMIN)
    m = np.rint(scaled)
    slow = (
        ~(fast | (mag == 0.0))
        | (np.abs(scaled - m) > 0.5 - _TIE_GAP)
        | (scaled < 99999999.99)
        | (scaled >= 1e9)
    )
    m = m.astype(np.intp)
    m *= fast  # zero renders as the digits of m = 0 at e = 0
    carry = m == 1_000_000_000
    e += carry
    m[carry] = 100_000_000

    first = m // 100_000_000
    rest = m - first * 100_000_000
    mid4 = rest // 10000
    low4 = rest - mid4 * 10000
    low_ascii = np.take(_ASCII4, low4)
    # the nine digits as bytes 0-8 of (d_lo, d_hi)
    d_lo = (
        (first.astype(_U64) + _U64(48))
        | np.take(_ASCII4, mid4) << _U64(8)
        | low_ascii << _U64(40)
    )
    d_hi = low_ascii >> _U64(24)
    kept = 9 - np.take(_TRAILING4, low4) - (low4 == 0) * np.take(_TRAILING4, mid4)

    # the digits before the point (head) move past the prefix, those after
    # it (tail) one byte further, past the '.'; bytes shifted out of lo
    # carry into hi
    key = (e - _EMIN) * 20 + kept * 2 + np.signbit(x)
    head_lo = d_lo & np.take(_HEAD_LO, key)
    head_hi = d_hi & np.take(_HEAD_HI, key)
    tail_lo = d_lo & np.take(_TAIL_LO, key)
    tail_hi = d_hi & np.take(_TAIL_HI, key)
    s1 = np.take(_HEAD_SHIFT, key)
    s2 = np.take(_TAIL_SHIFT, key)
    lo = head_lo << s1 | tail_lo << s2 | np.take(_CONST_LO, key)
    hi = (
        head_hi << s1 | head_lo >> np.take(_HEAD_CARRY, key)
        | tail_hi << s2 | tail_lo >> np.take(_TAIL_CARRY, key)
        | np.take(_CONST_HI, key)
    )

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
