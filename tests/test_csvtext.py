import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds._csvtext import format_g9


def g9_texts(values):
    """format_g9's slots, decoded: the oracle-comparable text of each value."""
    lo, hi = format_g9(np.array(values, dtype=np.float64))
    raw = np.stack([lo, hi], axis=-1).tobytes()
    return [raw[16 * i : 16 * i + 16].rstrip(b"\0").decode() for i in range(len(values))]


def assert_matches_percent(values):
    values = list(values)
    assert g9_texts(values) == ["%.9g" % v for v in values]


def _bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


def _signed(values):
    return [s * v for v in values for s in (1.0, -1.0)]


def test_signed_zeros():
    assert g9_texts([0.0, -0.0]) == ["0", "-0"]


def test_every_layout():
    # each exponent the tables hold and a few past them, each count of kept
    # digits, both signs: every fixed, 0.000-prefixed and exponent layout
    values = [
        float(f"{'123456789'[:kept]}e{e - kept + 1}")
        for e in range(-40, 34)
        for kept in range(1, 10)
    ]
    assert_matches_percent(_signed(values))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-330, 309):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    assert_matches_percent(_signed(values))


def test_rounding_carries_into_the_next_decade():
    # the 9-digit mantissa rounds up to 10**9 and carries
    values = [float(f"9.999999995e{e}") for e in range(-38, 32)]
    values += [float(f"9.9999999996e{e}") for e in range(-38, 32)]
    assert_matches_percent(_signed(values))


@pytest.mark.parametrize("off_by", [-1.0, 1.0])
def test_a_wrong_exponent_estimate_is_caught(off_by, monkeypatch):
    # log10 a decade off: the scaled mantissa leaves [99999999.99, 1e9), or
    # lands where rint still gives the right digits
    mantissas = ("9.5", "9.9999999999", "1", "3.14159265")
    values = _signed([float(f"{digits}e{e}") for e in range(-36, 30) for digits in mantissas])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + off_by)
    assert_matches_percent(values)


class TestAgainstPercentFormat:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            min_size=1,
            max_size=64,
        )
    )
    def test_any_float(self, values):
        assert_matches_percent(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, patterns):
        assert_matches_percent(_bits(p) for p in patterns)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(10**8, 10**9 - 1), st.integers(-45, 38), st.booleans()),
            min_size=1,
            max_size=64,
        )
    )
    def test_ten_digit_ties(self, draws):
        # ten significant digits ending in 5: the decimal sits on a rounding
        # tie, and the double just above or below it
        assert_matches_percent(
            float(f"{'-' if neg else ''}{digits}5e{exp}") for digits, exp, neg in draws
        )
