import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gds._csvtext import RunWork, format_g9, format_runs


def decode(lo, hi):
    """Each slot's text, for uint64 arrays (lo, hi) of one shape."""
    raw = np.stack([lo, hi], axis=-1).tobytes()
    return [raw[16 * i : 16 * i + 16].rstrip(b"\0").decode() for i in range(lo.size)]


def g9_texts(values):
    """format_g9's slots, decoded: the oracle-comparable text of each value."""
    return decode(*format_g9(np.array(values, dtype=np.float64)))


def assert_runs_match_percent(x, work=None):
    x = np.asarray(x, dtype=np.float64)
    assert decode(*format_runs(x, work)) == ["%.9g" % v for v in x.ravel().tolist()]


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


def test_runs_keep_signed_zeros_and_nan_payloads_apart():
    nan2 = _bits(0x7FF8000000000123)
    column = [0.0, 0.0, -0.0, 0.0, math.nan, nan2, nan2, -math.nan, math.inf, -math.inf, -math.inf]
    assert_runs_match_percent(np.array([column, column[::-1]]).T)


def test_runs_reuse_work_for_smaller_arrays():
    # a file's work arrays hold a full block; the last block is smaller
    work = RunWork(64 * 3)
    rng = np.random.default_rng(1)
    for rows in (64, 63, 1):
        assert_runs_match_percent(rng.choice([0.5, -0.0, 1e-300, 2.0], (rows, 3)), work)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(0, 3), min_size=1, max_size=80),
    )
    def test_runs_of_few_values(self, pools, picks):
        # column j takes pool j's values in the order picks give, so equal
        # neighbours run in every column
        x = [[pool[p % len(pool)] for pool in pools] for p in picks]
        assert_runs_match_percent(x)
