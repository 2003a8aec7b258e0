"""Tests for unit helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import units


def test_time_constants():
    assert units.US == 1_000
    assert units.MS == 1_000_000
    assert units.SEC == 1_000_000_000


def test_time_constructors_round_trip():
    assert units.us(86) == 86_000
    assert units.ms(1.5) == 1_500_000
    assert units.sec(0.25) == 250_000_000
    assert units.ns_to_us(units.us(42)) == 42.0
    assert units.ns_to_ms(units.ms(10)) == 10.0
    assert units.ns_to_sec(units.sec(2)) == 2.0


def test_transmission_delay_10gbps():
    # 1250 bytes = 10_000 bits at 10 Gb/s -> 1 us.
    assert units.transmission_delay_ns(1250, units.gbps(10)) == 1000


def test_transmission_delay_minimum_one_ns():
    assert units.transmission_delay_ns(1, units.gbps(100)) >= 1


def test_transmission_delay_empty():
    assert units.transmission_delay_ns(0, units.gbps(10)) == 0


def test_cycles_to_ns_at_1ghz():
    assert units.cycles_to_ns(1000, units.ghz(1)) == 1000


def test_cycles_to_ns_minimum_one():
    assert units.cycles_to_ns(1, units.ghz(100)) == 1
    assert units.cycles_to_ns(0, units.ghz(1)) == 0


def test_ns_to_cycles_inverse():
    freq = units.ghz(3.1)
    cycles = 12_345.0
    ns = units.cycles_to_ns(cycles, freq)
    assert units.ns_to_cycles(ns, freq) == pytest.approx(cycles, rel=1e-3)


def test_rate_helpers():
    assert units.gbps(10) == 10e9
    assert units.mbps(5) == 5e6
    assert units.ghz(3.1) == pytest.approx(3.1e9)
    assert units.mhz(800) == pytest.approx(0.8e9)


def _old_transmission_delay_ns(size_bytes, bandwidth_bps):
    if size_bytes <= 0:
        return 0
    return max(1, round(size_bytes * units.BITS_PER_BYTE / bandwidth_bps * units.SEC))


def _old_cycles_to_ns(cycles, freq_hz):
    if cycles <= 0:
        return 0
    return max(1, round(cycles / freq_hz * units.SEC))


@settings(max_examples=300, deadline=None)
@given(
    size_bytes=st.integers(min_value=-64, max_value=10_000_000),
    bandwidth_bps=st.floats(min_value=1e3, max_value=1e13),
)
def test_transmission_delay_matches_max_round_formula(size_bytes, bandwidth_bps):
    got = units.transmission_delay_ns(size_bytes, bandwidth_bps)
    assert got == _old_transmission_delay_ns(size_bytes, bandwidth_bps)
    assert type(got) is int


@settings(max_examples=300, deadline=None)
@given(
    cycles=st.one_of(
        st.floats(min_value=-1e6, max_value=1e10),
        st.integers(min_value=-10, max_value=10**9),
    ),
    freq_hz=st.floats(min_value=1e6, max_value=1e10),
)
def test_cycles_to_ns_matches_max_round_formula(cycles, freq_hz):
    got = units.cycles_to_ns(cycles, freq_hz)
    assert got == _old_cycles_to_ns(cycles, freq_hz)
    assert type(got) is int
    assert (got == 0) == (cycles <= 0)
