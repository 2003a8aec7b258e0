"""Time, data-size, and rate units used throughout the simulator.

The simulated clock is an integer number of **nanoseconds**.  Using integers
keeps event ordering exact and reproducible; floating-point time would make
tie-breaking depend on accumulated rounding error.

All public APIs accept and return plain ints (ns) or floats (rates), and the
helpers here are the single place unit arithmetic lives.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NS: int = 1
US: int = 1_000
MS: int = 1_000_000
SEC: int = 1_000_000_000

# --- data ------------------------------------------------------------------

BYTE: int = 1
KB: int = 1_000
MB: int = 1_000_000
GB: int = 1_000_000_000

BITS_PER_BYTE: int = 8


def ns_to_us(ns: int) -> float:
    """Convert integer nanoseconds to (float) microseconds."""
    return ns / US


def ns_to_ms(ns: int) -> float:
    """Convert integer nanoseconds to (float) milliseconds."""
    return ns / MS


def ns_to_sec(ns: int) -> float:
    """Convert integer nanoseconds to (float) seconds."""
    return ns / SEC


def us(value: float) -> int:
    """Microseconds -> integer nanoseconds (rounded)."""
    return round(value * US)


def ms(value: float) -> int:
    """Milliseconds -> integer nanoseconds (rounded)."""
    return round(value * MS)


def sec(value: float) -> int:
    """Seconds -> integer nanoseconds (rounded)."""
    return round(value * SEC)


def transmission_delay_ns(size_bytes: int, bandwidth_bps: float) -> int:
    """Serialization delay of ``size_bytes`` on a ``bandwidth_bps`` link.

    Returns an integer number of nanoseconds, at least 1 ns for any
    non-empty transfer so that ordering on a link is preserved.
    """
    if size_bytes <= 0:
        return 0
    delay = round(size_bytes * BITS_PER_BYTE / bandwidth_bps * SEC)
    # A compare, not max(1, ...): same int, a fraction of the call cost.
    return delay if delay > 1 else 1


def cycles_to_ns(cycles: float, freq_hz: float) -> int:
    """Time to execute ``cycles`` at ``freq_hz``, as integer ns (>= 1)."""
    if cycles <= 0:
        return 0
    ns = round(cycles / freq_hz * SEC)
    return ns if ns > 1 else 1


def ns_to_cycles(duration_ns: int, freq_hz: float) -> float:
    """How many cycles elapse in ``duration_ns`` at ``freq_hz``."""
    if duration_ns <= 0:
        return 0.0
    return duration_ns * freq_hz / SEC


def ghz(value: float) -> float:
    """GHz -> Hz."""
    return value * 1e9


def mhz(value: float) -> float:
    """MHz -> Hz."""
    return value * 1e6


def gbps(value: float) -> float:
    """Gigabits per second -> bits per second."""
    return value * 1e9


def mbps(value: float) -> float:
    """Megabits per second -> bits per second."""
    return value * 1e6
