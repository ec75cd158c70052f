"""Unit helpers for simulated time and data sizes.

All simulated time in :mod:`repro` is kept as **integer nanoseconds** so the
simulation is exact and platform independent (no float drift, bit-for-bit
reproducible runs).  All data sizes are integer bytes.  This module provides
the conversion helpers used throughout the library so call sites read like
the paper: ``msec(698)`` for the kernel time, ``MiB(117)`` for eMMC
sequential throughput.
"""

from __future__ import annotations

#: Number of nanoseconds per microsecond/millisecond/second.
NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000

#: Number of bytes per KiB/MiB/GiB.
BYTES_PER_KIB = 1024
BYTES_PER_MIB = 1024 * 1024
BYTES_PER_GIB = 1024 * 1024 * 1024


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * NSEC_PER_USEC)


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * NSEC_PER_MSEC)


def sec(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * NSEC_PER_SEC)


def to_msec(ns: int) -> float:
    """Convert integer nanoseconds to float milliseconds."""
    return ns / NSEC_PER_MSEC


def to_sec(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / NSEC_PER_SEC


def KiB(value: float) -> int:
    """Convert KiB to integer bytes."""
    return round(value * BYTES_PER_KIB)


def MiB(value: float) -> int:
    """Convert MiB to integer bytes."""
    return round(value * BYTES_PER_MIB)


def GiB(value: float) -> int:
    """Convert GiB to integer bytes."""
    return round(value * BYTES_PER_GIB)


def transfer_time_ns(nbytes: int, throughput_bytes_per_sec: int) -> int:
    """Time to transfer ``nbytes`` at ``throughput_bytes_per_sec``.

    Rounds up to a whole nanosecond so a transfer never takes zero time.

    Raises:
        ValueError: If the throughput is not positive.
    """
    if throughput_bytes_per_sec <= 0:
        raise ValueError(f"throughput must be positive, got {throughput_bytes_per_sec}")
    if nbytes <= 0:
        return 0
    return -(-nbytes * NSEC_PER_SEC // throughput_bytes_per_sec)


def format_ns(ns: int) -> str:
    """Render a nanosecond duration in the most readable unit.

    >>> format_ns(3_500_000_000)
    '3.500 s'
    >>> format_ns(461_000_000)
    '461.0 ms'
    >>> format_ns(1_500)
    '1.500 us'
    """
    if ns >= NSEC_PER_SEC:
        return f"{ns / NSEC_PER_SEC:.3f} s"
    if ns >= NSEC_PER_MSEC:
        return f"{ns / NSEC_PER_MSEC:.1f} ms"
    if ns >= NSEC_PER_USEC:
        return f"{ns / NSEC_PER_USEC:.3f} us"
    return f"{ns} ns"
