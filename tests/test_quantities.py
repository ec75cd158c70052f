"""Tests for unit-conversion helpers."""

import pytest

from repro.quantities import (GiB, KiB, MiB, format_ns, msec, sec, to_msec,
                              to_sec, transfer_time_ns, usec)


def test_time_conversions_round_trip():
    assert msec(1) == 1_000_000
    assert usec(1) == 1_000
    assert sec(1) == 1_000_000_000
    assert to_msec(msec(8100)) == 8100.0
    assert to_sec(sec(3.5)) == 3.5


def test_fractional_times_round():
    assert msec(1.5) == 1_500_000
    assert msec(0.0004) == 400


def test_size_conversions():
    assert KiB(1) == 1024
    assert MiB(1) == 1024 ** 2
    assert GiB(1) == 1024 ** 3


def test_transfer_time_exact():
    # 1 MiB at 1 MiB/s is exactly one second.
    assert transfer_time_ns(MiB(1), MiB(1)) == sec(1)


def test_transfer_time_rounds_up():
    # 1 byte at a huge rate still takes at least 1 ns.
    assert transfer_time_ns(1, 10**12) >= 1


def test_transfer_time_zero_bytes():
    assert transfer_time_ns(0, MiB(1)) == 0


def test_transfer_time_invalid_throughput():
    with pytest.raises(ValueError):
        transfer_time_ns(100, 0)


def test_format_ns_units():
    assert format_ns(sec(3.5)) == "3.500 s"
    assert format_ns(msec(461)) == "461.0 ms"
    assert format_ns(usec(1.5)) == "1.500 us"
    assert format_ns(12) == "12 ns"
