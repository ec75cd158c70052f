"""Tests for the storage device model."""

import pytest

from repro.errors import HardwareError
from repro.hw.presets import emmc_ue48h6200, hdd_barracuda, ssd_850_evo
from repro.hw.storage import AccessPattern, StorageDevice
from repro.quantities import MiB, msec, sec
from repro.sim import Simulator


def test_sequential_read_time_matches_throughput():
    device = emmc_ue48h6200()
    # 117 MiB at 117 MiB/s = 1 s (+100 us request latency).
    time_ns = device.read_time_ns(MiB(117), AccessPattern.SEQUENTIAL)
    assert time_ns == pytest.approx(sec(1), rel=1e-3)


def test_random_read_is_slower_than_sequential():
    device = emmc_ue48h6200()
    nbytes = MiB(10)
    assert device.read_time_ns(nbytes, AccessPattern.RANDOM) > \
        device.read_time_ns(nbytes, AccessPattern.SEQUENTIAL)


def test_ssd_beats_emmc_beats_nothing():
    nbytes = MiB(50)
    ssd = ssd_850_evo().read_time_ns(nbytes)
    emmc = emmc_ue48h6200().read_time_ns(nbytes)
    assert ssd < emmc


def test_hdd_random_read_is_seek_dominated_figure():
    hdd = hdd_barracuda()
    assert hdd.rand_read_bps == 65 * 10**6


def test_zero_byte_read_costs_only_latency():
    device = emmc_ue48h6200()
    assert device.read_time_ns(0) == device.request_latency_ns


def test_read_in_simulation_advances_time():
    sim = Simulator()
    device = emmc_ue48h6200().attach(sim)

    def reader():
        yield from device.read(MiB(117))

    sim.spawn(reader(), name="reader")
    sim.run()
    assert sim.now == pytest.approx(sec(1), rel=1e-3)
    assert device.bytes_read == MiB(117)
    assert device.requests == 1


def test_concurrent_reads_queue_on_the_channel():
    sim = Simulator()
    device = emmc_ue48h6200().attach(sim)

    def reader():
        yield from device.read(MiB(117))

    sim.spawn(reader(), name="r1")
    sim.spawn(reader(), name="r2")
    sim.run()
    # Two 1 s reads on one channel serialize to ~2 s.
    assert sim.now == pytest.approx(sec(2), rel=1e-3)


def test_write_accounting():
    sim = Simulator()
    device = emmc_ue48h6200().attach(sim)

    def writer():
        yield from device.write(MiB(10))

    sim.spawn(writer(), name="w")
    sim.run()
    assert device.bytes_written == MiB(10)
    # Default write throughput is half of read: ~171 ms for 10 MiB.
    assert sim.now > msec(150)


def test_unattached_device_rejects_io():
    sim = Simulator()
    device = emmc_ue48h6200()  # not attached

    def reader():
        yield from device.read(1024)

    sim.spawn(reader(), name="r")
    with pytest.raises(HardwareError, match="not attached"):
        sim.run()


def test_read_beyond_capacity_rejected():
    sim = Simulator()
    device = StorageDevice("tiny", seq_read_bps=MiB(100), rand_read_bps=MiB(10),
                           capacity_bytes=1024).attach(sim)

    def reader():
        yield from device.read(2048)

    sim.spawn(reader(), name="r")
    with pytest.raises(HardwareError, match="capacity"):
        sim.run()


def test_negative_size_rejected():
    sim = Simulator()
    device = emmc_ue48h6200().attach(sim)

    def reader():
        yield from device.read(-1)

    sim.spawn(reader(), name="r")
    with pytest.raises(HardwareError, match="negative"):
        sim.run()


def test_invalid_throughput_rejected():
    with pytest.raises(HardwareError):
        StorageDevice("bad", seq_read_bps=0, rand_read_bps=MiB(1))


def test_write_time_slower_than_read():
    device = emmc_ue48h6200()
    nbytes = MiB(10)
    assert device.write_time_ns(nbytes) > device.read_time_ns(nbytes)
    assert device.write_time_ns(nbytes, AccessPattern.RANDOM) > \
        device.write_time_ns(nbytes, AccessPattern.SEQUENTIAL)


def test_default_write_throughput_is_half_of_read():
    device = emmc_ue48h6200()
    assert device.seq_write_bps == device.seq_read_bps // 2
    assert device.rand_write_bps == device.rand_read_bps // 2
