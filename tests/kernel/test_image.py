"""Tests for kernel image loading and the §2.3 compression model."""

import pytest

from repro.errors import KernelError
from repro.hw.presets import emmc_ue48h6200, ufs_galaxy_s6
from repro.hw.storage import StorageDevice
from repro.kernel.image import KernelImage, compression_crossover_bps
from repro.quantities import MiB, msec, sec


def test_uncompressed_load_is_sequential_read():
    image = KernelImage(size_bytes=MiB(10))
    storage = emmc_ue48h6200()
    # 10 MiB / 117 MiB/s ~= 85.5 ms.
    assert image.load_time_ns(storage, MiB(35)) == pytest.approx(msec(85.5), rel=0.01)


def test_stored_bytes_shrink_with_compression():
    image = KernelImage(size_bytes=MiB(10), compressed=True, compression_ratio=2.0)
    assert image.stored_bytes == MiB(5)
    assert KernelImage(size_bytes=MiB(10)).stored_bytes == MiB(10)


def _compression_helps(size_bytes, storage):
    """§2.3's question: is the compressed load faster on this device?"""
    plain = KernelImage(size_bytes=size_bytes)
    packed = KernelImage(size_bytes=size_bytes, compressed=True)
    return (packed.load_time_ns(storage, MiB(35))
            < plain.load_time_ns(storage, MiB(35)))


def test_compression_does_not_help_on_fast_flash():
    """§2.3's headline: 300 MiB/s UFS vs 35 MiB/s decompression."""
    assert not _compression_helps(MiB(64), ufs_galaxy_s6())


def test_compression_does_not_help_on_the_tv_emmc():
    assert not _compression_helps(MiB(10), emmc_ue48h6200())


def test_compression_helps_on_slow_flash():
    """Old NAND below the decompression crossover benefits."""
    slow = StorageDevice("old-nand", seq_read_bps=MiB(12), rand_read_bps=MiB(2))
    assert _compression_helps(MiB(10), slow)


def test_crossover_is_decompression_throughput():
    assert compression_crossover_bps(2.0, MiB(35)) == MiB(35)


def test_compressed_load_is_bounded_by_decompressor():
    # On very fast storage the pipeline is decompressor-bound:
    # 35 MiB at 35 MiB/s = 1 s regardless of read speed.
    image = KernelImage(size_bytes=MiB(35), compressed=True)
    fast = StorageDevice("fast", seq_read_bps=MiB(1000), rand_read_bps=MiB(500))
    assert image.load_time_ns(fast, MiB(35)) == pytest.approx(sec(1), rel=0.01)


def test_invalid_parameters_rejected():
    with pytest.raises(KernelError):
        KernelImage(size_bytes=0)
    with pytest.raises(KernelError):
        KernelImage(size_bytes=MiB(1), compressed=True, compression_ratio=1.0)
    with pytest.raises(KernelError):
        KernelImage(size_bytes=MiB(1), compressed=True).load_time_ns(
            emmc_ue48h6200(), decompress_bps=0)
    with pytest.raises(KernelError):
        compression_crossover_bps(0.5, MiB(35))
    with pytest.raises(KernelError):
        compression_crossover_bps(2.0, 0)
