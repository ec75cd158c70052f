"""Board and storage presets with the paper's published figures.

Each preset is a factory (fresh objects each call, so simulations never
share mutable device state).
"""

from __future__ import annotations

from repro.hw.memory import DRAMModel
from repro.hw.platform import HardwarePlatform
from repro.hw.storage import StorageDevice
from repro.quantities import GiB, MiB, usec


def emmc_ue48h6200() -> StorageDevice:
    """The TV's 8 GiB eMMC: 117 MiB/s sequential, 37 MiB/s random read (§4)."""
    return StorageDevice("eMMC", seq_read_bps=MiB(117), rand_read_bps=MiB(37),
                         capacity_bytes=GiB(8))


def ssd_850_evo() -> StorageDevice:
    """Samsung SSD 850 Evo 500 GB: 515 / 379 MiB/s (§4)."""
    return StorageDevice("SSD-850-Evo", seq_read_bps=MiB(515), rand_read_bps=MiB(379),
                         request_latency_ns=usec(40), capacity_bytes=GiB(500))


def hdd_barracuda() -> StorageDevice:
    """Seagate Barracuda 3TB: 165 / 65 MB/s (§4; decimal MB in the paper).

    We convert the decimal figures to bytes/second exactly (1 MB = 10^6 B).
    """
    return StorageDevice("HDD-Barracuda", seq_read_bps=165 * 10**6,
                         rand_read_bps=65 * 10**6,
                         request_latency_ns=usec(8_000),  # seek-dominated
                         capacity_bytes=3 * 10**12)


def ufs_galaxy_s6() -> StorageDevice:
    """Galaxy S6 UFS 2.0 internal storage: ~300 MiB/s sequential read (§2.1)."""
    return StorageDevice("UFS-2.0", seq_read_bps=MiB(300), rand_read_bps=MiB(120),
                         request_latency_ns=usec(50), capacity_bytes=GiB(32))


def ue48h6200() -> HardwarePlatform:
    """The evaluation board: 2014 Samsung UHD Smart TV UE48H6200 (§4).

    Four Cortex-A9 cores, 1 GiB DRAM, 8 GiB eMMC.
    """
    return HardwarePlatform(
        name="UE48H6200",
        cpu_cores=4,
        dram=DRAMModel(size_bytes=GiB(1)),
        storage=emmc_ue48h6200(),
    )


def nx300() -> HardwarePlatform:
    """NX300-like Tizen camera (§2.1): dual core, 512 MiB DRAM, small flash."""
    return HardwarePlatform(
        name="NX300",
        cpu_cores=2,
        dram=DRAMModel(size_bytes=MiB(512)),
        storage=StorageDevice("eMMC-camera", seq_read_bps=MiB(90), rand_read_bps=MiB(25),
                              capacity_bytes=GiB(4)),
    )


def galaxy_s6_like() -> HardwarePlatform:
    """Galaxy-S6-like phone (§2.1/§2.3): 8 cores, 3 GiB DRAM, UFS 2.0.

    Used by the snapshot-booting and compression background models: reading
    a 3 GiB hibernation image at ~300 MiB/s costs ~10 s, and 8-core
    decompression reaches only 35 MiB/s.
    """
    return HardwarePlatform(
        name="Galaxy-S6-like",
        cpu_cores=8,
        dram=DRAMModel(size_bytes=GiB(3)),
        storage=ufs_galaxy_s6(),
        decompress_bps=MiB(35),
    )
