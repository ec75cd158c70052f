"""Hardware models: storage, DRAM, and board presets.

The numbers shipped in :mod:`repro.hw.presets` are the paper's own:

* UE48H6200 (the evaluation TV): 4 Cortex-A9 cores, 1 GiB DRAM, 8 GiB eMMC
  with 117 MiB/s sequential / 37 MiB/s random read (§4),
* Samsung SSD 850 Evo: 515 / 379 MiB/s (§4),
* Seagate Barracuda 3TB: 165 / 65 MB/s (§4),
* Galaxy S6 UFS 2.0: ~300 MiB/s sequential read (§2.1/§2.3) and
  35 MiB/s 8-core decompression throughput (§2.3).
"""

from repro.hw.memory import DRAMModel
from repro.hw.platform import HardwarePlatform
from repro.hw.storage import AccessPattern, StorageDevice

__all__ = [
    "AccessPattern",
    "DRAMModel",
    "HardwarePlatform",
    "StorageDevice",
]
