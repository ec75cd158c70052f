"""The hardware platform: everything the boot sequence runs on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import HardwareError
from repro.hw.memory import DRAMModel
from repro.hw.storage import StorageDevice

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


@dataclass(slots=True)
class HardwarePlatform:
    """A board description: CPU, DRAM and storage.

    Attributes:
        name: Board name, e.g. ``"UE48H6200"``.
        cpu_cores: Number of application-processor cores.
        dram: DRAM model (size and init cost).
        storage: Primary boot storage device.
        decompress_bps: Aggregate decompression throughput with all cores
            (the §2.3 figure; 35 MiB/s for the 8-core Galaxy S6).
    """

    name: str
    cpu_cores: int
    dram: DRAMModel
    storage: StorageDevice
    decompress_bps: int = 35 * (1 << 20)

    def __post_init__(self) -> None:
        if self.cpu_cores < 1:
            raise HardwareError(f"{self.name}: needs at least one CPU core")
        if self.decompress_bps <= 0:
            raise HardwareError(f"{self.name}: decompression throughput must be positive")

    def attach(self, engine: "Simulator") -> "HardwarePlatform":
        """Bind the platform's devices to a simulator."""
        self.storage.attach(engine)
        return self

