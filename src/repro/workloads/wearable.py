"""A Gear-like wearable workload (§4: BB ships on "wearable devices
(Gear series, since 2014)").

Boot completion for a watch: the watch face is displayed and touch/bezel
input responds.
"""

from __future__ import annotations

import random

from repro.hw.memory import DRAMModel
from repro.hw.platform import HardwarePlatform
from repro.hw.storage import StorageDevice
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import ServiceType, SimCost, Unit
from repro.quantities import GiB, KiB, MiB, msec
from repro.workloads.base import Workload

WEARABLE_COMPLETION_UNITS = ("watchface.service",)


def wearable_platform() -> HardwarePlatform:
    """Gear-like hardware: dual-core, 768 MiB DRAM, 4 GiB eMMC."""
    return HardwarePlatform(
        name="gear-like",
        cpu_cores=2,
        dram=DRAMModel(size_bytes=MiB(768)),
        storage=StorageDevice("wearable-emmc", seq_read_bps=MiB(80),
                              rand_read_bps=MiB(22), capacity_bytes=GiB(4)),
    )


def build_wearable_registry(seed: int = 21, extra_services: int = 18) -> UnitRegistry:
    """A watch-shaped unit set."""
    rng = random.Random(seed)
    registry = UnitRegistry()
    registry.add(Unit(name="multi-user.target", requires=["watchface.service"]))
    registry.add(Unit(name="data.mount", service_type=ServiceType.ONESHOT,
                      provides_paths=["/data"],
                      cost=SimCost(init_cpu_ns=msec(4), exec_bytes=KiB(8))))
    registry.add(Unit(name="dbus.service", service_type=ServiceType.NOTIFY,
                      requires=["data.mount"], after=["data.mount"],
                      cost=SimCost(init_cpu_ns=msec(60), exec_bytes=KiB(250),
                                   rcu_syncs=2, processes=2)))
    registry.add(Unit(name="display.service", service_type=ServiceType.NOTIFY,
                      requires=["dbus.service"], after=["dbus.service"],
                      cost=SimCost(init_cpu_ns=msec(45), exec_bytes=KiB(200),
                                   rcu_syncs=1, hw_settle_ns=msec(30))))
    registry.add(Unit(name="input.service", service_type=ServiceType.SIMPLE,
                      requires=["dbus.service"], after=["dbus.service"],
                      cost=SimCost(init_cpu_ns=msec(15), exec_bytes=KiB(90))))
    registry.add(Unit(name="watchface.service", service_type=ServiceType.NOTIFY,
                      description="Watch face app (boot completion)",
                      requires=["display.service", "input.service",
                                "dbus.service"],
                      after=["display.service", "input.service", "dbus.service"],
                      cost=SimCost(init_cpu_ns=msec(180), exec_bytes=MiB(1),
                                   rcu_syncs=1, processes=2)))
    for index in range(extra_services):
        registry.add(Unit(
            name=f"watch-bg-{index:02d}.service",
            service_type=ServiceType.SIMPLE,
            wants=["dbus.service"], after=["dbus.service"],
            wanted_by=["multi-user.target"],
            cost=SimCost(init_cpu_ns=msec(rng.randint(15, 70)),
                         exec_bytes=KiB(rng.randint(80, 400)),
                         rcu_syncs=rng.choice((0, 1, 1)))))
    return registry


def wearable_workload(seed: int = 21) -> Workload:
    """The Gear-like wearable workload."""
    return Workload(
        name="gear-wearable",
        platform_factory=wearable_platform,
        registry_factory=lambda: build_wearable_registry(seed),
        completion_units=WEARABLE_COMPLETION_UNITS,
        preexisting_paths=frozenset({"/", "/run"}),
    )
