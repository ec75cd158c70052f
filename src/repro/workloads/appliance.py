"""A home-appliance workload (§4: BB ships on "other home appliances
(air conditioners, refrigerators, and robotic vacuum cleaners, since
2015)").

Modeled on a smart refrigerator with a door display.  Boot completion:
the control loop regulates the compressor and the door panel responds.
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

APPLIANCE_COMPLETION_UNITS = ("control-loop.service", "door-panel.service")


def appliance_platform() -> HardwarePlatform:
    """Refrigerator controller: dual-core, 512 MiB, small slow flash."""
    return HardwarePlatform(
        name="smart-fridge",
        cpu_cores=2,
        dram=DRAMModel(size_bytes=MiB(512)),
        storage=StorageDevice("appliance-emmc", seq_read_bps=MiB(60),
                              rand_read_bps=MiB(15), capacity_bytes=GiB(4)),
    )


def build_appliance_registry(seed: int = 33, extra_services: int = 14) -> UnitRegistry:
    """A fridge-shaped unit set."""
    rng = random.Random(seed)
    registry = UnitRegistry()
    registry.add(Unit(name="multi-user.target",
                      requires=["control-loop.service", "door-panel.service"]))
    registry.add(Unit(name="conf.mount", service_type=ServiceType.ONESHOT,
                      provides_paths=["/conf"],
                      cost=SimCost(init_cpu_ns=msec(5), exec_bytes=KiB(8))))
    registry.add(Unit(name="ipc.service", service_type=ServiceType.NOTIFY,
                      requires=["conf.mount"], after=["conf.mount"],
                      cost=SimCost(init_cpu_ns=msec(50), exec_bytes=KiB(200),
                                   rcu_syncs=1, processes=2)))
    registry.add(Unit(name="sensors.service", service_type=ServiceType.NOTIFY,
                      requires=["ipc.service"], after=["ipc.service"],
                      cost=SimCost(init_cpu_ns=msec(30), exec_bytes=KiB(120),
                                   rcu_syncs=1, hw_settle_ns=msec(20))))
    registry.add(Unit(name="control-loop.service",
                      service_type=ServiceType.NOTIFY,
                      description="Compressor regulation (boot completion)",
                      requires=["sensors.service", "ipc.service"],
                      after=["sensors.service", "ipc.service"],
                      cost=SimCost(init_cpu_ns=msec(90), exec_bytes=KiB(350),
                                   rcu_syncs=1, hw_settle_ns=msec(80))))
    registry.add(Unit(name="door-panel.service", service_type=ServiceType.NOTIFY,
                      requires=["ipc.service"], after=["ipc.service"],
                      cost=SimCost(init_cpu_ns=msec(140), exec_bytes=MiB(1),
                                   rcu_syncs=1, hw_settle_ns=msec(40))))
    for index in range(extra_services):
        registry.add(Unit(
            name=f"fridge-bg-{index:02d}.service",
            service_type=ServiceType.SIMPLE,
            wants=["ipc.service"], after=["ipc.service"],
            wanted_by=["multi-user.target"],
            cost=SimCost(init_cpu_ns=msec(rng.randint(15, 60)),
                         exec_bytes=KiB(rng.randint(60, 350)),
                         rcu_syncs=rng.choice((0, 0, 1)))))
    return registry


def appliance_workload(seed: int = 33) -> Workload:
    """The smart-refrigerator workload."""
    return Workload(
        name="smart-fridge",
        platform_factory=appliance_platform,
        registry_factory=lambda: build_appliance_registry(seed),
        completion_units=APPLIANCE_COMPLETION_UNITS,
        preexisting_paths=frozenset({"/", "/run"}),
    )
