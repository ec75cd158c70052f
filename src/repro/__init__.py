"""BB reproduction: *Booting Booster for Consumer Electronics with Modern
OS* (Lim & Ham, EuroSys 2016) as a discrete-event boot-stack simulator.

Quick start::

    from repro import BBConfig, BootSimulation, opensource_tv_workload

    no_bb = BootSimulation(opensource_tv_workload(), BBConfig.none()).run()
    bb = BootSimulation(opensource_tv_workload(), BBConfig.full()).run()
    print(f"{no_bb.boot_complete_ms:.0f} ms -> {bb.boot_complete_ms:.0f} ms")

Package map:

* :mod:`repro.sim` — deterministic discrete-event engine (multicore CPU,
  spin-vs-sleep locks, tracing),
* :mod:`repro.hw` — storage/DRAM models and board presets,
* :mod:`repro.kernel` — bootloader, kernel boot phases, RCU, modules,
* :mod:`repro.initsys` — the systemd-like init substrate and baselines,
* :mod:`repro.graph` — dependency analysis (Service Analyzer & friends),
* :mod:`repro.core` — Booting Booster itself (the paper's contribution),
* :mod:`repro.workloads` — TV / camera / phone / generated service sets,
* :mod:`repro.bootchart` — systemd-bootchart substitute,
* :mod:`repro.analysis` — metrics and report tables,
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro.analysis.metrics import BootReport, StageBreakdown, speedup
from repro.core.bb import BootingBooster, BootSimulation
from repro.core.config import BBConfig
from repro.workloads.camera import camera_workload
from repro.workloads.generator import GeneratorParams, generate_workload
from repro.workloads.phone import phone_workload
from repro.workloads.tizen_tv import (commercial_tv_workload,
                                      opensource_tv_workload)

__version__ = "1.0.0"

__all__ = [
    "BBConfig",
    "BootReport",
    "BootSimulation",
    "BootingBooster",
    "GeneratorParams",
    "StageBreakdown",
    "__version__",
    "camera_workload",
    "commercial_tv_workload",
    "generate_workload",
    "opensource_tv_workload",
    "phone_workload",
    "speedup",
]
