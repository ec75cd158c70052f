"""A systemd-like init scheme, plus the baselines BB is compared against.

The package provides the substrate BB's user-space engines are built into:

* :mod:`repro.initsys.unitfile` — the unit-file text format (Listing 1),
* :mod:`repro.initsys.units` — semantic unit model: services (simple /
  forking / oneshot / notify), sockets, mounts, targets, and the
  simulation cost model carried in each unit's ``[X-Simulation]`` section,
* :mod:`repro.initsys.registry` — the unit registry with reference
  validation,
* :mod:`repro.initsys.transaction` — job-transaction builder with
  dependency closure, ordering edges, and systemd-style cycle breaking,
* :mod:`repro.initsys.executor` — the parallel in-order job executor,
* :mod:`repro.initsys.manager` — the init manager (systemd stand-in):
  manager start-up tasks, unit loading (or Pre-parser cache), transaction
  execution, and boot-completion detection,
* :mod:`repro.initsys.startup_tasks` — the manager-internal tasks of
  Fig. 6(b) with the paper's costs,
* :mod:`repro.initsys.preparser` — build-time parsing cache (§3.3),
* :mod:`repro.initsys.sysv` / :mod:`repro.initsys.outoforder` — the
  sequential rcS and out-of-order (§2.5.1) baselines.
"""

from repro.initsys.executor import JobExecutor
from repro.initsys.manager import BootCompletion, InitManager, ManagerConfig
from repro.initsys.outoforder import OutOfOrderInitScheme
from repro.initsys.registry import UnitRegistry
from repro.initsys.runlevels import AdvancedBootScript
from repro.initsys.shutdown import ShutdownSequencer
from repro.initsys.startup_tasks import STARTUP_TASKS, StartupTask
from repro.initsys.sysv import SysVInitScheme
from repro.initsys.transaction import Job, JobState, Transaction
from repro.initsys.unitfile import UnitFileParser, parse_unit_file
from repro.initsys.units import (RestartPolicy, ServiceType, SimCost, Unit,
                                 UnitType)

__all__ = [
    "AdvancedBootScript",
    "BootCompletion",
    "InitManager",
    "Job",
    "JobExecutor",
    "JobState",
    "ManagerConfig",
    "OutOfOrderInitScheme",
    "RestartPolicy",
    "STARTUP_TASKS",
    "ServiceType",
    "ShutdownSequencer",
    "SimCost",
    "StartupTask",
    "SysVInitScheme",
    "Transaction",
    "Unit",
    "UnitFileParser",
    "UnitRegistry",
    "UnitType",
    "parse_unit_file",
]
