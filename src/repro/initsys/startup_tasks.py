"""Init-manager internal tasks with the paper's measured costs.

Two pools:

* :data:`STARTUP_TASKS` — the manager's own initialization (Fig. 6(b)).
  The six deferrable entries carry exactly the costs the paper defers
  ("enable logging scheme" 28 ms, "setup kernel module" 28 ms, "setup
  hostname" 13 ms, "setup machine ID" 9 ms, "setup loopback device"
  17 ms, "test directory" 29 ms — 124 ms total), leaving the 71 ms
  non-deferrable core that BB still pays.
* :data:`SUBMODULE_TASKS` — heavier init-scheme sub-modules that are "not
  required to start OS services" (§3.2); without BB they execute inside
  the service-launch phase, with BB the Deferred Executor runs them after
  boot completion, worth 496 ms (Fig. 6(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import UnitError
from repro.quantities import msec
from repro.sim.process import Compute

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator


@dataclass(frozen=True, slots=True)
class StartupTask:
    """One manager-internal initialization task.

    Attributes:
        name: Task label as it appears in the paper's Fig. 6.
        cpu_ns: CPU cost of the task.
        deferrable: Whether BB may postpone it past boot completion.
    """

    name: str
    cpu_ns: int
    deferrable: bool

    def __post_init__(self) -> None:
        if self.cpu_ns < 0:
            raise UnitError(f"startup task {self.name}: negative cost")

    def run(self, engine: "Simulator") -> "ProcessGenerator":
        """Generator: execute the task."""
        span = engine.tracer.begin(f"init.{self.name}", "init-task",
                                   deferrable=self.deferrable)
        yield Compute(self.cpu_ns)
        engine.tracer.end(span)


#: Fig. 6(b): manager initialization; 71 ms core + 124 ms deferrable.
STARTUP_TASKS: tuple[StartupTask, ...] = (
    StartupTask("read-configuration", cpu_ns=msec(24), deferrable=False),
    StartupTask("mount-api-filesystems", cpu_ns=msec(21), deferrable=False),
    StartupTask("setup-signals-and-cgroups", cpu_ns=msec(16), deferrable=False),
    StartupTask("initialize-job-engine", cpu_ns=msec(10), deferrable=False),
    StartupTask("enable-logging-scheme", cpu_ns=msec(28), deferrable=True),
    StartupTask("setup-kernel-module", cpu_ns=msec(28), deferrable=True),
    StartupTask("setup-hostname", cpu_ns=msec(13), deferrable=True),
    StartupTask("setup-machine-id", cpu_ns=msec(9), deferrable=True),
    StartupTask("setup-loopback-device", cpu_ns=msec(17), deferrable=True),
    StartupTask("test-directory", cpu_ns=msec(29), deferrable=True),
)

#: §3.2 / Fig. 6(c): init-scheme sub-modules deferred by Deferred Executor.
SUBMODULE_TASKS: tuple[StartupTask, ...] = (
    StartupTask("journal-flush-and-rotate", cpu_ns=msec(118), deferrable=True),
    StartupTask("device-coldplug-scan", cpu_ns=msec(136), deferrable=True),
    StartupTask("cgroup-hierarchy-population", cpu_ns=msec(92), deferrable=True),
    StartupTask("session-seat-setup", cpu_ns=msec(84), deferrable=True),
    StartupTask("timer-and-calendar-setup", cpu_ns=msec(66), deferrable=True),
)
