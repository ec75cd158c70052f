"""Kernel initcall machinery and BB's On-demand Modularizer substrate.

Linux runs driver and subsystem initialization through ordered *initcall*
levels.  BB's On-demand Modularizer "modularizes built-in kernel
components, which defers and concurrently starts subsystems not required
to start the init scheme" (§3.1): a deferrable built-in initcall is skipped
during kernel boot and executed on first use — without the syscall and
storage cost of an external module, because its code is already in the
kernel image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.quantities import usec
from repro.sim.process import Compute, Timeout

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator

#: The on-demand manager's dispatch cost before a deferred initcall runs,
#: kept small because the code is built in (no module-load syscalls).
DEMAND_OVERHEAD_NS = usec(500)


class InitcallLevel(enum.IntEnum):
    """Linux initcall levels, executed in ascending order."""

    EARLY = 0
    CORE = 1
    POSTCORE = 2
    ARCH = 3
    SUBSYS = 4
    FS = 5
    DEVICE = 6
    LATE = 7


@dataclass(frozen=True, slots=True)
class Initcall:
    """One built-in initialization function.

    Attributes:
        name: Function/driver name.
        level: Initcall level.
        cpu_ns: Software initialization cost.
        hw_settle_ns: Hardware settle time (no CPU) after the software part.
        deferrable: True if BB may skip it at boot and run it on demand.
    """

    name: str
    level: InitcallLevel
    cpu_ns: int
    hw_settle_ns: int = 0
    deferrable: bool = False

    def __post_init__(self) -> None:
        if self.cpu_ns < 0 or self.hw_settle_ns < 0:
            raise KernelError(f"initcall {self.name}: negative cost")

    def run(self, engine: "Simulator") -> "ProcessGenerator":
        """Generator: execute the initcall."""
        yield Compute(self.cpu_ns)
        if self.hw_settle_ns:
            yield Timeout(self.hw_settle_ns)


class InitcallRegistry:
    """Ordered collection of built-in initcalls with deferral support.

    Duplicate names are rejected; initcalls execute level by level in
    registration order within a level, matching the kernel's link order.
    """

    def __init__(self) -> None:
        self._calls: dict[str, Initcall] = {}
        self.completed: set[str] = set()
        self.deferred: set[str] = set()
        self.on_demand_loads = 0

    def register(self, call: Initcall) -> None:
        """Add an initcall.

        Raises:
            KernelError: On duplicate names.
        """
        if call.name in self._calls:
            raise KernelError(f"duplicate initcall {call.name!r}")
        self._calls[call.name] = call

    def __len__(self) -> int:
        return len(self._calls)

    def get(self, name: str) -> Initcall:
        """Look up an initcall by name.

        Raises:
            KernelError: If unknown.
        """
        try:
            return self._calls[name]
        except KeyError:
            raise KernelError(f"unknown initcall {name!r}") from None

    def boot_sequence(self, defer: bool) -> list[Initcall]:
        """The initcalls executed in-line at boot.

        With ``defer`` True (On-demand Modularizer active) deferrable calls
        are excluded and recorded in :attr:`deferred`.
        """
        selected = []
        for call in self._calls.values():
            if defer and call.deferrable:
                self.deferred.add(call.name)
            else:
                selected.append(call)
        return sorted(selected, key=lambda c: c.level)

    def run_boot(self, engine: "Simulator", defer: bool) -> "ProcessGenerator":
        """Generator: run the boot-time initcall sequence (single-threaded)."""
        for call in self.boot_sequence(defer):
            yield from call.run(engine)
            self.completed.add(call.name)

    def load_on_demand(self, engine: "Simulator",
                       name: str) -> "ProcessGenerator":
        """Generator: run a deferred initcall on first use (idempotent),
        after the on-demand manager's :data:`DEMAND_OVERHEAD_NS`.

        Raises:
            KernelError: If ``name`` is unknown.
        """
        call = self.get(name)
        if call.name in self.completed:
            return
        yield Compute(DEMAND_OVERHEAD_NS)
        yield from call.run(engine)
        self.completed.add(call.name)
        self.deferred.discard(call.name)
        self.on_demand_loads += 1
