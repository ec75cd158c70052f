"""External kernel module (``.ko``) loading.

A 2015 Samsung TV ships 408 kernel modules (§2.4).  Loading an external
module costs user-space syscalls (open, read, close), a random read of the
module file, symbol resolution and linking.  BB's On-demand Modularizer
eliminates this for boot-path drivers by turning them into *deferred
built-in* initcalls: "we drastically reduced the number of system calls
(e.g. open, read, and close) required to load many external modules into
volatile memory" (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import KernelError
from repro.hw.storage import AccessPattern, StorageDevice
from repro.quantities import KiB, usec
from repro.sim.process import Compute, Timeout

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator

#: Syscall cost on the embedded A9 (entry/exit, file table work).
SYSCALL_COST_NS = usec(8)

#: Syscalls issued per module load: open, (multiple) read, mmap, close...
SYSCALLS_PER_LOAD = 12


@dataclass(frozen=True, slots=True)
class KernelModule:
    """An external loadable module.

    Attributes:
        name: Module name (``tuner_drv`` and friends).
        size_bytes: On-disk ``.ko`` size.
        link_cpu_ns: Symbol resolution + relocation CPU cost.
        hw_settle_ns: Hardware settle time for the device it drives.
        boot_required: True if the no-BB boot loads it before completion.
    """

    name: str
    size_bytes: int = KiB(64)
    link_cpu_ns: int = usec(800)
    hw_settle_ns: int = 0
    boot_required: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise KernelError(f"module {self.name}: size must be positive")
        if self.link_cpu_ns < 0 or self.hw_settle_ns < 0:
            raise KernelError(f"module {self.name}: negative cost")


class ModuleLoader:
    """Loads external modules from storage with full syscall accounting."""

    def __init__(self, storage: StorageDevice):
        self.storage = storage
        self.loaded: set[str] = set()
        self.failed: set[str] = set()
        self.syscalls_issued = 0
        self.bytes_loaded = 0
        # Fault hook: called once per first load attempt with the module
        # name, returns (load fails, extra latency ns).  See repro.faults.
        self.fault_hook: Callable[[str], tuple[bool, int]] | None = None

    def load(self, engine: "Simulator", module: KernelModule) -> "ProcessGenerator":
        """Generator: load one module (idempotent).

        Returns True if the module is loaded afterwards, False if the
        load failed (injected fault); a failed module stays failed — the
        kernel would return the same error on a retry.
        """
        if module.name in self.loaded:
            return True
        if module.name in self.failed:
            return False
        fail, extra_ns = (self.fault_hook(module.name)
                          if self.fault_hook is not None else (False, 0))
        yield Compute(SYSCALL_COST_NS * SYSCALLS_PER_LOAD)
        self.syscalls_issued += SYSCALLS_PER_LOAD
        yield from self.storage.read(module.size_bytes, AccessPattern.RANDOM)
        if extra_ns:
            yield Timeout(extra_ns)
        yield Compute(module.link_cpu_ns)
        if fail:
            # insmod returned an error after the file was read and linked.
            self.failed.add(module.name)
            engine.tracer.instant(f"kmod:{module.name}.load-failed", "init-task")
            return False
        if module.hw_settle_ns:
            yield Timeout(module.hw_settle_ns)
        self.loaded.add(module.name)
        self.bytes_loaded += module.size_bytes
        return True
