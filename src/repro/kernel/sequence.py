"""The orchestrated kernel boot: power-on signal to first user process.

Runs the stages of Fig. 1 / Fig. 6(a) in order — bootloader, memory
initialization, core kernel work, built-in initcalls, root filesystem
mount — with per-stage timings recorded for the evaluation harness, and
exposes the deferred-task spawners that BB's engines trigger after boot
completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.platform import HardwarePlatform
from repro.kernel.bootloader import Bootloader
from repro.kernel.config import KernelConfig
from repro.kernel.image import KernelImage
from repro.kernel.initcalls import InitcallRegistry
from repro.kernel.meminit import MemoryInitializer
from repro.kernel.rcu import RCUSubsystem
from repro.kernel.rootfs import RootFilesystem
from repro.quantities import MiB
from repro.sim.process import Compute

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Size of the kernel image: the uncompressed TV kernel.
KERNEL_IMAGE_BYTES = MiB(10)


@dataclass(frozen=True, slots=True)
class KernelBootTimings:
    """Per-stage wall-clock times of one kernel boot (nanoseconds)."""

    bootloader_ns: int
    meminit_ns: int
    core_ns: int
    initcalls_ns: int
    rootfs_ns: int

    @property
    def total_ns(self) -> int:
        """Power-on signal to init-process handoff."""
        return (self.bootloader_ns + self.meminit_ns + self.core_ns
                + self.initcalls_ns + self.rootfs_ns)


class KernelBootSequence:
    """One kernel boot on a given platform.

    Args:
        platform: Hardware the kernel boots on (storage must be attached
            by :meth:`run`'s engine beforehand — use
            ``platform.attach(engine)``).
        config: Kernel build configuration; defaults to the §2.4-optimized
            commercial kernel.
        initcalls: Built-in initcall registry (driver plan); empty default.
        deferred_meminit: BB Core Engine flag — initialize only the
            boot-required memory region now.
        deferred_journal: BB flag — mount the rootfs without enabling the
            ext4 journal.
        defer_initcalls: BB On-demand Modularizer flag — skip deferrable
            initcalls at boot.
    """

    def __init__(self, platform: HardwarePlatform,
                 config: KernelConfig | None = None,
                 initcalls: InitcallRegistry | None = None,
                 deferred_meminit: bool = False,
                 deferred_journal: bool = False,
                 defer_initcalls: bool = False):
        self.platform = platform
        self.config = config if config is not None else KernelConfig.commercial()
        self.image = KernelImage(size_bytes=KERNEL_IMAGE_BYTES)
        self.initcalls = initcalls if initcalls is not None else InitcallRegistry()
        self.defer_initcalls = defer_initcalls
        self.bootloader = Bootloader()
        self.meminit = MemoryInitializer(platform.dram, deferred=deferred_meminit)
        self.rootfs = RootFilesystem(platform.storage, deferred_journal=deferred_journal)
        self.rcu: RCUSubsystem | None = None  # created when run() starts
        self.timings: KernelBootTimings | None = None

    def run(self, engine: "Simulator") -> "ProcessGenerator":
        """Generator: execute the kernel boot; returns the stage timings."""
        self.rcu = RCUSubsystem(engine)
        overall = engine.tracer.begin("kernel.boot", "boot-stage")

        mark = engine.now
        yield from self.bootloader.run(engine, self.platform, self.image)
        bootloader_ns = engine.now - mark

        mark = engine.now
        yield from self.meminit.run_boot_phase(engine)
        meminit_ns = engine.now - mark

        # Core kernel bring-up: arch setup, scheduler, core subsystems, and
        # (on unoptimized kernels) diagnostics and eager driver init.
        mark = engine.now
        yield Compute(self.config.extra_cost_ns())
        core_ns = engine.now - mark

        mark = engine.now
        yield from self.initcalls.run_boot(engine, defer=self.defer_initcalls)
        initcalls_ns = engine.now - mark

        mark = engine.now
        yield from self.rootfs.mount(engine)
        rootfs_ns = engine.now - mark

        engine.tracer.end(overall)
        self.timings = KernelBootTimings(
            bootloader_ns=bootloader_ns, meminit_ns=meminit_ns, core_ns=core_ns,
            initcalls_ns=initcalls_ns, rootfs_ns=rootfs_ns)
        return self.timings

    def spawn_deferred_tasks(self, engine: "Simulator") -> list["Process"]:
        """Launch the kernel-side deferred work (BB post-completion hook).

        Returns the spawned background processes (deferred memory
        initialization, ext4 journal remount) — empty when nothing was
        deferred.
        """
        spawned = []
        remainder = self.meminit.spawn_deferred_remainder(engine)
        if remainder is not None:
            spawned.append(remainder)
        journal = self.rootfs.spawn_deferred_journal(engine)
        if journal is not None:
            spawned.append(journal)
        return spawned
