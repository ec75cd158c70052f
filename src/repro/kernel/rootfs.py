"""Root filesystem mount, with BB's deferred ext4 journal.

"Enabling EXT4 journal mode of the root file system is deferred ... because
we virtually are read-only while booting and we can remount the root file
system in writable journal mode later as a deferred task" (§3.2).  On the
TV the mount phase drops from 110 ms to 75 ms (Fig. 6(a)); the journal
remount then runs after boot completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.hw.storage import AccessPattern, StorageDevice
from repro.quantities import KiB, msec
from repro.sim.process import DEFERRED_PRIORITY, Compute

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator


#: Metadata read at mount time.
SUPERBLOCK_BYTES = KiB(256)
#: Mount-path CPU work excluding the journal.
MOUNT_CPU_NS = msec(68)
#: Cost of enabling writable journal mode.
JOURNAL_SETUP_NS = msec(35)


class RootFilesystem:
    """The ext4 root filesystem of the device.

    Args:
        storage: Device holding the filesystem.
        deferred_journal: BB flag: mount read-only now, enable the journal
            after boot completion via :meth:`spawn_deferred_journal`.
    """

    def __init__(self, storage: StorageDevice,
                 deferred_journal: bool = False):
        self.storage = storage
        self.deferred_journal = deferred_journal
        self.mounted = False
        self.journal_enabled = False

    def mount(self, engine: "Simulator") -> "ProcessGenerator":
        """Generator: mount the root filesystem during kernel boot."""
        span = engine.tracer.begin("kernel.rootfs", "kernel",
                                   deferred_journal=self.deferred_journal)
        yield from self.storage.read(SUPERBLOCK_BYTES, AccessPattern.RANDOM)
        yield Compute(MOUNT_CPU_NS)
        if not self.deferred_journal:
            yield Compute(JOURNAL_SETUP_NS)
            self.journal_enabled = True
        self.mounted = True
        engine.tracer.end(span)

    def spawn_deferred_journal(self, engine: "Simulator") -> "Process | None":
        """Remount with the journal enabled, after boot completion.

        Returns the spawned process, or ``None`` if the journal is already
        enabled (or the mount has not happened — a model bug).

        Raises:
            KernelError: If called before :meth:`mount` completed.
        """
        if not self.mounted:
            raise KernelError("deferred journal requested before rootfs mount")
        if self.journal_enabled:
            return None

        def remount() -> "ProcessGenerator":
            span = engine.tracer.begin("kernel.rootfs.journal", "deferred")
            yield Compute(JOURNAL_SETUP_NS)
            self.journal_enabled = True
            engine.tracer.end(span)

        return engine.spawn(remount(), name="rootfs-journal-deferred",
                            priority=DEFERRED_PRIORITY)
