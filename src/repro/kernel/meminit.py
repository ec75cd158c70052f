"""Kernel memory initialization — full, or BB's early + deferred split.

The Core Engine "shortens the time to begin user processes by initializing
only the required size of memory and defers initializing the remaining
area" (§3.1).  On the evaluation TV this turns a 370 ms boot phase into a
110 ms phase plus a 260 ms background task executed after boot completion
(Fig. 6(a)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.memory import DRAMModel
from repro.sim.process import DEFERRED_PRIORITY, Compute

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator


class MemoryInitializer:
    """Runs DRAM initialization inside the kernel boot sequence.

    Args:
        dram: The platform's DRAM model.
        deferred: True enables BB's split: only the boot-required region is
            initialized in-line; the rest runs later via
            :meth:`spawn_deferred_remainder`.
    """

    def __init__(self, dram: DRAMModel, deferred: bool = False):
        self.dram = dram
        self.deferred = deferred
        self.remainder_done = False

    def boot_phase_ns(self) -> int:
        """In-line cost paid during kernel boot."""
        return self.dram.early_init_ns() if self.deferred else self.dram.full_init_ns()

    def run_boot_phase(self, engine: "Simulator") -> "ProcessGenerator":
        """Generator: the in-line initialization (single-threaded, early boot)."""
        span = engine.tracer.begin("kernel.meminit", "kernel",
                                   deferred=self.deferred)
        yield Compute(self.boot_phase_ns())
        if not self.deferred:
            self.remainder_done = True
        engine.tracer.end(span)

    def spawn_deferred_remainder(self, engine: "Simulator") -> "Process | None":
        """Start the deferred remainder as a low-priority background task.

        Returns the spawned process, or ``None`` when there is nothing to
        defer (full init already ran).
        """
        if not self.deferred or self.remainder_done:
            return None

        def remainder() -> "ProcessGenerator":
            span = engine.tracer.begin("kernel.meminit.deferred", "deferred")
            yield Compute(self.dram.deferred_init_ns())
            self.remainder_done = True
            engine.tracer.end(span)

        return engine.spawn(remainder(), name="meminit-deferred",
                            priority=DEFERRED_PRIORITY)
