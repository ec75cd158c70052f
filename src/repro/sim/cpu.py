"""Multicore CPU model with a priority run queue.

Every :class:`~repro.sim.process.Compute` request goes through this model,
so at most ``cores`` simulated activities make CPU progress at any instant —
the fundamental constraint that makes boot parallelism (and the damage done
by spinning RCU waiters) come out of the simulation rather than being
asserted.

Scheduling is priority-based (lower number first, FIFO within a priority)
and time-sliced: a long computation is split into ``quantum_ns`` slices, and
between slices the process goes back through the run queue at its priority,
so a queued process of a better priority takes the core within one quantum.
A process's priority is set once, at spawn: the Booting Booster Manager
spawns BB-Group start jobs at a boosted priority, which puts them ahead of
everything else.

The run queue is a heap of plain ``(priority, seq, process, remaining_ns)``
tuples.  ``seq`` is unique, so every heap comparison is a C-level
``(int, int)`` compare that never reaches the process.

Quantum boundaries are nearly every event of a boot, so
:meth:`CPU._slice_done` handles one in a single frame: one ``heappushpop``
of the preempted process against the run-queue head picks who gets the
freed core (the process itself, with the heap untouched, when nothing
queued is as urgent), and one ``events.push`` schedules that slice's end.
A ticket spinner's retry (:class:`~repro.sim.process.Spin`) is such a
rotation too, with one more spin slice as the work left.
:meth:`CPU.submit` places new work the same way.  Either is exactly a
heap push followed by a dispatch loop, which :meth:`CPU._dispatch` still
runs whenever a core stays idle with work queued (an interrupted process
popped from the queue is resumed instead of run).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heappushpop
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process

#: Default scheduler quantum: 1 ms, the granularity of priority decisions.
DEFAULT_QUANTUM_NS = 1_000_000

#: Default dispatch (context-switch) cost charged per scheduling decision.
DEFAULT_SWITCH_COST_NS = 2_000


@dataclass(slots=True)
class CpuStats:
    """Aggregate CPU accounting for a finished (or running) simulation.

    Attributes:
        busy_ns: Total core-nanoseconds spent executing process slices.
        switch_ns: Total core-nanoseconds spent on dispatch overhead.
        dispatches: Number of scheduling decisions taken.
        peak_runnable: Maximum length of the run queue observed (queued,
            not counting processes already on cores).
    """

    busy_ns: int = 0
    switch_ns: int = 0
    dispatches: int = 0
    peak_runnable: int = 0

    def utilization(self, cores: int, elapsed_ns: int) -> float:
        """Fraction of total core capacity used over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return (self.busy_ns + self.switch_ns) / (cores * elapsed_ns)


class CPU:
    """An N-core processor shared by all simulated processes.

    Args:
        engine: Owning simulator.
        cores: Number of cores (the UE48H6200 preset uses 4).
        quantum_ns: Maximum slice per scheduling decision.
        switch_cost_ns: Overhead charged to the core per dispatch.
    """

    def __init__(self, engine: "Simulator", cores: int,
                 quantum_ns: int = DEFAULT_QUANTUM_NS,
                 switch_cost_ns: int = DEFAULT_SWITCH_COST_NS):
        if cores < 1:
            raise SimulationError(f"CPU needs at least one core, got {cores}")
        if quantum_ns <= 0:
            raise SimulationError(f"quantum must be positive, got {quantum_ns}")
        if switch_cost_ns < 0:
            raise SimulationError(f"switch cost cannot be negative: {switch_cost_ns}")
        self._engine = engine
        self.cores = cores
        self.quantum_ns = quantum_ns
        self.switch_cost_ns = switch_cost_ns
        self.stats = CpuStats()
        self._idle_cores = cores
        self._run_queue: list[tuple[int, int, "Process", int]] = []
        self._seq = 0

    @property
    def idle_cores(self) -> int:
        """Number of cores currently not executing a slice."""
        return self._idle_cores

    @property
    def runnable(self) -> int:
        """Number of processes queued for a core (excluding those on cores)."""
        return len(self._run_queue)

    def submit(self, process: "Process", ns: int) -> None:
        """Enqueue ``ns`` (> 0) nanoseconds of work for ``process`` at its
        current priority (engine internal).

        The process is resumed via the engine once the full amount has been
        executed.  Zero-length computations never get here: the engine
        resumes them itself without a scheduling round-trip (see
        :meth:`~repro.sim.engine.Simulator._resume`).

        With a core idle and no interrupt pending, the push and the
        dispatch's first pop are one ``heappushpop``: it returns the
        process itself, without touching the heap, when nothing queued has
        a priority as good as its own.  Its ``seq`` and the queue depth it
        reached are counted either way, so every counter and every later
        tie-break is that of a push followed by :meth:`_dispatch`.
        """
        queue = self._run_queue
        seq = self._seq
        self._seq = seq + 1
        stats = self.stats
        if len(queue) >= stats.peak_runnable:
            stats.peak_runnable = len(queue) + 1
        if self._idle_cores > 0 and process._pending_interrupt is None:
            _, _, process, ns = heappushpop(
                queue, (process.priority, seq, process, ns))
            if process._pending_interrupt is None:
                self._idle_cores -= 1
                self._start_slice(process, ns)
            else:
                # Interrupted while queued: deliver instead of running.
                self._engine._resume(process, None)
        else:
            heappush(queue, (process.priority, seq, process, ns))
        if self._idle_cores > 0 and queue:
            self._dispatch()
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cpu(self)

    def _dispatch(self) -> None:
        """Hand idle cores to the highest-priority queued work.

        Callers run it only when a core is idle and work is queued, and
        report to the monitor themselves once their scheduling round ends.
        """
        queue = self._run_queue
        while self._idle_cores > 0 and queue:
            _, _, process, remaining_ns = heappop(queue)
            if process._pending_interrupt is not None:
                # Interrupted while queued: deliver instead of running.
                self._engine._resume(process, None)
                continue
            self._idle_cores -= 1
            self._start_slice(process, remaining_ns)

    def _start_slice(self, process: "Process", remaining_ns: int) -> None:
        """Run the next slice of ``remaining_ns`` on an already-claimed core."""
        quantum_ns = self.quantum_ns
        slice_ns = quantum_ns if remaining_ns > quantum_ns else remaining_ns
        switch_cost_ns = self.switch_cost_ns
        stats = self.stats
        stats.dispatches += 1
        stats.switch_ns += switch_cost_ns
        engine = self._engine
        engine.events.push(engine.clock._now + switch_cost_ns + slice_ns,
                           self._slice_done, process, remaining_ns, slice_ns)

    def _slice_done(self, process: "Process", remaining_ns: int,
                    slice_ns: int) -> None:
        """End a slice: resume a finished (or interrupted) process, or
        requeue a preempted one (or a spinner whose ticket must still wait)
        and give the freed core to the best queued entry.

        The core just freed is the only idle one, or nothing is queued, so
        a requeue dispatches exactly one entry: the run-queue head after
        pushing the process, which ``heappushpop`` returns without touching
        the heap when the process itself is that head.  ``seq``, the peak
        queue depth and the dispatch counters move as :meth:`submit` and
        :meth:`_dispatch` would move them.
        """
        stats = self.stats
        stats.busy_ns += slice_ns
        process.cpu_time_ns += slice_ns
        remaining_ns -= slice_ns
        engine = self._engine
        queue = self._run_queue
        if (not remaining_ns and process._spin is not None
                and process._pending_interrupt is None):
            # A spin attempt ended (see Spin).  While the ticket must still
            # wait, the retry is one more attempt, rotated here as at a
            # quantum boundary instead of by resuming the generator.
            spin = process._spin
            lock = spin.lock
            lock.spin_time_ns += lock.spin_slice_ns
            if lock._held or next(iter(lock._tickets)) != spin.ticket:
                remaining_ns = lock.spin_slice_ns
                monitor = engine.monitor
                if monitor is not None:
                    # A retry is a resubmitted compute: it reports once
                    # for the resubmission and once for the slice end.
                    monitor.on_cpu(self)
        if remaining_ns > 0 and process._pending_interrupt is None:
            # Quantum boundary: the process re-enters the run queue at its
            # priority, behind anything queued that is more urgent.
            seq = self._seq
            self._seq = seq + 1
            if len(queue) >= stats.peak_runnable:
                stats.peak_runnable = len(queue) + 1
            _, _, process, remaining_ns = heappushpop(
                queue, (process.priority, seq, process, remaining_ns))
            if process._pending_interrupt is None:
                quantum_ns = self.quantum_ns
                slice_ns = quantum_ns if remaining_ns > quantum_ns else remaining_ns
                switch_cost_ns = self.switch_cost_ns
                stats.dispatches += 1
                stats.switch_ns += switch_cost_ns
                engine.events.push(engine.clock._now + switch_cost_ns + slice_ns,
                                   self._slice_done, process, remaining_ns,
                                   slice_ns)
            else:
                # The head was interrupted while queued: deliver instead of
                # running it, and let the dispatch loop fill the core.
                self._idle_cores += 1
                engine._resume(process, None)
        else:
            # Finished — or interrupted, in which case the remaining work
            # is abandoned and the interrupt is delivered by the resume.
            self._idle_cores += 1
            engine._resume(process, None)
        if self._idle_cores > 0 and queue:
            self._dispatch()
        monitor = engine.monitor
        if monitor is not None:
            monitor.on_cpu(self)

    def __repr__(self) -> str:
        return (f"CPU(cores={self.cores}, idle={self._idle_cores}, "
                f"runnable={len(self._run_queue)})")
