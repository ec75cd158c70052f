"""Generator-coroutine processes and their request vocabulary.

A simulated activity (a kernel phase, a service start-up, an application
launch) is written as a Python generator that ``yield``\\ s request objects:

* :class:`Timeout` — let simulated time pass without occupying a CPU core
  (device latency, pure sleeps),
* :class:`Compute` — consume CPU time; the process occupies one core of the
  :class:`~repro.sim.cpu.CPU` while it runs and competes with every other
  runnable process through the priority run queue,
* :class:`Wait` — block until a :class:`~repro.sim.sync.Completion` fires,
* :class:`Spin` — burn CPU slices on a contended ticket lock until the
  ticket may take it (yielded by :meth:`~repro.sim.sync.SpinLock.acquire`
  only).

Generators compose with ``yield from``, so models build freely on each
other (a service start ``yield from``\\ s a storage read, which internally
yields ``Timeout`` for the transfer and ``Compute`` for syscall overhead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.sync import Completion, SpinLock

#: Type alias for the generators the engine can run.
ProcessGenerator = Generator[Any, Any, Any]

#: Default scheduling priority; lower numbers run first (like ``nice``).
DEFAULT_PRIORITY = 100

#: Priority of post-completion deferred work, kernel and init alike: lower
#: than any boot task, so it gets a core only when no boot task is queued.
DEFERRED_PRIORITY = 300


@dataclass(frozen=True, slots=True)
class Timeout:
    """Suspend the process for ``ns`` nanoseconds without using a core."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimulationError(f"negative timeout: {self.ns}")


@dataclass(frozen=True, slots=True)
class Compute:
    """Consume ``ns`` nanoseconds of CPU time on one core.

    The process is enqueued on the CPU run queue at its current priority,
    may be time-sliced (the engine splits long computations into scheduler
    quanta), and resumes once the full amount has been executed.
    """

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimulationError(f"negative compute time: {self.ns}")


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until ``completion`` fires; resumes with the fired value."""

    completion: "Completion"


@dataclass(frozen=True, slots=True)
class Spin:
    """Spin on ``lock`` until ``ticket`` may take it.

    Each attempt burns ``lock.spin_slice_ns`` of CPU on one core, exactly
    as a ``Compute`` of that length.  The CPU model re-tests the ticket
    when an attempt ends and, while it must still wait, runs the next
    attempt itself (see :meth:`~repro.sim.cpu.CPU._slice_done`): the
    process is resumed once, when the ticket may take the lock or to
    deliver an interrupt.
    """

    lock: "SpinLock"
    ticket: int


class Interrupted(Exception):
    """Raised *inside* a process generator when it is interrupted.

    Delivered at the process's next resume point: immediately for a
    process blocked on a ``Timeout`` or ``Wait``, at the end of the
    current scheduler slice for one computing on a core.  Generators may
    catch it (``finally`` blocks run, so locks held across ``yield`` are
    released) and either re-raise, return, or continue.
    """


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"
    RUNNABLE = "runnable"  # waiting for or holding a CPU core
    WAITING = "waiting"  # blocked on a Timeout / Wait
    FINISHED = "finished"
    FAILED = "failed"


class Process:
    """A running simulated activity.

    Created through :meth:`repro.sim.engine.Simulator.spawn`; user code never
    instantiates this class directly.

    Attributes:
        name: Human-readable identifier used in traces and error reports.
        priority: Scheduling priority; lower runs first.  Set once, at
            spawn: the BB Manager boosts BB-Group services by the priority
            their start jobs are spawned with, and nothing changes it later
            (a :class:`~repro.sim.sync.PriorityMutex` keys a waiter by the
            priority it has when it queues).
        done: Fires (with :attr:`result`) when the process finishes.
        result: Return value of the generator once finished.
        cpu_time_ns: Total CPU time this process has consumed so far.
    """

    def __init__(self, engine: "Simulator", gen: ProcessGenerator, name: str,
                 priority: int = DEFAULT_PRIORITY):
        from repro.sim.sync import Completion  # cycle: sync needs engine

        self._engine = engine
        self._gen = gen
        self.name = name
        self.priority = priority
        self.state = ProcessState.CREATED
        self.done: Completion = Completion(engine, name=f"{name}.done")
        self.result: Any = None
        self.exception: BaseException | None = None
        self.cpu_time_ns = 0
        self.started_at_ns: int | None = None
        self.finished_at_ns: int | None = None
        # Interrupt plumbing (see Simulator.interrupt / Interrupted).
        self._pending_interrupt: BaseException | None = None
        self._timeout_event = None  # ScheduledEvent while blocked on Timeout
        self._waiting_on = None  # Completion while blocked on Wait
        self._spin = None  # Spin while spinning on a ticket lock

    @property
    def alive(self) -> bool:
        """True while the process has not finished or failed."""
        return self.state not in (ProcessState.FINISHED, ProcessState.FAILED)

    def _finish(self, result: Any) -> None:
        """Record the generator's return and wake everyone joined on it
        (called by :meth:`~repro.sim.engine.Simulator._resume`)."""
        self.state = ProcessState.FINISHED
        self.result = result
        self.finished_at_ns = self._engine.now
        self.done.fire(result)

    def __repr__(self) -> str:
        return f"Process({self.name!r}, state={self.state.value}, prio={self.priority})"
