"""Simulation-time synchronization primitives.

The two lock flavours here embody the paper's Algorithm 1 vs Algorithm 2
distinction:

* :class:`SpinLock` — the ticket spinlock of conventional
  ``synchronize_rcu`` (Algorithm 1).  A waiter **burns a CPU core**: it
  spins one ``spin_slice_ns`` slice at a time and re-tries after each, so
  while it waits other runnable boot tasks cannot use that core.  The
  retries are run by the CPU model (a :class:`~repro.sim.process.Spin`
  request), which charges every slice exactly as a ``Compute`` of that
  length.
* :class:`Mutex` — the blocking lock of the boosted RCU (Algorithm 2).  A
  waiter **sleeps**: it is parked on a wait queue and frees its core, at the
  price of a context-switch cost when it is woken.

:class:`Completion` is the waitable event used for process joins, service
readiness, path conditions, and the wait queues of the locks themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import SimulationError
from repro.sim.process import Compute, Spin, Wait

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Default wake (context-switch) cost paid by a woken :class:`Mutex` or
#: :class:`PriorityMutex` waiter.
MUTEX_WAKE_COST_NS = 3_000

#: Default CPU cost of taking a :class:`SpinLock` ticket.
SPIN_ACQUIRE_COST_NS = 200


class Completion:
    """A one-shot waitable event carrying an optional value.

    Waiters created after the event has fired resume immediately — there is
    no lost-wakeup race in simulated time.
    """

    def __init__(self, engine: "Simulator", name: str = "completion"):
        self._engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every waiter with ``value``.

        Raises:
            SimulationError: If fired twice.
        """
        if self.fired:
            raise SimulationError(f"completion {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine._resume(process, value)

    def wait(self) -> "ProcessGenerator":
        """Generator helper: ``result = yield from completion.wait()``."""
        value = yield Wait(self)
        return value

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"{len(self._waiters)} waiters"
        return f"Completion({self.name!r}, {state})"


def wait_all(engine: "Simulator", completions: Iterable[Completion]) -> "ProcessGenerator":
    """Generator helper: wait until every completion has fired."""
    for completion in completions:
        if not completion.fired:
            yield Wait(completion)
    return None


class Mutex:
    """A sleeping lock: blocked acquirers release their CPU core.

    Waiters are queued FIFO.  ``wake_cost_ns`` models the scheduler /
    context-switch overhead paid by a woken waiter — the "greater CPU
    utilization due to process context switch and scheduling cost" that
    Algorithm 2 trades for not spinning.
    """

    def __init__(self, engine: "Simulator", name: str = "mutex",
                 wake_cost_ns: int = MUTEX_WAKE_COST_NS):
        self._engine = engine
        self.name = name
        self.wake_cost_ns = wake_cost_ns
        self.owner: "Process | None" = None
        self._wait_queue: list[Completion] = []
        self.contended_acquires = 0
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        """True while some process owns the lock."""
        return self.owner is not None

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: ``yield from mutex.acquire()``.

        The caller sleeps (core released) until the lock is granted.
        """
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"mutex {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.owner is None:
            self.owner = process
            return None
        self.contended_acquires += 1
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append(ticket)
        yield Wait(ticket)
        # Ownership was transferred to us by release(); pay the wake cost.
        # An interrupt landing here must hand the lock on, not leak it.
        if self.wake_cost_ns:
            try:
                yield Compute(self.wake_cost_ns)
            except BaseException:
                self.release()
                raise
        return None

    def release(self) -> None:
        """Release the lock, handing it to the first *live* queued waiter.

        Tickets whose waiter was interrupted while queued are skipped.
        """
        if self.owner is None:
            raise SimulationError(f"release of unlocked mutex {self.name!r}")
        self.owner = None
        while self._wait_queue:
            ticket = self._wait_queue.pop(0)
            if ticket._waiters:
                # Direct handoff: the woken waiter owns the lock before it
                # runs, keeping the queue strictly FIFO with no barging.
                self.owner = ticket._waiters[0]
                ticket.fire(None)
                return

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"Mutex({self.name!r}, owner={holder!r}, queued={len(self._wait_queue)})"


class PriorityMutex:
    """A sleeping lock whose release picks the highest-priority waiter.

    Models priority-aware resource queues such as I/O scheduling classes
    (``ioprio_set``): when the lock is released, the queued process with
    the numerically lowest priority is granted ownership; FIFO breaks ties.
    The waiter's priority is sampled at release time, so a priority boost
    applied while a process waits still takes effect.
    """

    def __init__(self, engine: "Simulator", name: str = "priority-mutex",
                 wake_cost_ns: int = MUTEX_WAKE_COST_NS):
        self._engine = engine
        self.name = name
        self.wake_cost_ns = wake_cost_ns
        self.owner: "Process | None" = None
        # (ticket, waiter) in arrival order, which is the FIFO tie-break.
        self._wait_queue: list[tuple[Completion, "Process"]] = []
        self.total_acquires = 0
        self.contended_acquires = 0

    @property
    def locked(self) -> bool:
        """True while some process owns the lock."""
        return self.owner is not None

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: ``yield from lock.acquire()`` (sleeps if held)."""
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"lock {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.owner is None:
            self.owner = process
            return None
        self.contended_acquires += 1
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append((ticket, process))
        yield Wait(ticket)
        # An interrupt landing on the wake cost must hand the lock on.
        if self.wake_cost_ns:
            try:
                yield Compute(self.wake_cost_ns)
            except BaseException:
                self.release()
                raise
        return None

    def release(self) -> None:
        """Release; ownership passes to the best *live* queued waiter.

        One pass over the wait queue compacts it in place, dropping tickets
        whose waiter was interrupted while queued, and keeps the first live
        waiter of the lowest priority: the queue is in arrival order, so
        that is the lowest ``(priority, arrival)``.
        """
        if self.owner is None:
            raise SimulationError(f"release of unlocked lock {self.name!r}")
        self.owner = None
        queue = self._wait_queue
        kept = 0
        best = -1
        best_priority = 0
        for entry in queue:
            if entry[0]._waiters:
                priority = entry[1].priority
                if best < 0 or priority < best_priority:
                    best = kept
                    best_priority = priority
                queue[kept] = entry
                kept += 1
        del queue[kept:]
        if best >= 0:
            ticket, process = queue.pop(best)
            self.owner = process
            ticket.fire(None)

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return (f"PriorityMutex({self.name!r}, owner={holder!r}, "
                f"queued={len(self._wait_queue)})")


class SpinLock:
    """A spinning lock: blocked acquirers burn CPU while waiting.

    ``spin_slice_ns`` is the CPU time consumed per failed attempt before
    re-trying.  A long critical section under contention therefore occupies
    one core per spinner — exactly the pathology the RCU Booster removes at
    boot time.  Each attempt is scheduled like a ``Compute`` of that length
    (quantum slices, run-queue rotation at every boundary) and observes a
    release only when it ends; ``spin_time_ns`` counts every completed
    attempt.
    """

    def __init__(self, engine: "Simulator", name: str = "spinlock",
                 spin_slice_ns: int = 500_000,
                 acquire_cost_ns: int = SPIN_ACQUIRE_COST_NS):
        if spin_slice_ns <= 0:
            raise SimulationError("spin_slice_ns must be positive")
        self._engine = engine
        self.name = name
        self.spin_slice_ns = spin_slice_ns
        self.acquire_cost_ns = acquire_cost_ns
        self._held = False
        self.owner: "Process | None" = None
        self.total_acquires = 0
        self.contended_acquires = 0
        self.spin_time_ns = 0
        # Ticket numbers give the FIFO fairness of Linux ticket spinlocks.
        self._next_ticket = 0
        self._tickets: dict[int, "Process"] = {}

    @property
    def locked(self) -> bool:
        """True while the lock is held."""
        return self._held

    def try_acquire(self) -> bool:
        """Non-blocking attempt; True on success (no ticket taken)."""
        if not self._held and not self._tickets:
            self._held = True
            self.owner = self._engine.current_process
            self.total_acquires += 1
            return True
        return False

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: spin (burning CPU) until the lock is granted.

        A contended ticket yields one :class:`~repro.sim.process.Spin`; the
        CPU model re-tests the ticket after every spin slice and resumes
        the caller once the ticket may take the lock, or to deliver an
        interrupt, which gives the ticket up.
        """
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"spinlock {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.acquire_cost_ns:
            yield Compute(self.acquire_cost_ns)
        ticket = self._next_ticket
        self._next_ticket += 1
        tickets = self._tickets
        tickets[ticket] = process
        # FIFO by lowest *outstanding* ticket, which is the dict's first key:
        # tickets are inserted in increasing order and deletions keep the
        # order.  An abandoned (interrupted) ticket disappears from the
        # dict, so it never wedges the queue.
        if next(iter(tickets)) != ticket or self._held:
            self.contended_acquires += 1
            try:
                yield Spin(self, ticket)
            except BaseException:
                del tickets[ticket]
                raise
        del tickets[ticket]
        self._held = True
        self.owner = process
        return None

    def release(self) -> None:
        """Release the lock; the next ticket holder's spin will succeed."""
        if not self._held:
            raise SimulationError(f"release of unlocked spinlock {self.name!r}")
        self._held = False
        self.owner = None

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"SpinLock({self.name!r}, owner={holder!r}, spinners={len(self._tickets)})"


class Semaphore:
    """A counting semaphore with sleeping waiters (FIFO)."""

    def __init__(self, engine: "Simulator", count: int, name: str = "semaphore"):
        if count < 0:
            raise SimulationError(f"semaphore count cannot be negative: {count}")
        self._engine = engine
        self.name = name
        self.count = count
        self._wait_queue: list[Completion] = []

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: take one permit, sleeping if none available."""
        if self.count > 0:
            self.count -= 1
            return None
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append(ticket)
        yield Wait(ticket)
        return None

    def release(self) -> None:
        """Return one permit, waking the first *live* queued waiter if any."""
        while self._wait_queue:
            ticket = self._wait_queue.pop(0)
            if ticket._waiters:
                ticket.fire(None)
                return
        self.count += 1

    def __repr__(self) -> str:
        return f"Semaphore({self.name!r}, count={self.count}, queued={len(self._wait_queue)})"
