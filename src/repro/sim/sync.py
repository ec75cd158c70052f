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

from heapq import heappop, heappush
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

    The wait queue is a heap of ``(key, arrival, ticket, waiter)``, the key
    taken once, when the waiter queues: always 0 here, so arrival alone
    orders it (:class:`PriorityMutex` keys by priority).  A release pops
    entries until it finds a ticket whose waiter is still waiting; the
    tickets of waiters interrupted while queued are dropped on the way.
    """

    def __init__(self, engine: "Simulator", name: str = "mutex",
                 wake_cost_ns: int = MUTEX_WAKE_COST_NS):
        self._engine = engine
        self.name = name
        self.wake_cost_ns = wake_cost_ns
        self.owner: "Process | None" = None
        self._wait_queue: list[tuple[int, int, Completion, "Process"]] = []
        self._arrivals = 0
        self.contended_acquires = 0
        self.total_acquires = 0

    @staticmethod
    def _key(process: "Process") -> int:
        """Queue key of a waiter, before its arrival order."""
        return 0

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
            raise SimulationError(f"lock {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.owner is None:
            self.owner = process
            return None
        self.contended_acquires += 1
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        arrival = self._arrivals
        self._arrivals = arrival + 1
        heappush(self._wait_queue,
                 (self._key(process), arrival, ticket, process))
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

        Direct handoff: the woken waiter owns the lock before it runs, so
        no later acquirer can barge ahead of the queue.
        """
        if self.owner is None:
            raise SimulationError(f"release of unlocked lock {self.name!r}")
        self.owner = None
        queue = self._wait_queue
        while queue:
            _, _, ticket, process = heappop(queue)
            if ticket._waiters:
                self.owner = process
                ticket.fire(None)
                return

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        queued = sum(1 for entry in self._wait_queue if entry[2]._waiters)
        return (f"{type(self).__name__}({self.name!r}, owner={holder!r}, "
                f"queued={queued})")


class PriorityMutex(Mutex):
    """A sleeping lock whose release picks the highest-priority waiter.

    Models priority-aware resource queues such as I/O scheduling classes
    (``ioprio_set``): when the lock is released, the queued process with
    the numerically lowest priority is granted ownership; FIFO breaks ties.
    A waiter's priority is read once, when it queues.  Nothing changes a
    process's priority after it is spawned (the BB Manager sets it at
    spawn), so that is the priority it has at every release.
    """

    def __init__(self, engine: "Simulator", name: str = "priority-mutex",
                 wake_cost_ns: int = MUTEX_WAKE_COST_NS):
        super().__init__(engine, name, wake_cost_ns)

    @staticmethod
    def _key(process: "Process") -> int:
        return process.priority


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

