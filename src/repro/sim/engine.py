"""The simulation engine: event loop, process lifecycle, dispatch.

:class:`Simulator` owns the clock, the event queue, the CPU model, and the
tracer, and is the only object user code needs to create::

    sim = Simulator(cores=4)

    def worker():
        yield Compute(msec(5))      # occupy a core for 5 ms of CPU time
        yield Timeout(msec(10))     # sleep 10 ms without a core

    p = sim.spawn(worker(), name="worker")
    sim.run()
    assert p.result is None and not p.alive

Processes advance synchronously inside event callbacks; all same-time
activity is ordered by scheduling sequence, so a run is a pure function of
its inputs.

The run loop makes one call into the queue per event (``events.pop()``)
and advances the clock inline.  A process is stepped by one frame,
:meth:`Simulator._resume`: it sends into the generator, loops over
zero-length computations, and routes the yielded request by its exact type
(``Compute`` and ``Spin`` to :meth:`~repro.sim.cpu.CPU.submit`,
``Timeout`` and ``Wait`` to the event queue or the completion's
waiters).
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.cpu import CPU, DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.process import (DEFAULT_PRIORITY, Compute, Interrupted, Process,
                               ProcessGenerator, ProcessState, Spin, Timeout,
                               Wait)
from repro.sim.sync import Completion
from repro.sim.tracing import Tracer

_RUNNABLE = ProcessState.RUNNABLE
_WAITING = ProcessState.WAITING
_FINISHED = ProcessState.FINISHED
_FAILED = ProcessState.FAILED


class Simulator:
    """A deterministic discrete-event simulator with a multicore CPU.

    Args:
        cores: Number of CPU cores available to ``Compute`` requests.
        quantum_ns: Scheduler time slice (see :class:`~repro.sim.cpu.CPU`).
        switch_cost_ns: Dispatch overhead per scheduling decision.
        event_queue: Queue to drive the loop with; defaults to a fresh
            FIFO-tie-break :class:`EventQueue`.  The verification harness
            injects a :class:`~repro.verify.PerturbedEventQueue` here to
            fuzz equal-timestamp scheduling order.
    """

    def __init__(self, cores: int = 4, quantum_ns: int = DEFAULT_QUANTUM_NS,
                 switch_cost_ns: int = DEFAULT_SWITCH_COST_NS,
                 event_queue: EventQueue | None = None):
        self.clock = SimClock()
        self.events = event_queue if event_queue is not None else EventQueue()
        #: Optional runtime invariant monitor (see ``repro.verify``); when
        #: set, the event loop and the CPU scheduler report to it.  Kept as
        #: a plain attribute so the healthy hot path pays one ``None`` test.
        self.monitor = None
        self.cpu = CPU(self, cores=cores, quantum_ns=quantum_ns,
                       switch_cost_ns=switch_cost_ns)
        self.tracer = Tracer(self.clock)
        self.processes: list[Process] = []
        #: The process being stepped right now, if any.  A step that resumes
        #: another process (a completion firing) saves and restores it.
        self.current_process: Process | None = None
        self._pending_failure: tuple[Process, BaseException] | None = None

    # ------------------------------------------------------------------ API

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.clock.now

    def spawn(self, gen: ProcessGenerator, name: str,
              priority: int = DEFAULT_PRIORITY) -> Process:
        """Create a process from a generator and schedule its first step.

        Args:
            gen: The generator to run (already called, not the function).
            name: Identifier used in traces and error reports.
            priority: Scheduling priority; lower runs first.

        Returns:
            The new :class:`~repro.sim.process.Process`; wait for it with
            ``yield Wait(p.done)`` or check ``p.result`` after :meth:`run`.
        """
        process = Process(self, gen, name=name, priority=priority)
        self.processes.append(process)
        self.events.push(self.clock._now, self._first_step, process)
        return process

    def completion(self, name: str = "completion") -> Completion:
        """Create a :class:`~repro.sim.sync.Completion` bound to this engine."""
        return Completion(self, name=name)

    def call_at(self, time_ns: int, callback, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time_ns < self.now:
            raise SimulationError(f"call_at in the past: {time_ns} < {self.now}")
        return self.events.push(time_ns, callback, *args)

    def call_after(self, delay_ns: int, callback, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` ``delay_ns`` from now."""
        return self.call_at(self.now + delay_ns, callback, *args)

    def run(self, until_ns: int | None = None) -> int:
        """Run the event loop.

        Args:
            until_ns: Stop (without executing later events) once the next
                event lies strictly beyond this time; ``None`` runs to
                quiescence.

        Returns:
            The simulation time when the loop stopped.

        Raises:
            Exception: The first exception raised inside any process is
                re-raised here, at the simulated moment it occurred.
        """
        events = self.events
        pop = events.pop
        peek_time = events.peek_time if until_ns is not None else None
        clock = self.clock
        monitor = self.monitor
        while events._live:
            if peek_time is not None and peek_time() > until_ns:
                clock.advance_to(until_ns)
                return clock._now
            event = pop()
            if monitor is not None:
                # Before the clock moves: a time-disordered pop must be
                # reported as the scheduling bug it is, not as a clock error.
                monitor.on_event(self, event)
            time_ns = event.time_ns
            if time_ns < clock._now:
                raise SimulationError(f"attempt to move clock backwards: "
                                      f"{time_ns} < {clock._now}")
            clock._now = time_ns
            event.callback(*event.args)
            if self._pending_failure is not None:
                _failed, exc = self._pending_failure
                self._pending_failure = None
                raise exc
        if until_ns is not None and until_ns > clock._now:
            clock.advance_to(until_ns)
        return clock._now

    # ------------------------------------------------- engine internals

    def _first_step(self, process: Process) -> None:
        """Run the first step of a freshly spawned process."""
        process.started_at_ns = self.clock._now
        self._resume(process, None)

    def interrupt(self, process: Process, exc: BaseException | None = None) -> None:
        """Deliver an :class:`~repro.sim.process.Interrupted` to a process.

        Takes effect at the process's next resume point: immediately for a
        process blocked on a ``Timeout`` or ``Wait`` (the pending wakeup is
        cancelled), at the end of its current slice for one on the CPU.
        ``finally`` blocks inside the generator run, so sim locks held
        across a ``yield`` are released.  Interrupting a finished process
        is a no-op.
        """
        if not process.alive:
            return
        process._pending_interrupt = exc if exc is not None else Interrupted()
        if process._timeout_event is not None:
            self.events.cancel(process._timeout_event)
            process._timeout_event = None
            self.events.push(self.clock._now, self._resume, process, None)
        elif process._waiting_on is not None:
            completion = process._waiting_on
            if process in completion._waiters:
                completion._waiters.remove(process)
            process._waiting_on = None
            self.events.push(self.clock._now, self._resume, process, None)
        # Else: on the CPU (queued or mid-slice); the pending interrupt is
        # delivered when the slice completes (see CPU._slice_done).

    def _resume(self, process: Process, value: Any) -> None:
        """Step ``process`` with ``value`` and route the request it yields
        (engine/CPU/sync internal).

        A zero-length :class:`Compute` needs no core, so the generator is
        resumed at once by the next pass of the loop rather than through
        the CPU: a chain of them costs no stack depth.  Requests are routed
        by exact type; the vocabulary is :class:`Compute`,
        :class:`Timeout`, :class:`Wait` and :class:`Spin`.

        Any resume ends a wait, so the blocking state is cleared first: a
        spinner is resumed when its ticket may take the lock, or to
        deliver an interrupt that can reach it wherever the CPU holds it
        (mid-slice, or queued and popped by a dispatch or a rotation).
        """
        state = process.state
        if state is _FINISHED or state is _FAILED:
            raise SimulationError(f"resume of finished process {process.name!r}")
        process._timeout_event = None
        process._waiting_on = None
        process._spin = None
        caller = self.current_process
        self.current_process = process
        gen = process._gen
        try:
            while True:
                process.state = _RUNNABLE
                try:
                    if process._pending_interrupt is None:
                        request = gen.send(value)
                    else:
                        exc, process._pending_interrupt = \
                            process._pending_interrupt, None
                        request = gen.throw(exc)
                except StopIteration as stop:
                    process._finish(stop.value)
                    return
                except Interrupted:
                    # Uncaught interrupt: the process dies quietly (its done
                    # completion fires with None); the simulation continues.
                    process._finish(None)
                    return
                except BaseException as exc:  # model bug: fail fast, keep context
                    process.state = _FAILED
                    process.exception = exc
                    process.finished_at_ns = self.clock._now
                    # Abort the run loop once this event's callback returns.
                    if self._pending_failure is None:
                        self._pending_failure = (process, exc)
                    return
                kind = type(request)
                if kind is Compute:
                    if request.ns:
                        self.cpu.submit(process, request.ns)
                        return
                    value = None
                elif kind is Timeout:
                    process.state = _WAITING
                    process._timeout_event = self.events.push(
                        self.clock._now + request.ns, self._resume, process, None)
                    return
                elif kind is Wait:
                    completion = request.completion
                    if completion.fired:
                        # Resume on a fresh event to keep FIFO order.
                        self.events.push(self.clock._now, self._resume,
                                         process, completion.value)
                    else:
                        completion._waiters.append(process)
                        process.state = _WAITING
                        process._waiting_on = completion
                    return
                elif kind is Spin:
                    process._spin = request
                    self.cpu.submit(process, request.lock.spin_slice_ns)
                    return
                else:
                    raise SimulationError(f"process {process.name!r} yielded "
                                          f"unknown request {request!r}")
        finally:
            self.current_process = caller
