"""The runtime invariant monitor.

:class:`InvariantMonitor` is an opt-in observer that the simulation engine
(:mod:`repro.sim.engine`), the CPU scheduler (:mod:`repro.sim.cpu`) and the
unit executor (:mod:`repro.initsys.executor`) report to when one is
attached via ``monitor.attach(sim)`` (which sets ``sim.monitor``).  Every
hook re-derives an invariant from first principles instead of trusting the
subsystem's own bookkeeping, so a scheduling bug — the kind that would
silently corrupt every figure reproduced from the paper — trips a loud
:class:`~repro.errors.InvariantViolationError` at the simulated instant it
happens.

Checked invariants:

* **time-monotonic** — the event loop never pops an event scheduled
  before the current simulated time (per-boot monotonicity of the clock).
* **cores-bounded** — the CPU never has more running slices than cores,
  and never accounts negative idle capacity.
* **ordering-respected** — no unit start job fires its ``started``
  completion before every non-ignored ordering predecessor satisfied its
  gate (settled for strong ``Requires``/``After`` edges, launched for
  weak ``Wants`` edges).  Edges dropped by an edge filter (the BB Group
  Isolator) are excused only if the executor *recorded* the drop.
* **deferred-after-completion** — work deferred past boot completion
  (Boot-up Engine / Deferred Executor) never started before the boot
  completed.
* **quiescent** — at the end of a successful boot no process is still
  alive (a deadlocked waiter), and every completion unit is ready.

The monitor is engine-agnostic: hooks receive live objects and never
import BB-specific modules, so it also works on bare :class:`Simulator`
micro-benches.  With ``strict=True`` (the default) the first violation
raises immediately; with ``strict=False`` violations accumulate in
:attr:`violations` for harness-style reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import InvariantViolationError
from repro.initsys.transaction import EdgeKind, JobState

if TYPE_CHECKING:
    from repro.initsys.executor import JobExecutor
    from repro.initsys.transaction import Job
    from repro.sim.cpu import CPU
    from repro.sim.engine import Simulator
    from repro.sim.events import ScheduledEvent


@dataclass(slots=True)
class MonitorStats:
    """How much checking one monitor did (for harness reports).

    Attributes:
        events_checked: Event-loop pops validated for time monotonicity.
        cpu_checks: Scheduler dispatch rounds validated for core bounds.
        job_starts_checked: Unit start/settle transitions validated
            against their ordering predecessors.
        finishes: Quiescence audits performed (one per successful boot).
        boots: Simulations this monitor was attached to.
    """

    events_checked: int = 0
    cpu_checks: int = 0
    job_starts_checked: int = 0
    finishes: int = 0
    boots: int = 0

    @property
    def total_checks(self) -> int:
        """Every individual invariant evaluation performed."""
        return (self.events_checked + self.cpu_checks
                + self.job_starts_checked + self.finishes)


@dataclass(slots=True)
class Violation:
    """One caught invariant violation.

    Attributes:
        invariant: Machine-readable invariant name.
        time_ns: Simulated time of the offence.
        detail: Human-readable description.
    """

    invariant: str
    time_ns: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant} @ {self.time_ns} ns] {self.detail}"


class InvariantMonitor:
    """Runtime invariant checker for one or more simulations.

    Args:
        strict: Raise :class:`InvariantViolationError` on the first
            violation (default).  ``False`` records violations without
            raising, for fuzzing harnesses that want to keep going.

    One monitor may be re-attached to successive simulations (its stats
    accumulate); per-boot state resets on :meth:`attach`.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.stats = MonitorStats()
        self.violations: list[Violation] = []
        self._sim: "Simulator | None" = None
        self._last_event_time = 0
        self._executors: list["JobExecutor"] = []

    # ------------------------------------------------------------ lifecycle

    def attach(self, sim: "Simulator") -> "Simulator":
        """Observe ``sim``: set ``sim.monitor`` and reset per-boot state."""
        self._sim = sim
        self._last_event_time = sim.now
        self._executors = []
        self.stats.boots += 1
        sim.monitor = self
        return sim

    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations

    def _flag(self, invariant: str, detail: str) -> None:
        time_ns = self._sim.now if self._sim is not None else -1
        violation = Violation(invariant=invariant, time_ns=time_ns,
                              detail=detail)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError(invariant, str(violation))

    # ---------------------------------------------------------- engine hook

    def on_event(self, sim: "Simulator", event: "ScheduledEvent") -> None:
        """Validate one event-loop pop (called before the clock advances)."""
        self.stats.events_checked += 1
        if event.time_ns < sim.now:
            self._flag("time-monotonic",
                       f"event seq={event.seq} at {event.time_ns} ns popped "
                       f"with the clock already at {sim.now} ns")
        if event.time_ns < self._last_event_time:
            self._flag("time-monotonic",
                       f"event seq={event.seq} at {event.time_ns} ns popped "
                       f"after an event at {self._last_event_time} ns")
        self._last_event_time = max(self._last_event_time, event.time_ns)

    # ------------------------------------------------------------- CPU hook

    def on_cpu(self, cpu: "CPU") -> None:
        """Validate scheduler accounting after a dispatch round."""
        self.stats.cpu_checks += 1
        running = cpu.cores - cpu.idle_cores
        if running > cpu.cores:
            self._flag("cores-bounded",
                       f"{running} slices running on {cpu.cores} cores")
        if cpu.idle_cores < 0 or cpu.idle_cores > cpu.cores:
            self._flag("cores-bounded",
                       f"idle-core count {cpu.idle_cores} outside "
                       f"[0, {cpu.cores}]")
        if cpu.idle_cores > 0 and cpu.runnable > 0:
            # Work conservation: a dispatch round never leaves runnable
            # work queued while cores are idle.
            self._flag("cores-bounded",
                       f"{cpu.runnable} runnable processes queued while "
                       f"{cpu.idle_cores} cores are idle")

    # -------------------------------------------------------- executor hook

    def on_executor(self, executor: "JobExecutor") -> None:
        """Register a job executor whose transaction ordering is audited."""
        self._executors.append(executor)

    def on_job_started(self, job: "Job") -> None:
        """Validate that ``job``'s ordering predecessors were satisfied."""
        self.stats.job_starts_checked += 1
        executor = self._executor_for(job)
        if executor is None:
            return
        ignored = executor.ignored_edges
        transaction = executor.transaction
        for edge in transaction.predecessors(job.name):
            if any(edge is dropped for dropped in ignored):
                continue  # the Group Isolator recorded this drop
            predecessor = transaction.job(edge.predecessor)
            gate = (predecessor.settled if edge.kind is EdgeKind.STRONG
                    else predecessor.started)
            if gate is not None and not gate.fired:
                kind = "strong" if edge.kind is EdgeKind.STRONG else "weak"
                self._flag("ordering-respected",
                           f"{job.name} started before its {kind} "
                           f"predecessor {edge.predecessor} "
                           f"{'settled' if kind == 'strong' else 'launched'}")

    def _executor_for(self, job: "Job") -> "JobExecutor | None":
        for executor in self._executors:
            if job.name in executor.transaction:
                return executor
        return None

    # ------------------------------------------------------ quiescence hook

    def finish(self, simulation: Any) -> None:
        """Audit a *successfully completed* :class:`BootSimulation`.

        Called by ``BootSimulation.run`` after quiescence; degraded boots
        (which legitimately wedge or fail) skip this audit.
        """
        self.stats.finishes += 1
        sim = simulation.sim
        manager = simulation.manager
        deadlocked = [p.name for p in sim.processes if p.alive]
        if deadlocked:
            self._flag("quiescent",
                       "processes still blocked at quiescence: "
                       + ", ".join(sorted(deadlocked)))
        if manager is None or manager.completion is None:
            self._flag("quiescent", "boot finished without a completion record")
            return
        completion_ns = manager.completion.time_ns
        for process in manager.deferred_processes:
            if process.started_at_ns is None:
                continue
            if process.started_at_ns < completion_ns:
                self._flag("deferred-after-completion",
                           f"{process.name} started at "
                           f"{process.started_at_ns} ns, before boot "
                           f"completion at {completion_ns} ns")
        assert manager.transaction is not None
        for name in manager.config.completion_units:
            job = manager.transaction.job(name)
            if job.state not in (JobState.READY, JobState.DONE):
                self._flag("quiescent",
                           f"completion unit {name} finished in state "
                           f"{job.state.name} on a boot reported complete")
