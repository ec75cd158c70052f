"""The out-of-order baseline (§2.5.1).

Out-of-order schemes (BSD init, SysVinit with parallel rc, Busybox init,
launchd, svscan...) start services "without consideration of completion of
services intended to be prior": every job launches immediately.  Two
behaviours are modeled:

* ``path_check=False`` — pure out-of-order.  A unit whose strong
  dependencies are not ready when it starts suffers a **correctness
  violation**; the violation is recorded and the unit pays a retry penalty
  (crash-and-restart), matching the paper's point that such schemes
  "cannot handle the boot sequence correctly" with dynamic dependencies.
* ``path_check=True`` — the retrofitted path-check method: before
  starting, a unit polls for the paths its strong dependencies provide,
  becoming "partially in-order" at the cost of polling latency and CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hw.storage import StorageDevice
from repro.initsys.executor import PathRegistry, ServiceRunner
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import Transaction
from repro.initsys.units import UnitType
from repro.kernel.rcu import RCUSubsystem
from repro.quantities import msec, usec
from repro.sim.process import Compute, Timeout, Wait

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Interval between two path-check polls.
POLL_INTERVAL_NS = msec(10)
#: CPU cost of one path-check poll.
POLL_CPU_NS = usec(50)
#: Crash-and-retry penalty of a unit started before its requirement.
VIOLATION_PENALTY_NS = msec(30)


@dataclass(slots=True)
class OutOfOrderResult:
    """Outcome of an out-of-order boot."""

    boot_complete_ns: int | None = None
    violations: list[tuple[str, str]] = field(default_factory=list)
    total_polls: int = 0


class OutOfOrderInitScheme:
    """Launch every job of the goal closure immediately and in parallel."""

    def __init__(self, engine: "Simulator", registry: UnitRegistry,
                 storage: StorageDevice, rcu: RCUSubsystem,
                 goal: str, completion_units: tuple[str, ...],
                 path_check: bool = False,
                 preexisting_paths: set[str] | None = None):
        self._engine = engine
        self.registry = registry
        self.storage = storage
        self.rcu = rcu
        self.goal = goal
        self.completion_units = completion_units
        self.path_check = path_check
        self.paths = PathRegistry(engine, preexisting=preexisting_paths)
        self.transaction: Transaction | None = None
        self.result = OutOfOrderResult()

    def spawn(self) -> "Process":
        """Start the out-of-order init as the init process."""
        return self._engine.spawn(self.run(), name="ooo-init", priority=50)

    def run(self) -> "ProcessGenerator":
        """Generator: launch all jobs at once, then wait for completion."""
        engine = self._engine
        self.registry.apply_install_sections()
        self.transaction = Transaction(self.registry, [self.goal])
        runner = ServiceRunner(engine, self.storage, self.rcu, self.paths)

        for job in self.transaction.jobs.values():
            job.started = engine.completion(f"{job.name}.started")
            job.ready = engine.completion(f"{job.name}.ready")
        workers = []
        for job in self.transaction.jobs.values():
            workers.append(engine.spawn(self._start_unit(runner, job),
                                        name=f"ooo:{job.name}", priority=100))

        for name in self.completion_units:
            job = self.transaction.job(name)
            assert job.ready is not None
            if not job.ready.fired:
                yield Wait(job.ready)
        self.result.boot_complete_ns = engine.now
        engine.tracer.instant("boot.complete", "boot-stage")

        for worker in workers:
            if worker.alive:
                yield Wait(worker.done)
        return self.result

    def _start_unit(self, runner: ServiceRunner, job) -> "ProcessGenerator":
        engine = self._engine
        unit = job.unit
        if unit.unit_type is UnitType.TARGET:
            job.started.fire(job.name)
            job.ready.fire(job.name)
            job.started_at_ns = job.ready_at_ns = job.done_at_ns = engine.now
            return

        strong_deps = [d for d in unit.requires if d in self.transaction]
        if self.path_check:
            # Poll for each dependency's provided paths (or its readiness
            # when it provides none — a proxy path like a pid file).
            for dep in strong_deps:
                dep_unit = self.registry.get(dep)
                probe_paths = dep_unit.provides_paths or [f"/run/{dep}.pid"]
                dep_job = self.transaction.job(dep)
                for path in probe_paths:
                    polls = yield from self._poll_for(path, dep_job)
                    self.result.total_polls += polls
        else:
            for dep in strong_deps:
                dep_job = self.transaction.job(dep)
                if dep_job.ready is not None and not dep_job.ready.fired:
                    # Started before its requirement: record the violation
                    # and pay the crash-and-retry penalty, then block until
                    # the dependency is up (the retried start succeeds).
                    self.result.violations.append((unit.name, dep))
                    yield Compute(VIOLATION_PENALTY_NS)
                    yield Wait(dep_job.ready)
        yield from runner.run(job)
        # Out-of-order schemes have no provides mechanism of their own; a
        # unit's pid file stands in for "it is up" for path checkers.
        self.paths.provide(f"/run/{unit.name}.pid")

    def _poll_for(self, path: str, dep_job) -> "ProcessGenerator":
        polls = 0
        while not self.paths.exists(path):
            # A ready dependency that will never create the probe path
            # (no provides declared) is detected via its pid file.
            if dep_job.ready is not None and dep_job.ready.fired:
                break
            yield Compute(POLL_CPU_NS)
            polls += 1
            yield Timeout(POLL_INTERVAL_NS)
        return polls
