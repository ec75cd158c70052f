"""The Booting Booster facade and the end-to-end boot simulation.

:class:`BootSimulation` is the library's main entry point::

    from repro.core import BBConfig, BootSimulation
    from repro.workloads import opensource_tv_workload

    report = BootSimulation(opensource_tv_workload(), BBConfig.full()).run()
    print(report.boot_complete_ms)

One call runs power-on to boot completion (and on to quiescence): the
bootloader, the kernel stage configured by the Core Engine, the init
scheme with the Boot-up Engine's controls, and the Service Engine's
isolation and prioritization — then packages everything measurable into a
:class:`~repro.analysis.metrics.BootReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.metrics import BootReport, StageBreakdown
from repro.core.bootup_engine import BootupEngine
from repro.core.config import BBConfig
from repro.core.core_engine import CoreEngine
from repro.core.degraded import DegradedBootError, diagnose_degraded_boot
from repro.core.service_engine import ServiceEngine
from repro.errors import ServiceFailureError, SimulationError
from repro.initsys.manager import InitManager
from repro.initsys.transaction import JobState
from repro.kernel.config import KernelConfig
from repro.sim.engine import Simulator
from repro.sim.process import Wait
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.sim.process import ProcessGenerator


@dataclass(slots=True)
class BootingBooster:
    """The three engines of §3, wired for one boot."""

    core_engine: CoreEngine
    bootup_engine: BootupEngine
    service_engine: ServiceEngine

    @property
    def bb_group(self) -> frozenset[str]:
        """The isolated BB Group of this boot."""
        return self.service_engine.bb_group


class BootSimulation:
    """One simulated cold boot of a workload under a BB configuration.

    Args:
        workload: Device + service set (see :mod:`repro.workloads`).
        bb: Feature flags; :meth:`BBConfig.none` is the "No BB" column.
        cores: Override the platform's core count (scaling studies).
        kernel_config: Override the kernel build (§2.4 studies).
        fault_plan: Optional :class:`~repro.faults.FaultPlan`; compiled
            into a fresh injector for this run.  A boot that cannot reach
            completion raises :class:`~repro.core.degraded.DegradedBootError`
            carrying a structured post-mortem.
        monitor: Optional :class:`~repro.verify.InvariantMonitor`; attached
            to the simulator before any event is scheduled and finalized
            (quiescence checks) after a successful run.
        event_queue: Optional event-queue override for the simulator,
            e.g. a :class:`~repro.verify.PerturbedEventQueue` that fuzzes
            equal-timestamp scheduling order.  Like the simulation itself,
            a queue is single-shot.
        restart_seed: Seed for the executor's deterministic restart
            jitter; the recovery supervisor derives it from its own seed
            so replays are byte-identical.
        restart_jitter: Relative jitter on restart backoff delays
            (0.0 keeps the constant-delay behaviour).
        attempt_offsets: Start attempts already made in previous boots of
            a supervised recovery run (see :meth:`FaultPlan.compile`).
        injector_slot: Optional :class:`~repro.sim.checkpoint.InjectorSlot`
            wired into every fault-hook site instead of a compiled plan.
            The slot answers null until a plan is swapped in mid-run with
            :meth:`install_plan` — the checkpoint/fork branching seam.
            Mutually exclusive with ``fault_plan``.
    """

    def __init__(self, workload: Workload, bb: BBConfig | None = None,
                 cores: int | None = None,
                 kernel_config: KernelConfig | None = None,
                 manual_bb_group: tuple[str, ...] | None = None,
                 fault_plan=None, monitor=None, event_queue=None,
                 restart_seed: int = 0, restart_jitter: float = 0.0,
                 attempt_offsets: dict[str, int] | None = None,
                 injector_slot=None):
        if injector_slot is not None and fault_plan is not None:
            raise SimulationError(
                "injector_slot and fault_plan are mutually exclusive; "
                "install the plan into the slot with install_plan()")
        self.workload = workload
        self.bb = bb if bb is not None else BBConfig.none()
        self.platform = workload.platform_factory()
        self.cores = cores if cores is not None else self.platform.cpu_cores
        self.kernel_config = kernel_config
        self.manual_bb_group = manual_bb_group
        self.fault_plan = fault_plan
        self.fault_injector = None
        self.monitor = monitor
        self.event_queue = event_queue
        self.restart_seed = restart_seed
        self.restart_jitter = restart_jitter
        self.attempt_offsets = dict(attempt_offsets or {})
        self.injector_slot = injector_slot
        self.sim: Simulator | None = None
        self.booster: BootingBooster | None = None
        self.manager: InitManager | None = None

    def run(self) -> BootReport:
        """Execute the boot and return its report.

        A simulation is single-shot (device statistics and unit state are
        consumed by the run); build a new ``BootSimulation`` per boot.
        Equivalent to :meth:`start` followed by :meth:`complete`.

        Raises:
            SimulationError: If called twice.
            DegradedBootError: If the boot cannot reach completion under
                the fault plan (``.report`` names the culprit).
        """
        self.start()
        return self.complete()

    def start(self) -> None:
        """Set up the simulator and schedule the boot, without running it.

        Split out of :meth:`run` for callers that drive the simulator
        themselves: after ``start()`` they may run
        ``self.sim.run(until_ns=...)`` to an exact sim time (``repro
        bench`` stops at boot completion) and later :meth:`complete`; a
        paused event stream is identical to an uninterrupted run's.

        Raises:
            SimulationError: If called twice.
        """
        if self.sim is not None:
            raise SimulationError("BootSimulation.run() is single-shot; "
                                  "create a new BootSimulation per boot")
        sim = Simulator(cores=self.cores, event_queue=self.event_queue)
        self.sim = sim
        if self.monitor is not None:
            self.monitor.attach(sim)
        self.platform.attach(sim)
        if self.injector_slot is not None:
            self.injector_slot.attach(sim)
            self.platform.storage.fault_hook = self.injector_slot.storage_extra_ns
        elif self.fault_plan is not None:
            self.fault_injector = self.fault_plan.compile(
                attempt_offsets=self.attempt_offsets)
            self.platform.storage.fault_hook = self.fault_injector.storage_extra_ns
        registry = self.workload.fresh_registry()

        kernel_config = self.kernel_config
        if kernel_config is None and self.workload.kernel_config_factory is not None:
            kernel_config = self.workload.kernel_config_factory()
        core_engine = CoreEngine(
            self.platform, self.bb, kernel_config=kernel_config,
            initcalls=self.workload.initcalls_factory(),
            builtin_initcalls=self.workload.builtin_initcalls_factory())
        service_engine = ServiceEngine(registry, self.workload.completion_units,
                                       self.bb, manual_group=self.manual_bb_group)
        bootup_engine = BootupEngine(self.bb, core_engine)
        self.booster = BootingBooster(core_engine, bootup_engine, service_engine)

        sim.spawn(self._boot(sim, registry, core_engine, bootup_engine,
                             service_engine),
                  name="boot", priority=10)

    def install_plan(self, fault_plan) -> None:
        """Swap a fault plan into the injector slot mid-run (branching).

        Compiles the plan and installs it as the slot's delegate, so every
        later fault query — and the stats tally — behaves exactly as in a
        from-scratch run of the plan.  A branch calls it from the slot's
        observer, at the plan's first perturbed query, which the new
        injector then answers.
        """
        if self.injector_slot is None:
            raise SimulationError("install_plan() needs an injector_slot")
        injector = fault_plan.compile(attempt_offsets=self.attempt_offsets)
        self.injector_slot.swap(injector)
        self.fault_plan = fault_plan
        self.fault_injector = injector

    def complete(self) -> BootReport:
        """Run the started simulation to quiescence and build the report.

        Raises:
            SimulationError: If :meth:`start` has not run.
            DegradedBootError: If the boot cannot reach completion under
                the fault plan (``.report`` names the culprit).
        """
        sim = self.sim
        if sim is None:
            raise SimulationError("complete() before start()")
        try:
            sim.run()
        except DegradedBootError:
            raise
        except ServiceFailureError as exc:
            # A completion unit's start job failed: diagnose and re-raise
            # with structure.  Other exceptions are genuine bugs and
            # propagate untouched.
            raise self._degraded_error(wedged=False) from exc
        if self.manager is None or self.manager.completion is None:
            # The event queue drained with the boot still blocked — a
            # device path that never appeared, typically.
            raise self._degraded_error(wedged=True)
        if self.monitor is not None:
            # A healthy boot must be quiescent: no deadlocked waiters, and
            # deferred work strictly after boot completion.
            self.monitor.finish(self)
        report = self._build_report()
        self._close_parked_processes()
        return report

    # ------------------------------------------------------------ internals

    def _close_parked_processes(self) -> None:
        """Close the generators a finished (typically degraded) boot left
        suspended, rather than leave their clean-ups, which release this
        boot's locks, to the garbage collector in some later simulation.

        Each process is first detached from the completion it waits on,
        so no release can hand a lock to a waiter: closing resumes no
        process, pushes no event and moves no scheduler counter.
        """
        assert self.sim is not None
        parked = [process for process in self.sim.processes if process.alive]
        for process in parked:
            completion = process._waiting_on
            if completion is not None:
                completion._waiters.remove(process)
                process._waiting_on = None
        for process in parked:
            process._gen.close()

    def _boot(self, sim: Simulator, registry, core_engine: CoreEngine,
              bootup_engine: BootupEngine,
              service_engine: ServiceEngine) -> "ProcessGenerator":
        yield from core_engine.run_kernel(sim)
        bootup_engine.on_init_start(sim)
        manager_config = bootup_engine.build_manager_config(
            self.workload.goal, self.workload.completion_units)
        manager_config.restart_seed = self.restart_seed
        manager_config.restart_jitter = self.restart_jitter
        manager = InitManager(
            sim, registry, self.platform.storage, core_engine.rcu,
            manager_config,
            boot_modules=self.workload.boot_modules_factory(),
            preexisting_paths=set(self.workload.preexisting_paths),
            edge_filter=service_engine.edge_filter,
            priority_fn=service_engine.priority_fn,
            on_boot_complete=lambda: bootup_engine.on_boot_complete(sim),
            fault_injector=(self.injector_slot
                            if self.injector_slot is not None
                            else self.fault_injector),
            path_faulter_factory=(
                (lambda paths: bootup_engine.make_path_faulter(sim, paths))
                if self.bb.ondemand_modularizer else None))
        self.manager = manager
        manager_process = manager.spawn()
        yield Wait(manager_process.done)

    def _degraded_error(self, wedged: bool) -> "DegradedBootError":
        if self.manager is None or self.sim is None:
            raise SimulationError("boot failed before the init manager ran")
        report = diagnose_degraded_boot(
            self.manager, workload=self.workload.name,
            features=self.bb.enabled_features(),
            injector=self.fault_injector, wedged=wedged,
            time_ns=self.sim.now)
        self._close_parked_processes()
        return DegradedBootError(report)

    def _build_report(self) -> BootReport:
        sim, manager, booster = self.sim, self.manager, self.booster
        if sim is None or manager is None or booster is None:
            raise SimulationError("run() has not completed")
        core_engine = booster.core_engine
        timings = core_engine.sequence.timings
        assert timings is not None and manager.completion is not None
        init_init_ns = sim.tracer.find("init.initialization").duration_ns
        boot_complete_ns = manager.completion.time_ns
        services_ns = boot_complete_ns - timings.total_ns - init_init_ns

        unit_ready: dict[str, int] = {}
        unit_started: dict[str, int] = {}
        failed_units: dict[str, str] = {}
        unsettled_units: list[str] = []
        unit_attempts: dict[str, int] = {}
        assert manager.transaction is not None
        for job in manager.transaction.jobs.values():
            if job.ready_at_ns is not None:
                unit_ready[job.name] = job.ready_at_ns
            if job.started_at_ns is not None:
                unit_started[job.name] = job.started_at_ns
            if job.attempts:
                unit_attempts[job.name] = job.attempts
            if job.state is JobState.FAILED:
                failed_units[job.name] = job.failure_reason or "failed"
            elif job.settled is not None and not job.settled.fired:
                unsettled_units.append(job.name)

        rcu = core_engine.rcu
        assert rcu is not None
        executor = manager.executor
        isolation_on = booster.service_engine.edge_filter is not None
        return BootReport(
            workload=self.workload.name,
            features=self.bb.enabled_features(),
            stages=StageBreakdown(kernel_ns=timings.total_ns,
                                  init_init_ns=init_init_ns,
                                  services_ns=services_ns),
            boot_complete_ns=boot_complete_ns,
            all_done_ns=manager.all_done_ns or boot_complete_ns,
            kernel_timings=timings,
            unit_ready_ns=unit_ready,
            unit_started_ns=unit_started,
            bb_group=booster.bb_group if isolation_on else frozenset(),
            rcu_sync_count=rcu.sync_count,
            rcu_spin_ns=rcu.spin_time_ns,
            rcu_wall_ns=rcu.total_sync_wall_ns,
            cpu_busy_ns=sim.cpu.stats.busy_ns,
            ignored_edges=len(executor.ignored_edges) if executor else 0,
            deferred_task_names=[p.name for p in manager.deferred_processes],
            failed_units=failed_units,
            unsettled_units=tuple(unsettled_units),
            injected_faults=(self.fault_injector.stats.as_dict()
                             if self.fault_injector is not None else {}),
            deferred_failed=list(manager.deferred_failed),
            unit_attempts=unit_attempts,
        )
