"""The init manager — the simulation's systemd.

:class:`InitManager` drives user-space boot end to end:

1. manager start-up tasks (Fig. 6(b); deferrable ones skipped under BB),
2. unit loading and dependency parsing (text, or the Pre-parser cache),
3. init-scheme sub-modules (run in-line without BB, deferred with it),
4. the external-module (kmod) worker (skipped under On-demand Modularizer),
5. transaction build for the goal target and parallel execution,
6. boot-completion detection: the instant every unit named in
   :class:`BootCompletion` is ready (for a TV: broadcast playing and the
   remote responding),
7. post-completion execution of everything deferred.

BB's engines plug in through the constructor hooks (``edge_filter``,
``priority_fn``, ``on_boot_complete``) and the :class:`ManagerConfig`
flags; the manager itself stays a general init scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, ServiceFailureError
from repro.hw.storage import StorageDevice
from repro.initsys import preparser
from repro.initsys.executor import JobExecutor, PathRegistry
from repro.initsys.preparser import PreParsedCache
from repro.initsys.registry import UnitRegistry
from repro.initsys.startup_tasks import STARTUP_TASKS, SUBMODULE_TASKS, StartupTask
from repro.initsys.transaction import OrderingEdge, Transaction
from repro.initsys.units import Unit
from repro.kernel.modules import KernelModule, ModuleLoader
from repro.kernel.rcu import RCUSubsystem
from repro.sim.process import DEFERRED_PRIORITY, Timeout, Wait
from repro.sim.sync import PriorityMutex

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Scheduling priority of the manager process and its in-line sub-modules.
MANAGER_PRIORITY = 50

#: Scheduling priority of the bulk external-module (kmod) worker.
KMOD_PRIORITY = 60

#: Wake cost of a task woken with the manager's fork lock.
FORK_WAKE_COST_NS = 1_000

#: Bounded backoff for deferred tasks whose run fails (fault injection):
#: first retry after 50 ms, doubling up to 400 ms, at most 5 retries.
DEFERRED_RETRY_BASE_NS = 50_000_000
DEFERRED_RETRY_CAP_NS = 400_000_000
DEFERRED_MAX_RETRIES = 5


@dataclass(slots=True)
class ManagerConfig:
    """Init-manager behaviour flags (the BB switchboard).

    Attributes:
        goal: Unit whose start transaction defines user-space boot.
        completion_units: Units whose readiness defines boot completion.
        defer_startup_tasks: BB Boot-up Engine — skip deferrable manager
            start-up tasks until after completion.
        defer_submodules: BB Deferred Executor — run init sub-modules
            after completion instead of during service launch.
        use_preparser: BB Pre-parser — load units from the binary cache.
        ondemand_modules: BB On-demand Modularizer — no kmod bulk loading.
        restart_seed: Seed for the executor's deterministic restart
            jitter draws (recovery replay determinism).
        restart_jitter: Relative jitter applied to restart backoff
            delays (0.0 = constant delays, the pre-recovery behaviour).
    """

    goal: str = "multi-user.target"
    completion_units: tuple[str, ...] = ()
    defer_startup_tasks: bool = False
    defer_submodules: bool = False
    use_preparser: bool = False
    ondemand_modules: bool = False
    restart_seed: int = 0
    restart_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not self.completion_units:
            raise ConfigurationError("boot completion needs at least one unit")


@dataclass(slots=True)
class BootCompletion:
    """When and how boot completed."""

    time_ns: int
    unit_ready_ns: dict[str, int] = field(default_factory=dict)


class InitManager:
    """The first user process: starts and supervises every other one."""

    def __init__(self, engine: "Simulator", registry: UnitRegistry,
                 storage: StorageDevice, rcu: RCUSubsystem,
                 config: ManagerConfig,
                 cache: PreParsedCache | None = None,
                 boot_modules: tuple[KernelModule, ...] = (),
                 preexisting_paths: set[str] | None = None,
                 edge_filter: Callable[[OrderingEdge], bool] | None = None,
                 priority_fn: Callable[[Unit], int] | None = None,
                 on_boot_complete: Callable[[], None] | None = None,
                 path_faulter_factory=None,
                 fault_injector=None):
        self._engine = engine
        self.registry = registry
        self.storage = storage
        self.rcu = rcu
        self.config = config
        self._cache = cache
        self.boot_modules = tuple(boot_modules)
        self.module_loader = ModuleLoader(storage)
        self.paths = PathRegistry(engine, preexisting=preexisting_paths)
        # The single-threaded manager serializes forks; the queue honours
        # process priority so the BB Manager's boosted services are not
        # stuck behind a hundred application forks (priority inversion on
        # the init scheme itself — one of the paper's "bottlenecks in the
        # infrastructure").
        self.fork_lock = PriorityMutex(engine, name="manager.fork",
                                       wake_cost_ns=FORK_WAKE_COST_NS)
        self._edge_filter = edge_filter
        self._priority_fn = priority_fn
        self._on_boot_complete = on_boot_complete
        # Seeded fault injection (repro.faults): module-load failures are
        # wired into the loader, missing/late device paths are blocked in
        # the registry now (before anything can provide them) and lifted
        # on schedule once the manager runs.
        self._fault_injector = fault_injector
        if fault_injector is not None:
            self.module_loader.fault_hook = fault_injector.module_decision
            for path in sorted(fault_injector.blocked_paths):
                self.paths.block(path)
                fault_injector.stats.paths_blocked += 1
            for path, _delay in fault_injector.late_paths():
                self.paths.block(path)
        # The faulter needs the manager's path registry, so it is built
        # from a factory once that registry exists.
        self._path_faulter = (path_faulter_factory(self.paths)
                              if path_faulter_factory is not None else None)
        self.transaction: Transaction | None = None
        self.executor: JobExecutor | None = None
        self.completion: BootCompletion | None = None
        self.deferred_processes: list["Process"] = []
        self.deferred_failed: list[str] = []
        self.all_done_ns: int | None = None

    # ---------------------------------------------------------------- boot

    def spawn(self) -> "Process":
        """Start the manager as the init process (PID 1)."""
        return self._engine.spawn(self.run(), name="init-manager",
                                  priority=MANAGER_PRIORITY)

    def run(self) -> "ProcessGenerator":
        """Generator: the whole user-space boot."""
        engine = self._engine
        self._schedule_late_paths()
        deferred_startup = yield from self._run_startup_tasks()
        yield from self._load_units()

        services_span = engine.tracer.begin("init.services", "boot-stage")
        self.registry.apply_install_sections()
        self.transaction = Transaction(self.registry, [self.config.goal])
        self._check_completion_units()

        # Init-scheme sub-modules run inside the single-threaded manager:
        # without BB they block job dispatch for their full duration, which
        # is exactly why the Deferred Executor's saving equals their cost.
        if not self.config.defer_submodules:
            for task in SUBMODULE_TASKS:
                yield from task.run(engine)
        kmod_process = self._spawn_kmod_worker()

        self.executor = JobExecutor(
            engine, self.transaction, self.storage, self.rcu, self.paths,
            manager_lock=self.fork_lock, edge_filter=self._edge_filter,
            priority_fn=self._priority_fn, path_faulter=self._path_faulter,
            fault_injector=self._fault_injector,
            restart_seed=self.config.restart_seed,
            restart_jitter=self.config.restart_jitter)
        self.executor.start_all()

        yield from self._wait_for_completion()
        self._handle_boot_complete(deferred_startup)

        # Drain the rest of the boot (not counted in the boot time).
        yield from self.executor.wait_all()
        if kmod_process is not None and kmod_process.alive:
            yield Wait(kmod_process.done)
        for process in self.deferred_processes:
            if process.alive:
                yield Wait(process.done)
        engine.tracer.end(services_span)
        self.all_done_ns = engine.now
        return self.completion

    # ------------------------------------------------------------- phases

    def _run_startup_tasks(self) -> "ProcessGenerator":
        """Phase (b): manager initialization; returns the deferred tasks."""
        engine = self._engine
        span = engine.tracer.begin("init.initialization", "boot-stage")
        deferred: list[StartupTask] = []
        for task in STARTUP_TASKS:
            if task.deferrable and self.config.defer_startup_tasks:
                deferred.append(task)
                continue
            yield from task.run(engine)
        engine.tracer.end(span)
        return deferred

    def _load_units(self) -> "ProcessGenerator":
        if self.config.use_preparser:
            cache = self._cache
            if cache is None:
                # Built from the registry about to be loaded, so fresh by
                # construction: only a cache handed in is checked.
                cache = preparser.build_cache(self.registry)
            elif not cache.is_fresh(self.registry):
                # §2.5 dynamicity: a service was installed or updated after
                # the cache was built — fall back to the full text parse so
                # the boot stays correct (and pays the conventional cost).
                self._engine.tracer.instant("preparser.cache-stale", "init-task")
                yield from preparser.load_from_text(
                    self._engine, self.registry, self.storage)
                return
            yield from preparser.load_from_cache(self._engine, cache,
                                                 self.storage)
        else:
            yield from preparser.load_from_text(self._engine, self.registry,
                                                self.storage)

    def _check_completion_units(self) -> None:
        assert self.transaction is not None
        missing = [u for u in self.config.completion_units
                   if u not in self.transaction]
        if missing:
            raise ConfigurationError(
                f"completion units not in boot transaction: {missing}")

    def _spawn_kmod_worker(self) -> "Process | None":
        """Bulk external-module loading (absent under On-demand Modularizer)."""
        if self.config.ondemand_modules or not self.boot_modules:
            return None

        def worker() -> "ProcessGenerator":
            span = self._engine.tracer.begin("init.kmod-worker", "init-task")
            for module in self.boot_modules:
                loaded = yield from self.module_loader.load(self._engine, module)
                # Each loaded driver exposes its device node, unblocking
                # services that wait on it (WaitsForPaths); a failed load
                # never surfaces the node.
                if loaded:
                    self.paths.provide(f"/dev/{module.name}")
            self._engine.tracer.end(span)

        return self._engine.spawn(worker(), name="kmod-worker",
                                  priority=KMOD_PRIORITY)

    def _schedule_late_paths(self) -> None:
        """Arrange for fault-delayed device paths to appear on schedule.

        Delays are relative to manager start.  At the deadline the block
        is lifted; if some producer (kmod worker, on-demand faulter)
        already tried to provide the path meanwhile, it appears at once —
        otherwise it appears whenever the producer eventually gets there.
        """
        if self._fault_injector is None:
            return
        for path, delay_ns in self._fault_injector.late_paths():
            self._engine.call_after(delay_ns, self._lift_path_fault, path)

    def _lift_path_fault(self, path: str) -> None:
        provide = path in self.paths.suppressed_paths
        self.paths.unblock(path, provide=provide)
        assert self._fault_injector is not None
        self._fault_injector.stats.paths_delayed += 1
        self._engine.tracer.instant(f"path:{path}.appeared-late", "init-task")

    def _wait_for_completion(self) -> "ProcessGenerator":
        assert self.transaction is not None
        ready_ns: dict[str, int] = {}
        for name in self.config.completion_units:
            job = self.transaction.job(name)
            assert job.settled is not None
            if not job.settled.fired:
                yield Wait(job.settled)
            if job.ready_at_ns is None:
                raise ServiceFailureError(name, job.failure_reason
                                          or "start job failed")
            ready_ns[name] = job.ready_at_ns
        self.completion = BootCompletion(time_ns=self._engine.now,
                                         unit_ready_ns=ready_ns)

    def _handle_boot_complete(self, deferred_startup: list[StartupTask]) -> None:
        engine = self._engine
        engine.tracer.instant("boot.complete", "boot-stage")
        for task in deferred_startup:
            self.deferred_processes.append(engine.spawn(
                self._run_deferred(task), name=f"deferred:{task.name}",
                priority=DEFERRED_PRIORITY))
        if self.config.defer_submodules:
            for task in SUBMODULE_TASKS:
                self.deferred_processes.append(engine.spawn(
                    self._run_deferred(task), name=f"deferred:{task.name}",
                    priority=DEFERRED_PRIORITY))
        if self._on_boot_complete is not None:
            self._on_boot_complete()

    def _run_deferred(self, task: StartupTask) -> "ProcessGenerator":
        """Run one deferred task, retrying failures with bounded backoff.

        Post-completion work also deserves §2.5.2 monitoring and
        recovery: a deferred task whose run fails (per the fault plan) is
        retried after an exponentially growing delay, at most
        :data:`DEFERRED_MAX_RETRIES` times, then recorded as given up —
        a degraded but live system, never an infinite retry loop.
        """
        attempt = 0
        delay_ns = DEFERRED_RETRY_BASE_NS
        while True:
            attempt += 1
            yield from task.run(self._engine)
            injector = self._fault_injector
            if injector is None or not injector.deferred_fails(task.name,
                                                               attempt):
                return
            if attempt > DEFERRED_MAX_RETRIES:
                injector.stats.deferred_giveups += 1
                self.deferred_failed.append(task.name)
                self._engine.tracer.instant(
                    f"deferred:{task.name}.gave-up", "init-task")
                return
            injector.stats.deferred_retries += 1
            yield Timeout(delay_ns)
            delay_ns = min(delay_ns * 2, DEFERRED_RETRY_CAP_NS)

    # ------------------------------------------------------------- queries

    @property
    def boot_complete_ns(self) -> int:
        """Boot-completion time.

        Raises:
            ConfigurationError: If boot has not completed yet.
        """
        if self.completion is None:
            raise ConfigurationError("boot has not completed")
        return self.completion.time_ns
