"""Closed-form boot-time prediction without running the event loop.

For an *unperturbed* boot (no fault plan) the paper's arithmetic is
closed-form: I/O is bytes/throughput, CPU work is cycles plus dispatch
overhead, and user-space parallelism is list scheduling of the start jobs
over the strong-ordering graph with ``min(tasks, cores)`` concurrency.
This module evaluates exactly that arithmetic:

* the kernel stage, manager initialization, unit loading (text or
  Pre-parser cache) and init sub-modules are strictly serial in the
  simulator — their cost is a sum, computed directly from the same model
  objects and cost constants
  (:class:`~repro.kernel.sequence.KernelBootSequence`,
  :mod:`~repro.initsys.preparser`, ...) the DES uses;
* the service-launch phase runs on :class:`_Machine`, a plain replica of
  the DES scheduler (:mod:`repro.sim`): one lightweight task per start
  job replays the shepherd's step sequence (ordering gates, fork through
  the manager lock, exec read through the storage channel, init chunks,
  ``synchronize_rcu``, settle, readiness) slice by slice, with BB's Group
  Isolator edge pruning and Manager priorities applied analytically.
  Every cost, priority and calibration it charges is read from the name
  the DES defines it under, never copied.

The solver is validated against the simulator by the ``predicted``
differential-oracle group in :mod:`repro.verify` (gem5's
known-answer-test methodology): on every built-in preset the prediction
must match DES boot-completion time exactly.

**Exactness contract** (details in ``docs/analysis.md``) — the replica
is slice-accurate: quantum round-robin with per-dispatch switch cost,
priority-aware storage channel and fork lock, direct-handoff mutexes,
ticket-spinlock RCU grace periods (spinners burn core slices), socket
activation, on-demand driver faulting and the kmod worker are replayed
move for move.  On every built-in preset × ``BBConfig.none()/full()`` ×
1/2/4 cores the prediction equals DES boot-completion time *exactly*,
to the nanosecond, and the oracle allows no band; anything perturbed is
out of scope — a job with a fault plan or ``failures_before_success`` is
rejected with :class:`AnalysisError`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.config import BBConfig
from repro.core.core_engine import CoreEngine
from repro.core.service_engine import ServiceEngine
from repro.errors import AnalysisError, ReproError
from repro.hw.storage import AccessPattern
from repro.initsys import preparser
from repro.initsys.executor import SERVICE_PRIORITY
from repro.initsys.manager import (FORK_WAKE_COST_NS, KMOD_PRIORITY,
                                   MANAGER_PRIORITY)
from repro.initsys.preparser import RegistryTextStats, registry_text_stats
from repro.initsys.startup_tasks import STARTUP_TASKS, SUBMODULE_TASKS
from repro.initsys.transaction import EdgeKind, Transaction
from repro.initsys.units import ServiceType, UnitType
from repro.kernel.initcalls import DEMAND_OVERHEAD_NS
from repro.kernel.modules import SYSCALL_COST_NS, SYSCALLS_PER_LOAD
from repro.kernel.rcu import (BOOSTED_OP_CPU_NS, CONVENTIONAL_OP_CPU_NS,
                              EXPEDITED_GRACE_PERIOD_NS, GRACE_PERIOD_NS,
                              SPIN_SLICE_NS)
from repro.kernel.rootfs import (JOURNAL_SETUP_NS, MOUNT_CPU_NS,
                                 SUPERBLOCK_BYTES)
from repro.sim.cpu import DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
from repro.sim.sync import MUTEX_WAKE_COST_NS, SPIN_ACQUIRE_COST_NS
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.runner.jobs import SimJob

#: Simulated-time horizon for the service phase.  The simulated init
#: model can genuinely livelock — conventional-RCU ticket spinners at
#: service priority starved forever by boosted-priority spinners on a
#: saturated CPU (the §4.3 priority-inversion pathology the RCU Booster
#: removes).  The DES runs such a boot forever; the predictor instead
#: raises :class:`AnalysisError` once simulated time passes this bound,
#: making it total over the whole design space.  Every terminating
#: preset boots in under 25 simulated seconds of service phase; two
#: minutes is safely past any real configuration while keeping the
#: livelock detection itself cheap (a livelocked machine only emits
#: spin-slice events, ~2 k per simulated second).
LIVELOCK_HORIZON_NS = 120_000_000_000


def compute_wall_ns(ns: int) -> int:
    """Wall time of an uncontended ``Compute(ns)`` on the CPU model.

    The scheduler charges one dispatch (context switch) per quantum
    slice; a zero-length computation resumes synchronously and is free.
    """
    if ns <= 0:
        return 0
    slices = -(-ns // DEFAULT_QUANTUM_NS)
    return ns + slices * DEFAULT_SWITCH_COST_NS


# --------------------------------------------------------------------------
# The replica of the DES scheduler for the service-launch phase.


class _Gate:
    """A one-shot completion; waiters resume synchronously on fire (FIFO)."""

    __slots__ = ("fired", "waiters")

    def __init__(self) -> None:
        self.fired = False
        self.waiters: list["_Task"] = []


class _Lock:
    """A sleeping lock with direct handoff (see :meth:`_Machine.release`).

    ``fifo=True`` is the simulator's plain ``Mutex``; otherwise it is the
    ``PriorityMutex`` guarding the storage channel and the fork path.  As
    in the DES, the queue is a heap of ``(key, arrival, task)``, keyed when
    the task queues: by its priority, or by 0 if FIFO.
    """

    __slots__ = ("owner", "queue", "arrivals", "wake_cost_ns", "fifo")

    def __init__(self, wake_cost_ns: int, fifo: bool = False) -> None:
        self.owner: "_Task | None" = None
        self.queue: list[tuple[int, int, "_Task"]] = []
        self.arrivals = 0
        self.wake_cost_ns = wake_cost_ns
        self.fifo = fifo


class _Task:
    """One schedulable activity (a shepherd, the kmod worker, ...)."""

    __slots__ = ("gen", "priority", "spin")

    def __init__(self, gen: Any, priority: int) -> None:
        self.gen = gen
        self.priority = priority
        self.spin: tuple["_TicketSpin", int] | None = None


class _Machine:
    """A plain replica of the DES scheduler (:mod:`repro.sim`).

    Tasks are generators yielding instruction tuples::

        ("cpu", ns)      run ns of work on a core, in quantum slices
        ("sleep", ns)    timer wait, no core
        ("wait", gate)   park until the gate fires (caller checks .fired)
        ("lock", lock)   acquire; send-value True means it was contended
        ("spin", (spinlock, ticket))
                         burn SPIN_SLICE_NS slices until the ticket may
                         take the spinlock (``Spin``); resumes once

    and call :meth:`fire` and :meth:`release` directly, as DES processes
    call ``Completion.fire`` and ``PriorityMutex.release``: the woken
    tasks run before the caller continues.  The CPU follows
    :class:`~repro.sim.cpu.CPU` event for event: a run queue ordered by
    ``(priority, seq)``, one dispatch cost per slice of at most one
    quantum, and at every quantum boundary the task goes back through the
    run queue, so a higher-priority task takes the core within one
    quantum.  A spinner whose ticket must still wait when its slice ends
    goes back the same way, with one more spin slice to run.  Cores are
    granted eagerly inside synchronous wake cascades, freed cores are
    visible to the cascade that freed them, and ties break FIFO by
    enqueue order.
    """

    def __init__(self, cores: int, start_ns: int) -> None:
        self.now = start_ns
        self.deadline_ns = start_ns + LIVELOCK_HORIZON_NS
        self.idle = cores
        self.stopped = False
        # Events: (time, seq, task, remaining_ns) — remaining < 0 is a
        # plain resume (timer expiry, wait on a fired gate), >= 0 the end
        # of a slice with that much work still owed.
        self._events: list[tuple[int, int, "_Task", int]] = []
        self._eseq = 0
        self._run: list[tuple[int, int, "_Task", int]] = []
        self._rseq = 0

    # -------------------------------------------------------------- driving

    def start(self, task: "_Task") -> None:
        self._drive(task, None)

    def run(self) -> None:
        pop = heapq.heappop
        push = heapq.heappush
        pushpop = heapq.heappushpop
        events = self._events
        run = self._run
        while events and not self.stopped:
            time_ns, _, task, remaining_ns = pop(events)
            if time_ns > self.deadline_ns:
                raise AnalysisError(
                    f"no boot completion after "
                    f"{LIVELOCK_HORIZON_NS / 1e9:.0f} simulated seconds of "
                    f"services phase — the configuration livelocks (e.g. "
                    f"conventional-RCU spinners starved by priority-boosted "
                    f"work on a saturated CPU)")
            self.now = time_ns
            if remaining_ns == 0:
                spin = task.spin
                if spin is not None:
                    lock, ticket = spin
                    if lock.held or next(iter(lock.tickets)) != ticket:
                        # The ticket must still wait: one more spin slice,
                        # rotated as at a quantum boundary.  With the core
                        # just freed, "start it if nothing is queued, else
                        # enqueue and dispatch" is that same heappushpop.
                        remaining_ns = SPIN_SLICE_NS
                    else:
                        task.spin = None
                if remaining_ns == 0:
                    # Compute finished: free the core before resuming so
                    # the wake cascade can immediately claim it (DES
                    # ordering).
                    self.idle += 1
                    self._drive(task, None)
                    if run and self.idle > 0:
                        self._dispatch()
                    continue
            elif remaining_ns < 0:
                self._drive(task, None)
                continue
            # Quantum boundary (CPU._slice_done, with _start_slice
            # inlined): the task goes back through the run queue, and the
            # freed core goes to the queue's head — the task itself when
            # nothing queued is as urgent.  Exact because the freed core
            # is the only idle one or nothing is queued.
            rseq = self._rseq
            self._rseq = rseq + 1
            _, _, task, remaining_ns = pushpop(
                run, (task.priority, rseq, task, remaining_ns))
            eseq = self._eseq
            self._eseq = eseq + 1
            if remaining_ns > DEFAULT_QUANTUM_NS:
                push(events, (time_ns + DEFAULT_SWITCH_COST_NS
                              + DEFAULT_QUANTUM_NS, eseq, task,
                              remaining_ns - DEFAULT_QUANTUM_NS))
            else:
                push(events, (time_ns + DEFAULT_SWITCH_COST_NS
                              + remaining_ns, eseq, task, 0))

    def _schedule(self, delay_ns: int, task: "_Task",
                  remaining_ns: int) -> None:
        heapq.heappush(self._events,
                       (self.now + delay_ns, self._eseq, task, remaining_ns))
        self._eseq += 1

    def _drive(self, task: "_Task", value: Any) -> None:
        send = task.gen.send
        try:
            while True:
                op, operand = send(value)
                value = None
                if op == "cpu" or op == "spin":
                    if op == "spin":
                        # Retried by run() until the ticket may take the
                        # lock.
                        task.spin = operand
                        operand = SPIN_SLICE_NS
                    elif operand <= 0:
                        continue  # Compute(0) resumes synchronously
                    if self.idle > 0 and not self._run:
                        self.idle -= 1
                        self._start_slice(task, operand)
                    else:
                        self._enqueue(task, operand)
                        self._dispatch()
                    return
                if op == "sleep":
                    self._schedule(operand, task, -1)
                    return
                if op == "wait":
                    if operand.fired:
                        # Mirrors Wait on a fired completion: one event-
                        # queue round trip at the current time.
                        self._schedule(0, task, -1)
                    else:
                        operand.waiters.append(task)
                    return
                if op == "lock":
                    if operand.owner is None:
                        operand.owner = task
                        value = False
                        continue
                    arrival = operand.arrivals
                    operand.arrivals = arrival + 1
                    heapq.heappush(operand.queue, (
                        0 if operand.fifo else task.priority, arrival, task))
                    return
                raise AnalysisError(f"unknown VM instruction {op!r}")
        except StopIteration:
            return

    # ------------------------------------------------------- wake machinery

    def fire(self, gate: "_Gate") -> None:
        """Fire ``gate``, resuming its waiters in order
        (``Completion.fire``)."""
        gate.fired = True
        waiters, gate.waiters = gate.waiters, []
        for waiter in waiters:
            self._drive(waiter, None)

    def release(self, lock: "_Lock") -> None:
        """Hand ``lock`` to the head of its queue (``Mutex.release``): no
        task is interrupted here, so the head is always live."""
        if not lock.queue:
            lock.owner = None
            return
        task = lock.owner = heapq.heappop(lock.queue)[2]
        self._drive(task, True)

    # --------------------------------------------------------- CPU modelling

    def _enqueue(self, task: "_Task", remaining_ns: int) -> None:
        heapq.heappush(self._run,
                       (task.priority, self._rseq, task, remaining_ns))
        self._rseq += 1

    def _dispatch(self) -> None:
        while self.idle > 0 and self._run:
            _, _, task, remaining_ns = heapq.heappop(self._run)
            self.idle -= 1
            self._start_slice(task, remaining_ns)

    def _start_slice(self, task: "_Task", remaining_ns: int) -> None:
        """Run the next slice of ``remaining_ns`` on an already-claimed
        core (``CPU._start_slice``)."""
        if remaining_ns > DEFAULT_QUANTUM_NS:
            self._schedule(DEFAULT_SWITCH_COST_NS + DEFAULT_QUANTUM_NS, task,
                           remaining_ns - DEFAULT_QUANTUM_NS)
        else:
            self._schedule(DEFAULT_SWITCH_COST_NS + remaining_ns, task, 0)


def _acquire(lock: "_Lock"):
    """Lock acquisition paying the woken waiter's context-switch cost."""
    contended = yield ("lock", lock)
    if contended and lock.wake_cost_ns:
        yield ("cpu", lock.wake_cost_ns)


class _TicketSpin:
    """Replica of the simulator's ticket ``SpinLock`` (conventional RCU).

    Spinners burn real core time in ``SPIN_SLICE_NS`` chunks and observe
    a release only when their current slice completes — both effects the
    RCU Booster exists to remove, so they must be priced faithfully.  The
    lowest outstanding ticket is the dict's first key, as in the DES, and
    the machine re-tests it after every slice (the ``"spin"`` instruction).
    """

    __slots__ = ("held", "next_ticket", "tickets")

    def __init__(self) -> None:
        self.held = False
        self.next_ticket = 0
        self.tickets: dict[int, None] = {}

    def acquire(self):
        yield ("cpu", SPIN_ACQUIRE_COST_NS)
        ticket = self.next_ticket
        self.next_ticket += 1
        tickets = self.tickets
        tickets[ticket] = None
        if next(iter(tickets)) != ticket or self.held:
            yield ("spin", (self, ticket))
        del tickets[ticket]
        self.held = True


# --------------------------------------------------------------------------
# Prediction result.


@dataclass(frozen=True, slots=True)
class BootPrediction:
    """The closed-form solution for one unperturbed boot.

    Times are absolute nanoseconds from power-on, matching the DES
    report's clock.  Per-unit dictionaries cover every job that started
    (respectively became ready) *before boot completion* — the predictor
    stops at the completion instant; post-completion stragglers and
    deferred work are out of scope by design.
    """

    workload: str
    features: tuple[str, ...]
    cores: int
    boot_complete_ns: int
    kernel_ns: int
    init_init_ns: int
    load_units_ns: int
    submodules_ns: int
    services_ns: int
    unit_started_ns: dict[str, int] = field(default_factory=dict)
    unit_ready_ns: dict[str, int] = field(default_factory=dict)
    bb_group: frozenset[str] = frozenset()

    @property
    def boot_complete_ms(self) -> float:
        """Boot completion in milliseconds (presentation helper)."""
        return self.boot_complete_ns / 1e6


# --------------------------------------------------------------------------
# Serial-phase closed forms.


def _kernel_stage_ns(core_engine: CoreEngine) -> int:
    """Exact serial cost of the kernel stage (one process, idle machine)."""
    sequence = core_engine.sequence
    platform = core_engine.platform
    storage = platform.storage
    bootloader = sequence.bootloader
    total = bootloader.rom_stage_ns
    total += storage.read_time_ns(bootloader.loader_size_bytes,
                                  AccessPattern.SEQUENTIAL)
    total += bootloader.hw_init_ns
    total += sequence.image.load_time_ns(storage, platform.decompress_bps)
    total += compute_wall_ns(sequence.meminit.boot_phase_ns())
    total += compute_wall_ns(sequence.config.extra_cost_ns())
    for call in sequence.initcalls.boot_sequence(defer=sequence.defer_initcalls):
        total += compute_wall_ns(call.cpu_ns) + call.hw_settle_ns
    total += storage.read_time_ns(SUPERBLOCK_BYTES,
                                  AccessPattern.RANDOM)
    total += compute_wall_ns(MOUNT_CPU_NS)
    if not sequence.rootfs.deferred_journal:
        total += compute_wall_ns(JOURNAL_SETUP_NS)
    return total


def _load_units_ns(storage, stats: RegistryTextStats,
                   use_preparser: bool) -> int:
    """Serial cost of unit loading: Pre-parser cache or full text parse.

    In an unperturbed boot the cache is built from the exact registry it
    is loaded against, so it is always fresh — the stale-cache fallback
    never triggers.
    """
    if use_preparser:
        return (storage.read_time_ns(preparser.blob_bytes(stats),
                                     AccessPattern.SEQUENTIAL)
                + compute_wall_ns(preparser.CACHED_UNIT_NS * stats.unit_count))
    return (compute_wall_ns(preparser.text_loading_cpu_ns(stats))
            + storage.read_time_ns(stats.total_text_bytes,
                                   AccessPattern.RANDOM)
            + compute_wall_ns(preparser.text_parsing_cpu_ns(stats)))


def _core_engine(workload: Workload, platform, bb: BBConfig,
                 kernel_config: Any | None) -> CoreEngine:
    """The kernel side of ``workload`` as the DES boots it."""
    if kernel_config is None and workload.kernel_config_factory is not None:
        kernel_config = workload.kernel_config_factory()
    return CoreEngine(platform, bb, kernel_config=kernel_config,
                      initcalls=workload.initcalls_factory(),
                      builtin_initcalls=workload.builtin_initcalls_factory())


def _serial_prefix(core_engine: CoreEngine, stats: RegistryTextStats,
                   bb: BBConfig) -> tuple[int, int, int, int]:
    """Kernel, manager-init, unit-loading and sub-module times: the serial
    stages before the services phase, in boot order."""
    init_init_ns = sum(compute_wall_ns(task.cpu_ns) for task in STARTUP_TASKS
                       if not (bb.defer_startup_tasks and task.deferrable))
    submodules_ns = 0
    if not bb.deferred_executor:
        submodules_ns = sum(compute_wall_ns(task.cpu_ns)
                            for task in SUBMODULE_TASKS)
    return (_kernel_stage_ns(core_engine), init_init_ns,
            _load_units_ns(core_engine.platform.storage, stats, bb.preparser),
            submodules_ns)


# --------------------------------------------------------------------------
# The service-launch phase.


class _ServiceWorld:
    """Shared state of the service-phase list schedule."""

    def __init__(self, machine: "_Machine", transaction: Transaction,
                 storage, rcu_boosted: bool,
                 preexisting_paths: set[str]) -> None:
        self.machine = machine
        self.transaction = transaction
        self.storage_ns = storage.read_time_ns
        self.storage_lock = _Lock(wake_cost_ns=0)
        self.fork_lock = _Lock(FORK_WAKE_COST_NS)
        self.rcu_boosted = rcu_boosted
        self.rcu_wait_lock = _TicketSpin()
        self.rcu_boost_mutex = _Lock(MUTEX_WAKE_COST_NS, fifo=True)
        self.paths: set[str] = set(preexisting_paths)
        self.path_gates: dict[str, "_Gate"] = {}
        self.started: dict[str, "_Gate"] = {}
        self.ready: dict[str, "_Gate"] = {}
        self.settled: dict[str, "_Gate"] = {}
        self.started_at: dict[str, int] = {}
        self.ready_at: dict[str, int] = {}
        self.completion_ns: int | None = None

    # ----------------------------------------------------------- primitives

    def provide(self, path: str) -> None:
        if path in self.paths:
            return
        self.paths.add(path)
        gate = self.path_gates.pop(path, None)
        if gate is not None:
            self.machine.fire(gate)

    def path_gate(self, path: str) -> "_Gate":
        gate = self.path_gates.get(path)
        if gate is None:
            gate = self.path_gates[path] = _Gate()
        return gate

    def storage_read(self, nbytes: int, pattern: AccessPattern):
        duration = self.storage_ns(nbytes, pattern)
        yield from _acquire(self.storage_lock)
        yield ("sleep", duration)
        self.machine.release(self.storage_lock)

    def synchronize_rcu(self):
        if self.rcu_boosted:
            yield ("cpu", BOOSTED_OP_CPU_NS)
            yield from _acquire(self.rcu_boost_mutex)
            yield ("sleep", EXPEDITED_GRACE_PERIOD_NS)
            self.machine.release(self.rcu_boost_mutex)
        else:
            yield ("cpu", CONVENTIONAL_OP_CPU_NS)
            yield from self.rcu_wait_lock.acquire()
            yield ("sleep", GRACE_PERIOD_NS)
            self.rcu_wait_lock.held = False

    def mark_ready(self, name: str) -> None:
        if name not in self.ready_at:
            self.ready_at[name] = self.machine.now
            self.machine.fire(self.ready[name])
            self.machine.fire(self.settled[name])


def _shepherd(world: "_ServiceWorld", job, edge_filter, faulter):
    """The predictor's replica of ``JobExecutor._shepherd`` + runner."""
    name = job.unit.name
    unit = job.unit
    machine = world.machine
    for edge in world.transaction.predecessors(name):
        if edge_filter is not None and not edge_filter(edge):
            continue
        gate = (world.settled[edge.predecessor]
                if edge.kind is EdgeKind.STRONG
                else world.started[edge.predecessor])
        if not gate.fired:
            yield ("wait", gate)

    if (any(p not in world.paths for p in unit.condition_paths)
            or unit.unit_type is UnitType.TARGET):
        # A condition skip or a target: the job settles at once and its
        # dependents unblock.
        world.started_at[name] = machine.now
        machine.fire(world.started[name])
        world.mark_ready(name)
        return

    cost = unit.cost
    for _ in range(cost.processes):
        yield from _acquire(world.fork_lock)
        yield ("cpu", cost.fork_ns)
        machine.release(world.fork_lock)

    if cost.exec_bytes:
        yield from world.storage_read(cost.exec_bytes, AccessPattern.RANDOM)
    if not unit.static_build and cost.dynamic_link_ns:
        yield ("cpu", cost.dynamic_link_ns)

    world.started_at[name] = machine.now
    machine.fire(world.started[name])
    if unit.service_type is ServiceType.SIMPLE:
        world.mark_ready(name)

    for path in unit.waits_for_paths:
        if path not in world.paths:
            if faulter is not None:
                yield from faulter(path)
            if path not in world.paths:
                yield ("wait", world.path_gate(path))

    # Initialization chunks interleaved with synchronize_rcu, the first
    # IPC call gated on socket-activation providers.
    syncs = cost.rcu_syncs
    chunks = syncs + 1
    chunk_ns = cost.init_cpu_ns // chunks
    remainder = cost.init_cpu_ns - chunk_ns * chunks
    for index in range(chunks):
        cpu = chunk_ns + (remainder if index == chunks - 1 else 0)
        if cpu:
            yield ("cpu", cpu)
        if index == 0 and unit.ipc_targets:
            for target in unit.ipc_targets:
                if target in world.transaction:
                    gate = world.ready[target]
                    if not gate.fired:
                        yield ("wait", gate)
        if index < syncs:
            yield from world.synchronize_rcu()
    if cost.hw_settle_ns:
        yield ("sleep", cost.hw_settle_ns)

    if unit.service_type is ServiceType.NOTIFY and cost.ready_extra_ns:
        yield ("sleep", cost.ready_extra_ns)
    for path in unit.provides_paths:
        world.provide(path)
    world.mark_ready(name)


def _kmod_worker(world: "_ServiceWorld", boot_modules):
    """Replica of the bulk external-module loader."""
    loaded: set[str] = set()
    for module in boot_modules:
        if module.name in loaded:
            world.provide(f"/dev/{module.name}")
            continue
        yield ("cpu", SYSCALL_COST_NS * SYSCALLS_PER_LOAD)
        yield from world.storage_read(module.size_bytes, AccessPattern.RANDOM)
        yield ("cpu", module.link_cpu_ns)
        if module.hw_settle_ns:
            yield ("sleep", module.hw_settle_ns)
        loaded.add(module.name)
        world.provide(f"/dev/{module.name}")


def _manager_wait(world: "_ServiceWorld", completion_units):
    """Replica of ``_wait_for_completion``: stop at the completion instant."""
    for name in completion_units:
        gate = world.settled[name]
        if not gate.fired:
            yield ("wait", gate)
        if name not in world.ready_at:
            raise AnalysisError(
                f"completion unit {name!r} settled without becoming ready")
    world.completion_ns = world.machine.now
    world.machine.stopped = True


def _make_faulter(world: "_ServiceWorld", core_engine: CoreEngine):
    """On-demand Modularizer Control: demand-load the driver of a path."""
    initcalls = core_engine.initcalls
    completed = set(initcalls.completed)
    # boot_sequence() already ran for the kernel closed form; everything
    # it selected executed in-line.
    completed.update(
        c.name for c in initcalls.boot_sequence(defer=True))

    def faulter(path: str):
        driver = path.rsplit("/", 1)[-1]
        call = initcalls.get(driver)  # KernelError on unknown, as in DES
        if call.name not in completed:
            yield ("cpu", DEMAND_OVERHEAD_NS)
            yield ("cpu", call.cpu_ns)
            if call.hw_settle_ns:
                yield ("sleep", call.hw_settle_ns)
            completed.add(call.name)
        world.provide(path)

    return faulter


# --------------------------------------------------------------------------
# Entry points.


def predict(workload: Workload, bb: BBConfig | None = None,
            cores: int | None = None, kernel_config: Any | None = None,
            manual_bb_group: tuple[str, ...] | None = None,
            text_stats: RegistryTextStats | None = None) -> BootPrediction:
    """Predict boot-completion time for one unperturbed boot.

    Mirrors the :class:`~repro.core.bb.BootSimulation` constructor
    signature.  ``text_stats`` short-circuits the expensive unit-file
    rendering pass — pass the value of a previous :func:`predict` over
    the *same unit set and* ``static_bb_group`` *flag* (see
    :func:`~repro.initsys.preparser.registry_text_stats`) when sweeping
    many configurations of one workload.

    Raises:
        AnalysisError: If the workload cannot be predicted (cyclic
            transaction, unknown completion unit, injected failures).
    """
    bb = bb if bb is not None else BBConfig.none()
    platform = workload.platform_factory()
    cores = cores if cores is not None else platform.cpu_cores
    try:
        registry = workload.fresh_registry()
    except ReproError as exc:
        raise AnalysisError(f"cannot realize workload: {exc}") from exc
    core_engine = _core_engine(workload, platform, bb, kernel_config)
    service_engine = ServiceEngine(registry, workload.completion_units,
                                   bb, manual_group=manual_bb_group)
    if text_stats is None:
        text_stats = registry_text_stats(registry)
    prefix = _serial_prefix(core_engine, text_stats, bb)

    # The boot transaction, on the post-install-section registry (static
    # builds were already applied by the ServiceEngine constructor).
    registry.apply_install_sections()
    try:
        transaction = Transaction(registry, [workload.goal])
    except Exception as exc:
        raise AnalysisError(f"cannot build boot transaction: {exc}") from exc
    missing = [u for u in workload.completion_units if u not in transaction]
    if missing:
        raise AnalysisError(
            f"completion units not in boot transaction: {missing}")
    flaky = [j.unit.name for j in transaction.jobs.values()
             if j.unit.failures_before_success]
    if flaky:
        raise AnalysisError(
            f"predictor models unperturbed boots only; units with "
            f"failures_before_success: {flaky}")

    services_start = sum(prefix)
    machine = _Machine(cores, services_start)
    world = _ServiceWorld(machine, transaction, platform.storage,
                          rcu_boosted=bb.rcu_booster,
                          preexisting_paths=set(workload.preexisting_paths))
    for job in transaction.jobs.values():
        name = job.unit.name
        world.started[name] = _Gate()
        world.ready[name] = _Gate()
        world.settled[name] = _Gate()

    edge_filter = service_engine.edge_filter
    priority_fn = service_engine.priority_fn
    faulter = (_make_faulter(world, core_engine)
               if bb.ondemand_modularizer else None)
    boot_modules = (() if bb.ondemand_modularizer
                    else workload.boot_modules_factory())

    # Activation order mirrors the DES: the manager parks on the first
    # completion gate before any spawned process runs its first step;
    # the kmod worker was spawned before the shepherds.
    machine.start(_Task(_manager_wait(world, workload.completion_units),
                        MANAGER_PRIORITY))
    if boot_modules:
        machine.start(_Task(_kmod_worker(world, boot_modules),
                            KMOD_PRIORITY))
    for job in transaction.jobs.values():
        priority = (priority_fn(job.unit) if priority_fn
                    else SERVICE_PRIORITY)
        machine.start(_Task(_shepherd(world, job, edge_filter, faulter),
                            priority))
    machine.run()

    if world.completion_ns is None:
        raise AnalysisError(
            "prediction deadlocked before boot completion (a waited-for "
            "path or gate never fired)")

    kernel_ns, init_init_ns, load_units_ns, submodules_ns = prefix
    return BootPrediction(
        workload=workload.name,
        features=tuple(bb.enabled_features()),
        cores=cores,
        boot_complete_ns=world.completion_ns,
        kernel_ns=kernel_ns,
        init_init_ns=init_init_ns,
        load_units_ns=load_units_ns,
        submodules_ns=submodules_ns,
        services_ns=world.completion_ns - services_start,
        unit_started_ns=dict(world.started_at),
        unit_ready_ns=dict(world.ready_at),
        bb_group=(service_engine.bb_group
                  if service_engine.edge_filter is not None else frozenset()),
    )


def predict_job(job: "SimJob") -> BootPrediction:
    """Predict the boot a declarative :class:`~repro.runner.jobs.SimJob`
    describes (``boot`` kind, no fault plan).

    Raises:
        AnalysisError: For non-boot kinds or fault-injected jobs.
    """
    from repro.runner.jobs import KIND_BOOT

    if job.kind != KIND_BOOT:
        raise AnalysisError(f"cannot predict a {job.kind!r} job")
    if job.fault_plan is not None:
        raise AnalysisError("predictor models unperturbed boots only; "
                            "this job carries a fault plan")
    if job.workload_factory is None:
        raise AnalysisError("boot SimJob has no workload factory")
    workload = job.workload_factory(*job.workload_args,
                                    **dict(job.workload_kwargs))
    return predict(workload, job.bb, cores=job.cores,
                   kernel_config=job.kernel_config,
                   manual_bb_group=job.manual_bb_group)

# --------------------------------------------------------------------------
# Design-space sweeps.

#: Features that change when the services phase *begins* but never how it
#: unfolds.  Their entire effect is a serial-prefix delta, so the machine
#: solution of the services phase is shift-invariant under them.
PREFIX_ONLY_FEATURES = ("deferred_meminit", "deferred_journal", "preparser",
                        "defer_startup_tasks", "deferred_executor")

#: Features the services-phase solution genuinely depends on (plus the
#: core count and the workload itself).
SERVICE_PHASE_FEATURES = ("rcu_booster", "ondemand_modularizer",
                          "group_isolation", "group_priority_boost",
                          "static_bb_group")


class SweepPredictor:
    """Amortized :func:`predict` for design-space sweeps of one workload.

    Two structural facts of the boot model make large sweeps cheap:

    * Unit-file text statistics depend only on the unit set and the
      ``static_bb_group`` flag, so one rendering pass serves every other
      feature combination.
    * The :data:`PREFIX_ONLY_FEATURES` change *when* the services phase
      starts, never how it unfolds: the machine solution is
      shift-invariant under them, and one run per
      :data:`SERVICE_PHASE_FEATURES` projection (and core count) serves
      every combination of the prefix-only flags.

    Fast-path results are bit-identical to calling :func:`predict`
    directly — asserted by the ``predicted`` differential-oracle group.
    ``machine_runs`` and ``fast_hits`` expose the cache economics for
    sweep logs.
    """

    def __init__(self, workload_factory: Callable[[], Workload]) -> None:
        self._factory = workload_factory
        self._workload: Workload | None = None
        self._stats: dict[bool, RegistryTextStats] = {}
        self._reference: dict[tuple, BootPrediction] = {}
        self._prefix: dict[tuple, tuple[int, int, int, int]] = {}
        self.machine_runs = 0
        self.fast_hits = 0

    # ------------------------------------------------------------- caches

    def _wl(self) -> Workload:
        if self._workload is None:
            self._workload = self._factory()
        return self._workload

    def _stats_for(self, static: bool) -> RegistryTextStats:
        stats = self._stats.get(static)
        if stats is None:
            wl = self._wl()
            bb = BBConfig.none().with_feature("static_bb_group", static)
            try:
                registry = wl.fresh_registry()
            except ReproError as exc:
                raise AnalysisError(
                    f"cannot realize workload: {exc}") from exc
            # The engine applies static builds, which change the unit text.
            ServiceEngine(registry, wl.completion_units, bb)
            stats = self._stats[static] = registry_text_stats(registry)
        return stats

    def _prefix_key(self, bb: BBConfig) -> tuple:
        return tuple(getattr(bb, f) for f in PREFIX_ONLY_FEATURES) \
            + (bb.ondemand_modularizer, bb.static_bb_group)

    def _prefix_parts(self, bb: BBConfig) -> tuple[int, int, int, int]:
        key = self._prefix_key(bb)
        parts = self._prefix.get(key)
        if parts is None:
            wl = self._wl()
            core_engine = _core_engine(wl, wl.platform_factory(), bb, None)
            parts = _serial_prefix(core_engine,
                                   self._stats_for(bb.static_bb_group), bb)
            self._prefix[key] = parts
        return parts

    # -------------------------------------------------------------- entry

    def predict(self, bb: BBConfig | None = None,
                cores: int | None = None) -> BootPrediction:
        """Predict one design-space cell, reusing cached sub-solutions."""
        bb = bb if bb is not None else BBConfig.none()
        if cores is None:
            cores = self._wl().platform_factory().cpu_cores
        skey = tuple(getattr(bb, f)
                     for f in SERVICE_PHASE_FEATURES) + (cores,)
        ref = self._reference.get(skey)
        if ref is None:
            stats = self._stats_for(bb.static_bb_group)
            ref = predict(self._wl(), bb, cores=cores, text_stats=stats)
            self._reference[skey] = ref
            self._prefix[self._prefix_key(bb)] = (
                ref.kernel_ns, ref.init_init_ns, ref.load_units_ns,
                ref.submodules_ns)
            self.machine_runs += 1
            return ref
        self.fast_hits += 1
        parts = self._prefix_parts(bb)
        shift = sum(parts) - (ref.kernel_ns + ref.init_init_ns
                              + ref.load_units_ns + ref.submodules_ns)
        features = tuple(bb.enabled_features())
        if shift == 0 and features == ref.features:
            return ref
        return BootPrediction(
            workload=ref.workload,
            features=features,
            cores=cores,
            boot_complete_ns=ref.boot_complete_ns + shift,
            kernel_ns=parts[0],
            init_init_ns=parts[1],
            load_units_ns=parts[2],
            submodules_ns=parts[3],
            services_ns=ref.services_ns,
            unit_started_ns={name: t + shift
                             for name, t in ref.unit_started_ns.items()},
            unit_ready_ns={name: t + shift
                           for name, t in ref.unit_ready_ns.items()},
            bb_group=ref.bb_group,
        )
