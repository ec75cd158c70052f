"""Semantic unit model: services, sockets, mounts, targets, and costs.

Dependency semantics follow the paper's reading of systemd (§2.5.2 and
Fig. 2):

* ``Requires`` — strong dependency: the required unit is pulled into the
  transaction **and** this unit starts only after it is ready
  ("launch B after A is ready", the red edges of Fig. 2),
* ``Wants`` — weak dependency: the wanted unit is pulled in, and this unit
  is not launched before the wanted unit is launched
  ("launch B not before launching A", the green edges),
* ``Before`` / ``After`` — pure ordering, no pulling,
* ``Conflicts`` — the two units cannot be in the same transaction,
* ``ConditionPathExists`` — skip the unit when the path is absent
  ("I want to be launched after file path D is available" becomes an
  ``After`` on the providing unit *or* a condition skip).

Each unit carries a :class:`SimCost` describing the simulated work of its
start job; in unit-file form it lives in a vendor ``[X-Simulation]``
section, so workload definitions are plain unit files.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import UnitError, UnitParseError
from repro.initsys.unitfile import ParsedUnitFile
from repro.quantities import usec


class UnitType(enum.Enum):
    """Unit kinds, derived from the name suffix."""

    SERVICE = "service"
    SOCKET = "socket"
    MOUNT = "mount"
    TARGET = "target"
    PATH = "path"
    DEVICE = "device"

    @classmethod
    def from_name(cls, name: str) -> "UnitType":
        """Derive the type from a unit name's suffix.

        Raises:
            UnitError: If the suffix is not a known unit type.
        """
        _, _, suffix = name.rpartition(".")
        for member in cls:
            if member.value == suffix:
                return member
        raise UnitError(f"unknown unit type for {name!r}")


class ServiceType(enum.Enum):
    """``Type=`` of a service: when is the unit considered started?"""

    SIMPLE = "simple"  # started as soon as the process is forked
    FORKING = "forking"  # started when the initial process forks a daemon
    ONESHOT = "oneshot"  # started when ExecStart completes
    NOTIFY = "notify"  # started when the daemon signals readiness


class RestartPolicy(enum.Enum):
    """``Restart=`` recovery policy (the init scheme's monitoring and
    recovery mechanism, §2.5.2).

    ``on-failure`` restarts after any failed attempt (crash or watchdog
    timeout), ``on-watchdog`` only after a ``JobTimeout`` interruption,
    and ``always`` restarts regardless of the failure kind and ignores
    ``max_restarts`` — it is bounded only by the unit's start-rate limit
    (``StartLimitBurst``/``StartLimitIntervalNs``), like systemd.
    """

    NO = "no"
    ON_FAILURE = "on-failure"
    ON_WATCHDOG = "on-watchdog"
    ALWAYS = "always"


#: systemd's DefaultStartLimitBurst / DefaultStartLimitIntervalSec:
#: at most 5 starts within any 10 s window for rate-limited policies.
DEFAULT_START_LIMIT_BURST = 5
DEFAULT_START_LIMIT_INTERVAL_NS = 10_000_000_000


def default_service_type(unit_type: "UnitType") -> ServiceType:
    """Start semantics a unit type gets when no ``Type=`` is declared.

    Mount and socket jobs complete when the mount/listen succeeds —
    oneshot semantics; services default to ``simple`` as in systemd.
    """
    if unit_type in (UnitType.MOUNT, UnitType.SOCKET):
        return ServiceType.ONESHOT
    return ServiceType.SIMPLE


@dataclass(frozen=True, slots=True)
class SimCost:
    """Simulated cost of starting (and running) a unit.

    Attributes:
        fork_ns: Manager-side cost of forking the unit's main process.
        exec_bytes: Binary + library bytes read from storage at exec time.
        dynamic_link_ns: Dynamic-linker CPU cost (0 for statically built
            BB-Group binaries, §5).
        init_cpu_ns: CPU work of the service's own initialization.
        rcu_syncs: Number of ``synchronize_rcu`` calls issued during
            initialization (driver-ish services do several).
        hw_settle_ns: Hardware settle time (tuner lock, panel power-up).
        ready_extra_ns: Additional delay between finishing work and
            signalling readiness (notify services).
        processes: Number of OS processes the service comprises (a
            service averages about three, §2.5); scales the fork cost.
        stop_ns: Time to stop the unit at shutdown (signal + exit wait).
        memory_bytes: Resident memory once running (memory-pressure
            management input, §2.5).
    """

    fork_ns: int = usec(300)
    exec_bytes: int = 256 * 1024
    dynamic_link_ns: int = usec(900)
    init_cpu_ns: int = usec(2_000)
    rcu_syncs: int = 0
    hw_settle_ns: int = 0
    ready_extra_ns: int = 0
    processes: int = 1
    stop_ns: int = usec(2_000)
    memory_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if min(self.fork_ns, self.exec_bytes, self.dynamic_link_ns,
               self.init_cpu_ns, self.rcu_syncs, self.hw_settle_ns,
               self.ready_extra_ns, self.stop_ns, self.memory_bytes) < 0:
            raise UnitError("SimCost fields cannot be negative")
        if self.processes < 1:
            raise UnitError("a unit has at least one process")


@dataclass(slots=True)
class Unit:
    """One unit known to the init manager."""

    name: str
    description: str = ""
    service_type: ServiceType = ServiceType.SIMPLE
    requires: list[str] = field(default_factory=list)
    wants: list[str] = field(default_factory=list)
    before: list[str] = field(default_factory=list)
    after: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)
    condition_paths: list[str] = field(default_factory=list)
    wanted_by: list[str] = field(default_factory=list)
    required_by: list[str] = field(default_factory=list)
    provides_paths: list[str] = field(default_factory=list)
    waits_for_paths: list[str] = field(default_factory=list)
    # Socket-activation clients: services whose readiness this unit's
    # FIRST IPC call blocks on (the kernel buffers the connect, so the
    # unit launches and initializes in parallel with the provider and
    # only synchronizes at the call — systemd's parallelization trick).
    ipc_targets: list[str] = field(default_factory=list)
    cost: SimCost = field(default_factory=SimCost)
    static_build: bool = False
    bb_deferrable: bool = False
    restart_policy: RestartPolicy = RestartPolicy.NO
    restart_delay_ns: int = 100_000_000
    max_restarts: int = 3
    failures_before_success: int = 0
    start_timeout_ns: int = 0  # 0 = no watchdog (JobTimeoutSec=infinity)
    # §2.5.2 escalation knobs: OnFailure= units activated when this unit
    # fails permanently, systemd-style start-rate limiting (0 burst means
    # "use the policy default": unlimited unless Restart=always, which
    # falls back to the systemd 5-per-10 s default), and the exponential
    # growth factor applied to restart_delay_ns between restarts.
    on_failure: list[str] = field(default_factory=list)
    start_limit_burst: int = 0
    start_limit_interval_ns: int = DEFAULT_START_LIMIT_INTERVAL_NS
    restart_backoff_factor: float = 1.0
    unit_type: UnitType = field(init=False)

    def __post_init__(self) -> None:
        self.unit_type = UnitType.from_name(self.name)
        if self.name in self.requires or self.name in self.wants:
            raise UnitError(f"{self.name}: unit depends on itself")
        if self.name in self.on_failure:
            raise UnitError(f"{self.name}: unit is its own OnFailure handler")
        if self.restart_backoff_factor < 1.0:
            raise UnitError(f"{self.name}: restart_backoff_factor must be "
                            f">= 1.0, got {self.restart_backoff_factor}")
        if self.start_limit_burst < 0 or self.start_limit_interval_ns < 0:
            raise UnitError(f"{self.name}: start-limit values cannot be "
                            f"negative")

    def with_cost(self, **changes: object) -> "Unit":
        """Copy of this unit with :class:`SimCost` fields replaced."""
        clone = replace_unit(self)
        clone.cost = replace(self.cost, **changes)  # type: ignore[arg-type]
        return clone

    @classmethod
    def from_parsed(cls, parsed: ParsedUnitFile) -> "Unit":
        """Build a semantic unit from a parsed unit file.

        Raises:
            UnitParseError: On invalid ``Type=`` or ``[X-Simulation]`` values.
        """
        declared = parsed.get("Service", "Type")
        if declared is None:
            service_type = default_service_type(UnitType.from_name(parsed.name))
        else:
            try:
                service_type = ServiceType(str(declared))
            except ValueError:
                raise UnitParseError(f"invalid Type={declared!r}",
                                     parsed.name) from None

        def sim_int(key: str, default: int) -> int:
            raw = parsed.get("X-Simulation", key)
            if raw is None:
                return default
            try:
                return int(str(raw))
            except ValueError:
                raise UnitParseError(
                    f"[X-Simulation] {key} must be an integer, got {raw!r}",
                    parsed.name) from None

        default_cost = SimCost()
        cost = SimCost(
            fork_ns=sim_int("ForkNs", default_cost.fork_ns),
            exec_bytes=sim_int("ExecBytes", default_cost.exec_bytes),
            dynamic_link_ns=sim_int("DynamicLinkNs", default_cost.dynamic_link_ns),
            init_cpu_ns=sim_int("InitCpuNs", default_cost.init_cpu_ns),
            rcu_syncs=sim_int("RcuSyncs", default_cost.rcu_syncs),
            hw_settle_ns=sim_int("HwSettleNs", default_cost.hw_settle_ns),
            ready_extra_ns=sim_int("ReadyExtraNs", default_cost.ready_extra_ns),
            processes=sim_int("Processes", default_cost.processes),
            stop_ns=sim_int("StopNs", default_cost.stop_ns),
            memory_bytes=sim_int("MemoryBytes", default_cost.memory_bytes),
        )
        restart_value = str(parsed.get("Service", "Restart", "no"))
        try:
            restart_policy = RestartPolicy(restart_value)
        except ValueError:
            raise UnitParseError(f"invalid Restart={restart_value!r}",
                                 parsed.name) from None

        def unit_int(section: str, key: str, default: int) -> int:
            raw = parsed.get(section, key)
            if raw is None:
                return default
            try:
                value = int(str(raw))
            except ValueError:
                raise UnitParseError(
                    f"[{section}] {key} must be an integer, got {raw!r}",
                    parsed.name) from None
            if value < 0:
                raise UnitParseError(
                    f"[{section}] {key} cannot be negative, got {value}",
                    parsed.name)
            return value

        backoff_raw = parsed.get("Service", "RestartBackoffFactor")
        if backoff_raw is None:
            backoff_factor = 1.0
        else:
            try:
                backoff_factor = float(str(backoff_raw))
            except ValueError:
                raise UnitParseError(
                    f"[Service] RestartBackoffFactor must be a number, "
                    f"got {backoff_raw!r}", parsed.name) from None
            if backoff_factor < 1.0:
                raise UnitParseError(
                    f"[Service] RestartBackoffFactor must be >= 1.0, "
                    f"got {backoff_raw!r}", parsed.name)
        condition = parsed.get("Unit", "ConditionPathExists")
        return cls(
            name=parsed.name,
            description=str(parsed.get("Unit", "Description", "")),
            service_type=service_type,
            requires=parsed.get_list("Unit", "Requires"),
            wants=parsed.get_list("Unit", "Wants"),
            before=parsed.get_list("Unit", "Before"),
            after=parsed.get_list("Unit", "After"),
            conflicts=parsed.get_list("Unit", "Conflicts"),
            condition_paths=[str(condition)] if condition else [],
            wanted_by=parsed.get_list("Install", "WantedBy"),
            required_by=parsed.get_list("Install", "RequiredBy"),
            provides_paths=parsed.get_list("X-Simulation", "ProvidesPaths"),
            waits_for_paths=parsed.get_list("X-Simulation", "WaitsForPaths"),
            ipc_targets=parsed.get_list("X-Simulation", "IpcTargets"),
            cost=cost,
            static_build=str(parsed.get("X-Simulation", "StaticBuild", "no")) == "yes",
            bb_deferrable=str(parsed.get("X-Simulation", "BBDeferrable", "no")) == "yes",
            restart_policy=restart_policy,
            restart_delay_ns=sim_int("RestartDelayNs", 100_000_000),
            max_restarts=sim_int("MaxRestarts", 3),
            failures_before_success=sim_int("FailuresBeforeSuccess", 0),
            start_timeout_ns=sim_int("StartTimeoutNs", 0),
            on_failure=parsed.get_list("Unit", "OnFailure"),
            start_limit_burst=unit_int("Unit", "StartLimitBurst", 0),
            start_limit_interval_ns=unit_int(
                "Unit", "StartLimitIntervalNs",
                DEFAULT_START_LIMIT_INTERVAL_NS),
            restart_backoff_factor=backoff_factor,
        )

    def to_parsed(self) -> ParsedUnitFile:
        """Serialize back to a :class:`ParsedUnitFile` (for render/round-trip)."""
        sections: dict[str, dict[str, object]] = {"Unit": {}}
        unit_section = sections["Unit"]
        if self.description:
            unit_section["Description"] = self.description
        for key, values in (("Requires", self.requires), ("Wants", self.wants),
                            ("Before", self.before), ("After", self.after),
                            ("Conflicts", self.conflicts)):
            if values:
                unit_section[key] = list(values)
        if self.condition_paths:
            unit_section["ConditionPathExists"] = self.condition_paths[0]
        if self.on_failure:
            unit_section["OnFailure"] = list(self.on_failure)
        if self.start_limit_burst:
            unit_section["StartLimitBurst"] = str(self.start_limit_burst)
        if self.start_limit_interval_ns != DEFAULT_START_LIMIT_INTERVAL_NS:
            unit_section["StartLimitIntervalNs"] = str(
                self.start_limit_interval_ns)
        if (self.unit_type is UnitType.SERVICE
                or self.service_type is not default_service_type(self.unit_type)):
            sections["Service"] = {"Type": self.service_type.value}
        if self.restart_policy is not RestartPolicy.NO:
            sections.setdefault("Service", {})["Restart"] = self.restart_policy.value
        if self.restart_backoff_factor != 1.0:
            sections.setdefault("Service", {})["RestartBackoffFactor"] = (
                repr(self.restart_backoff_factor))
        install: dict[str, object] = {}
        if self.wanted_by:
            install["WantedBy"] = list(self.wanted_by)
        if self.required_by:
            install["RequiredBy"] = list(self.required_by)
        if install:
            sections["Install"] = install
        sim: dict[str, object] = {
            "ForkNs": str(self.cost.fork_ns),
            "ExecBytes": str(self.cost.exec_bytes),
            "DynamicLinkNs": str(self.cost.dynamic_link_ns),
            "InitCpuNs": str(self.cost.init_cpu_ns),
            "RcuSyncs": str(self.cost.rcu_syncs),
            "HwSettleNs": str(self.cost.hw_settle_ns),
            "ReadyExtraNs": str(self.cost.ready_extra_ns),
            "Processes": str(self.cost.processes),
            "StopNs": str(self.cost.stop_ns),
            "MemoryBytes": str(self.cost.memory_bytes),
        }
        if self.restart_delay_ns != 100_000_000:
            sim["RestartDelayNs"] = str(self.restart_delay_ns)
        if self.max_restarts != 3:
            sim["MaxRestarts"] = str(self.max_restarts)
        if self.failures_before_success:
            sim["FailuresBeforeSuccess"] = str(self.failures_before_success)
        if self.start_timeout_ns:
            sim["StartTimeoutNs"] = str(self.start_timeout_ns)
        if self.provides_paths:
            sim["ProvidesPaths"] = list(self.provides_paths)
        if self.waits_for_paths:
            sim["WaitsForPaths"] = list(self.waits_for_paths)
        if self.ipc_targets:
            sim["IpcTargets"] = list(self.ipc_targets)
        if self.static_build:
            sim["StaticBuild"] = "yes"
        if self.bb_deferrable:
            sim["BBDeferrable"] = "yes"
        sections["X-Simulation"] = sim
        parsed = ParsedUnitFile(name=self.name, sections=sections)
        return parsed


def replace_unit(unit: Unit) -> Unit:
    """Deep-ish copy of a unit (lists copied, cost shared until replaced)."""
    return Unit(
        name=unit.name, description=unit.description,
        service_type=unit.service_type,
        requires=list(unit.requires), wants=list(unit.wants),
        before=list(unit.before), after=list(unit.after),
        conflicts=list(unit.conflicts),
        condition_paths=list(unit.condition_paths),
        wanted_by=list(unit.wanted_by), required_by=list(unit.required_by),
        provides_paths=list(unit.provides_paths),
        waits_for_paths=list(unit.waits_for_paths),
        ipc_targets=list(unit.ipc_targets),
        cost=unit.cost, static_build=unit.static_build,
        bb_deferrable=unit.bb_deferrable,
        restart_policy=unit.restart_policy,
        restart_delay_ns=unit.restart_delay_ns,
        max_restarts=unit.max_restarts,
        failures_before_success=unit.failures_before_success,
        start_timeout_ns=unit.start_timeout_ns,
        on_failure=list(unit.on_failure),
        start_limit_burst=unit.start_limit_burst,
        start_limit_interval_ns=unit.start_limit_interval_ns,
        restart_backoff_factor=unit.restart_backoff_factor,
    )
