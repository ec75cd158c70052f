"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a picklable value describing *what can go wrong*
during one boot: storage read errors and latency spikes, service start
failures and hangs, kernel-module load failures, missing or late device
paths, and peripheral settle flakiness.  Plans are pure data — frozen
dataclasses of ints, floats, and glob patterns — so they

* pickle across worker processes like any other :class:`SimJob` field,
* encode canonically (see :func:`repro.runner.jobs.canonical_repr`) and
  therefore participate in job fingerprints: a faulted run is cached and
  deduplicated exactly like a healthy one,
* are reproducible: every probabilistic decision an injector makes is
  drawn from a stream derived *only* from ``plan.seed`` and the stable
  identity of the decision point (unit name, attempt number, request
  index), never from global RNG state or iteration order.

The paper motivates this twice: §2.5.2's monitoring-and-recovery story
assumes services *do* fail during boot, and §2.5.3/§3.3 promise boot-time
consistency under exactly this kind of perturbation.  Compile a plan into
live hooks with :meth:`FaultPlan.compile` (see
:mod:`repro.faults.injector`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


def _check_rate(value: float, label: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{label} must be in [0, 1], got {value!r}")


def _check_non_negative(value: int, label: str) -> None:
    if value < 0:
        raise ConfigurationError(f"{label} cannot be negative: {value!r}")


@dataclass(frozen=True, slots=True)
class StorageFault:
    """Storage-channel misbehaviour, applied per request.

    Attributes:
        spike_rate: Probability a request suffers a latency spike.
        spike_ns: Added latency of one spike (device-side stall; it holds
            the flash channel, so queued requests feel it too).
        error_rate: Probability a request hits a read/write error.  Errors
            are modelled as firmware-level retries: the transfer succeeds
            after paying ``error_retry_ns`` plus a full re-transfer.
        error_retry_ns: Error-recovery penalty per failed attempt.
        affect_writes: Whether writes are also eligible (reads always are).
    """

    spike_rate: float = 0.0
    spike_ns: int = 5_000_000
    error_rate: float = 0.0
    error_retry_ns: int = 2_000_000
    affect_writes: bool = False

    def __post_init__(self) -> None:
        _check_rate(self.spike_rate, "StorageFault.spike_rate")
        _check_rate(self.error_rate, "StorageFault.error_rate")
        _check_non_negative(self.spike_ns, "StorageFault.spike_ns")
        _check_non_negative(self.error_retry_ns, "StorageFault.error_retry_ns")


@dataclass(frozen=True, slots=True)
class ServiceFault:
    """Start-job misbehaviour for units matching a glob pattern.

    Generalizes the old per-unit ``failures_before_success`` knob: the
    injector decides per (unit, attempt) whether the start crashes before
    signalling readiness, and can additionally stall the attempt.

    Attributes:
        unit: Glob pattern over unit names (``fnmatch`` syntax).
        fail_attempts: The first N attempts crash deterministically.
        fail_rate: Additional per-attempt crash probability (applied to
            attempts beyond ``fail_attempts``).
        hang_ns: Stall inserted before the unit signals readiness — long
            stalls trip the unit's ``JobTimeoutSec`` watchdog if it has one.
        hang_rate: Probability an attempt hangs (1.0 = every attempt).
    """

    unit: str
    fail_attempts: int = 0
    fail_rate: float = 0.0
    hang_ns: int = 0
    hang_rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.unit:
            raise ConfigurationError("ServiceFault.unit pattern cannot be empty")
        _check_non_negative(self.fail_attempts, "ServiceFault.fail_attempts")
        _check_non_negative(self.hang_ns, "ServiceFault.hang_ns")
        _check_rate(self.fail_rate, "ServiceFault.fail_rate")
        _check_rate(self.hang_rate, "ServiceFault.hang_rate")


@dataclass(frozen=True, slots=True)
class ModuleFault:
    """Kernel-module load misbehaviour for modules matching a glob.

    Attributes:
        module: Glob pattern over module names.
        fail_rate: Probability the load fails (the kmod worker pays the
            full load cost, marks the module failed, and never provides
            its device node).
        extra_latency_ns: Added load latency for matching modules that do
            load (slow firmware download, bus contention).
    """

    module: str
    fail_rate: float = 1.0
    extra_latency_ns: int = 0

    def __post_init__(self) -> None:
        if not self.module:
            raise ConfigurationError("ModuleFault.module pattern cannot be empty")
        _check_rate(self.fail_rate, "ModuleFault.fail_rate")
        _check_non_negative(self.extra_latency_ns,
                            "ModuleFault.extra_latency_ns")


@dataclass(frozen=True, slots=True)
class PathFault:
    """A device/filesystem path that appears late — or never.

    Attributes:
        path: Exact simulated path (``/dev/tuner_drv``).
        delay_ns: Provide the path this long after init starts (0 with
            ``missing=False`` is a no-op).
        missing: Suppress every provide of the path for the whole boot;
            units waiting on it block until a watchdog or the boot is
            diagnosed as wedged.
    """

    path: str
    delay_ns: int = 0
    missing: bool = False

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("PathFault.path cannot be empty")
        _check_non_negative(self.delay_ns, "PathFault.delay_ns")


@dataclass(frozen=True, slots=True)
class SettleFault:
    """Peripheral settle flakiness for units matching a glob.

    Attributes:
        unit: Glob pattern over unit names.
        multiplier: Deterministic scale on ``hw_settle_ns``.
        jitter: Extra per-(unit, attempt) variation: the effective settle
            is ``base * multiplier * (1 + jitter * u)`` with ``u`` drawn
            uniformly from [-1, 1].
    """

    unit: str = "*"
    multiplier: float = 1.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not self.unit:
            raise ConfigurationError("SettleFault.unit pattern cannot be empty")
        if self.multiplier < 0.0:
            raise ConfigurationError("SettleFault.multiplier cannot be negative")
        _check_rate(self.jitter, "SettleFault.jitter")


@dataclass(frozen=True, slots=True)
class DeferredFault:
    """Post-completion deferred-task misbehaviour.

    Deferred work retries with bounded backoff (§2.5.2 recovery applies
    after boot completion too); this spec makes attempts fail.

    Attributes:
        task: Glob pattern over deferred-task names.
        fail_attempts: The first N attempts fail deterministically.
        fail_rate: Additional per-attempt failure probability.
    """

    task: str = "*"
    fail_attempts: int = 0
    fail_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.task:
            raise ConfigurationError("DeferredFault.task pattern cannot be empty")
        _check_non_negative(self.fail_attempts, "DeferredFault.fail_attempts")
        _check_rate(self.fail_rate, "DeferredFault.fail_rate")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded bundle of fault specs for one boot.

    Attributes:
        seed: Root of every probabilistic decision the compiled injector
            makes.  Same seed + same specs ⇒ identical injections,
            regardless of process, worker count, or cache state.
        storage / services / modules / paths / settles / deferred: The
            spec tuples (empty tuples inject nothing).
        label: Human-facing tag; carried along but semantically inert
            (it *does* enter the fingerprint — two identically-specced
            plans with different labels are still the same faults, but
            keeping the encoding total beats special-casing).
    """

    seed: int = 0
    storage: tuple[StorageFault, ...] = ()
    services: tuple[ServiceFault, ...] = ()
    modules: tuple[ModuleFault, ...] = ()
    paths: tuple[PathFault, ...] = ()
    settles: tuple[SettleFault, ...] = ()
    deferred: tuple[DeferredFault, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        for spec_field, expected in (("storage", StorageFault),
                                     ("services", ServiceFault),
                                     ("modules", ModuleFault),
                                     ("paths", PathFault),
                                     ("settles", SettleFault),
                                     ("deferred", DeferredFault)):
            specs = getattr(self, spec_field)
            if not isinstance(specs, tuple):
                raise ConfigurationError(
                    f"FaultPlan.{spec_field} must be a tuple, got "
                    f"{type(specs).__name__}")
            for spec in specs:
                if not isinstance(spec, expected):
                    raise ConfigurationError(
                        f"FaultPlan.{spec_field} entries must be "
                        f"{expected.__name__}, got {type(spec).__name__}")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.storage or self.services or self.modules
                    or self.paths or self.settles or self.deferred)

    def compile(self, attempt_offsets: "dict[str, int] | None" = None,
                ) -> "BootFaultInjector":
        """Build the live injector for one simulation run.

        Injectors hold per-run mutable state (request counters, stats),
        so compile a fresh one per boot.

        Args:
            attempt_offsets: Per-unit count of start attempts already made
                in *previous* boots of the same supervised recovery run.
                The injector adds the offset to each attempt number, so a
                transient fault that clears after N attempts keeps
                clearing across supervisor reboots instead of resetting —
                escalation-aware replay.
        """
        from repro.faults.injector import BootFaultInjector

        return BootFaultInjector(self, attempt_offsets=attempt_offsets)

    def describe(self) -> str:
        """One-line human summary (CLI and experiment tables)."""
        parts = []
        for spec_field in ("storage", "services", "modules", "paths",
                           "settles", "deferred"):
            specs = getattr(self, spec_field)
            if specs:
                parts.append(f"{len(specs)} {spec_field}")
        body = ", ".join(parts) if parts else "no faults"
        name = self.label or "fault-plan"
        return f"{name}(seed={self.seed}: {body})"


#: Every spec type, for introspection and serialization helpers.
SPEC_TYPES = (StorageFault, ServiceFault, ModuleFault, PathFault,
              SettleFault, DeferredFault)
