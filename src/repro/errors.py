"""Exception hierarchy for the BB reproduction library.

Every exception raised by :mod:`repro` derives from :class:`ReproError` so
that callers may catch library failures with a single ``except`` clause
while still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulation engine.

    Raised, for example, when an event is scheduled in the past or when a
    process yields an unknown request object.
    """


class InvariantViolationError(SimulationError):
    """A runtime invariant monitor caught the simulator misbehaving.

    Raised by :class:`repro.verify.InvariantMonitor` when a hooked check
    fails — simulated time running backwards, more running tasks than
    cores, a unit starting before its ordering predecessors, deferred
    work running before boot completion, or a deadlocked waiter left at
    quiescence.

    Attributes:
        invariant: Short machine-readable name of the violated invariant.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"invariant {invariant!r} violated: {detail}")


class HardwareError(ReproError):
    """Invalid hardware model configuration or an impossible device request."""


class SchemaError(ReproError):
    """An exported document does not match its published schema.

    Raised by :mod:`repro.analysis.schema` when a Chrome trace or a boot
    report JSON document is malformed — so broken exports fail inside the
    test suite instead of inside Perfetto or downstream tooling.
    """


class KernelError(ReproError):
    """Kernel boot-sequence model failure (bad config, missing module...)."""


class UnitError(ReproError):
    """Base class for init-system unit problems."""


class UnitParseError(UnitError):
    """A unit file could not be parsed.

    Attributes:
        filename: Name of the offending unit file (may be ``"<string>"``).
        lineno: 1-based line number of the first offending line, 0 if
            the problem is not tied to a single line.
    """

    def __init__(self, message: str, filename: str = "<string>", lineno: int = 0):
        self.filename = filename
        self.lineno = lineno
        location = f"{filename}:{lineno}" if lineno else filename
        super().__init__(f"{location}: {message}")


class UnitNotFoundError(UnitError):
    """A referenced unit does not exist in the unit registry."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unit not found: {name!r}")


class DependencyCycleError(UnitError):
    """A transaction contains an unbreakable dependency cycle.

    Attributes:
        cycle: Unit names forming the cycle, in order.
    """

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle + self.cycle[:1]))


class TransactionError(UnitError):
    """A job transaction is internally inconsistent (e.g. conflicting jobs)."""


class ServiceFailureError(UnitError):
    """A service's start job failed during the simulated boot."""

    def __init__(self, unit: str, reason: str):
        self.unit = unit
        self.reason = reason
        super().__init__(f"service {unit!r} failed to start: {reason}")


class WorkloadError(ReproError):
    """A workload description is invalid or cannot be generated."""


class AnalysisError(ReproError):
    """Graph or boot-report analysis failed (e.g. no path to completion)."""


class RunnerError(ReproError):
    """A sweep or fleet execution tier failed as a whole.

    Raised by :class:`repro.runner.sweep.SweepRunner` when the worker
    pool breaks or the sweep is interrupted (the pool is drained and
    pending futures cancelled first, so no orphaned workers survive the
    error), and by the fleet worker pool for the analogous shard-level
    failures.
    """


class FleetError(ReproError):
    """The fleet boot service could not satisfy a request.

    Covers service-side failures that are not a single job's fault: a
    draining service rejecting new submissions, a dead shard, or an
    unusable service configuration.
    """


class ProtocolError(FleetError):
    """A malformed fleet wire message (bad JSON, unknown op, bad spec).

    Raised while decoding JSON-lines frames or while resolving a
    declarative job spec into a :class:`~repro.runner.jobs.SimJob`.
    """


class JournalError(FleetError):
    """The fleet write-ahead job journal is unusable.

    Raised by :mod:`repro.fleet.journal` for non-recoverable store
    problems: a corrupt record in the *middle* of the log (a torn tail is
    tolerated and skipped, but mid-log corruption means the file was
    damaged after it was written), an unreadable checkpoint document, or
    a record of an unknown type.
    """


class ConfigurationError(ReproError):
    """An invalid BB or simulation configuration value."""


class GenerationError(ReproError):
    """A boot-entry generation operation failed.

    Raised by :mod:`repro.generations` for store-level problems: a
    malformed or tampered generation document, a fingerprint mismatch on
    load, a commit that does not fast-forward its ref, or a rollback with
    no parent to fall back to.
    """


class SlotStateError(GenerationError):
    """An illegal A/B slot transition was requested.

    Raised by :class:`repro.generations.SlotState` when a transition
    would brick the simulated device — activating an empty slot, staging
    over the active slot, or confirming health with no trial underway.
    """
