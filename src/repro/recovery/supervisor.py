"""The escalating boot-recovery orchestrator.

A consumer device has no operator: whatever breaks during boot, the TV
must come up (§2.5.2 frames systemd's restart/``OnFailure=`` machinery as
exactly this recovery mechanism, and §4 treats the hibernation snapshot
as a fast path that must fail over to a full boot when the image is
torn).  :class:`BootSupervisor` packages that instinct as a deterministic
escalation ladder over :class:`~repro.core.BootSimulation`:

1. ``snapshot`` — verify the hibernation image's integrity; restore when
   intact, fall through to a full boot when corrupt,
2. ``as-configured`` — one ordinary boot under the policy's BB feature
   set,
3. ``restart`` — same boot, but every unit is forced onto
   ``Restart=on-failure`` with exponential backoff + seeded jitter, units
   without a watchdog get one (hangs become failures), and a diagnostic
   ``OnFailure=`` handler is wired onto the BB Group,
4. ``isolate`` — additionally enable BB Group isolation and mask the
   units that failed in earlier rungs (when they are outside the
   completion-critical closure),
5. ``safe-mode`` — vanilla boot (no BB features) with everything outside
   the completion closure masked,
6. ``rescue`` — synthesize a ``rescue.target`` requiring only the
   completion-critical units that are not implicated by the last
   failure's post-mortem, and boot just those.

Devices with A/B boot slots (:mod:`repro.generations`) append a seventh
rung, ``slot-rollback``: boot the known-good generation named by the
policy's ``fallback_workload``/``fallback_bb`` instead of the trial one.
Orthogonally, a policy ``max_boot_ns`` turns slow-but-successful boots
into ``regressed`` attempts, so a firmware update that merely regresses
boot time still escalates down to the rollback.

The ladder stops at the first rung whose boot reaches completion.  Start
attempts accumulate across rungs (``attempt_offsets``), so a fault plan's
``fail_attempts`` budget keeps draining across supervised reboots just as
flash state would persist across real ones.  Everything random is derived
from the policy seed — replaying a recovery run is byte-identical.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.core.bb import BootSimulation
from repro.core.config import BBConfig
from repro.core.degraded import DegradedBootError
from repro.graph.depgraph import DependencyGraph
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import (RestartPolicy, ServiceType, SimCost, Unit,
                                 UnitType, replace_unit)
from repro.kernel.snapshot import verify_snapshot
from repro.quantities import usec
from repro.recovery.policy import (RUNG_AS_CONFIGURED, RUNG_ISOLATE,
                                   RUNG_RESCUE, RUNG_RESTART, RUNG_SAFE_MODE,
                                   RUNG_SLOT_ROLLBACK, RUNG_SNAPSHOT,
                                   AttemptRecord, RecoveryOutcome,
                                   RecoveryPolicy)
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.core.degraded import DegradedBootReport
    from repro.faults.plan import FaultPlan

#: The synthesized emergency goal of the ``rescue`` rung.
RESCUE_TARGET = "rescue.target"

#: Rung outcome words (pinned by ``RECOVERY_OUTCOMES`` in the schema).
OUTCOME_COMPLETED = "completed"
OUTCOME_DEGRADED = "degraded"
OUTCOME_FAILED = "failed"
OUTCOME_WEDGED = "wedged"
OUTCOME_SKIPPED = "skipped"
OUTCOME_REGRESSED = "regressed"


class _RungNotApplicable(Exception):
    """This rung cannot run in the current state (recorded as skipped)."""


class BootSupervisor:
    """Drive one workload through the recovery ladder.

    Args:
        workload: Device + service set to boot.
        policy: Escalation policy; defaults to :class:`RecoveryPolicy()`.
        fault_plan: Optional fault plan, shared by every rung's boot (the
            injector is recompiled per boot with the accumulated attempt
            offsets, so transient faults clear across supervised reboots).
        monitor: Optional :class:`~repro.verify.InvariantMonitor`,
            re-attached to every rung's simulator and finalized on the
            converging boot.

    A supervisor is single-shot, like the simulation it wraps.
    """

    def __init__(self, workload: Workload,
                 policy: RecoveryPolicy | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 monitor=None):
        self.workload = workload
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.fault_plan = fault_plan
        self.monitor = monitor
        self.simulations: list[BootSimulation] = []
        self._closure_cache: frozenset[str] | None = None

    # ----------------------------------------------------------------- run

    def run(self) -> RecoveryOutcome:
        """Climb the ladder until a boot completes or rungs run out."""
        policy = self.policy
        records: list[AttemptRecord] = []
        total_ns = 0
        attempt_offsets: dict[str, int] = {}
        restart_history: dict[str, dict] = {}
        failed_ever: set[str] = set()
        snapshot_section: dict | None = None
        last_failure: "DegradedBootReport | None" = None

        for rung in policy.ladder:
            if rung == RUNG_SNAPSHOT:
                if policy.snapshot is None:
                    continue
                snapshot_section, record = self._try_snapshot()
                records.append(record)
                total_ns += record.boot_ns
                if record.outcome == OUTCOME_COMPLETED:
                    return self._converged(rung, records, total_ns,
                                           restart_history, set(),
                                           snapshot_section, report=None)
                continue

            if rung == RUNG_SLOT_ROLLBACK:
                record, fallback_report = self._try_slot_rollback()
                records.append(record)
                total_ns += record.boot_ns
                if record.outcome in (OUTCOME_COMPLETED, OUTCOME_DEGRADED):
                    return self._converged(rung, records, total_ns,
                                           restart_history, set(),
                                           snapshot_section, fallback_report)
                if record.outcome != OUTCOME_SKIPPED:
                    total_ns += policy.reboot_overhead_ns
                continue

            try:
                workload, bb, masked = self._prepare(rung, failed_ever,
                                                     last_failure)
            except _RungNotApplicable:
                records.append(AttemptRecord(rung, OUTCOME_SKIPPED, 0))
                continue

            jitter = policy.restart_jitter if rung != RUNG_AS_CONFIGURED else 0.0
            sim = BootSimulation(
                workload, bb=bb, fault_plan=self.fault_plan,
                monitor=self.monitor, restart_seed=policy.seed,
                restart_jitter=jitter, attempt_offsets=dict(attempt_offsets))
            self.simulations.append(sim)
            try:
                report = sim.run()
            except DegradedBootError as exc:
                self._harvest(sim, attempt_offsets, restart_history)
                last_failure = exc.report
                failed_ever.update(exc.report.failed_units)
                word = OUTCOME_WEDGED if exc.report.boot_wedged else OUTCOME_FAILED
                records.append(AttemptRecord(
                    rung, word, exc.report.time_ns,
                    sorted(exc.report.failed_units)))
                total_ns += exc.report.time_ns + policy.reboot_overhead_ns
                continue

            self._harvest(sim, attempt_offsets, restart_history)
            if (policy.max_boot_ns is not None
                    and report.boot_complete_ns > policy.max_boot_ns):
                # The boot finished, but slower than the policy tolerates
                # (an OTA update regressing boot time): count it as a
                # failed attempt and escalate toward slot-rollback.
                records.append(AttemptRecord(
                    rung, OUTCOME_REGRESSED, report.boot_complete_ns,
                    sorted(report.failed_units)))
                total_ns += report.boot_complete_ns + policy.reboot_overhead_ns
                continue
            word = (OUTCOME_DEGRADED if report.degraded or masked
                    else OUTCOME_COMPLETED)
            records.append(AttemptRecord(rung, word, report.boot_complete_ns,
                                         sorted(report.failed_units)))
            total_ns += report.boot_complete_ns
            return self._converged(rung, records, total_ns, restart_history,
                                   masked, snapshot_section, report)

        return RecoveryOutcome(
            policy=policy.label, seed=policy.seed, converged=False, rung=None,
            rungs=records, total_recovery_ns=total_ns,
            restart_history=self._restarted_only(restart_history),
            masked_units=[], snapshot=snapshot_section,
            report=None, degraded_report=last_failure)

    # --------------------------------------------------------------- rungs

    def _try_snapshot(self) -> tuple[dict, AttemptRecord]:
        """Verify the hibernation image; restore it when intact."""
        policy = self.policy
        assert policy.snapshot is not None
        model = policy.snapshot.model
        if not model.usable_with_factory_image():
            # Third-party apps invalidate the factory snapshot (§4); the
            # gate costs nothing because nothing is read.
            section = {"intact": False, "verify_ns": 0, "restore_ns": 0}
            return section, AttemptRecord(RUNG_SNAPSHOT, OUTCOME_SKIPPED, 0)
        platform = self.workload.platform_factory()
        verdict = verify_snapshot(model, platform, policy.seed,
                                  corrupt_rate=policy.snapshot.corrupt_rate)
        if not verdict.intact:
            section = {"intact": False, "verify_ns": verdict.verify_time_ns,
                       "restore_ns": 0}
            return section, AttemptRecord(RUNG_SNAPSHOT, OUTCOME_SKIPPED,
                                          verdict.verify_time_ns)
        restore_ns = model.restore_time_ns(platform)
        section = {"intact": True, "verify_ns": verdict.verify_time_ns,
                   "restore_ns": restore_ns}
        return section, AttemptRecord(RUNG_SNAPSHOT, OUTCOME_COMPLETED,
                                      verdict.verify_time_ns + restore_ns)

    def _try_slot_rollback(self) -> tuple[AttemptRecord, object]:
        """Boot the known-good A/B slot's generation instead of the trial.

        The fallback profile comes from the policy (a workload *name* and
        a BB feature set, pure data), and the boot deliberately drops the
        trial's fault plan: the standby slot still holds the pre-update
        image, so the update's faults do not apply.  The policy's
        ``max_boot_ns`` gate still does — a "known-good" slot that
        regressed too would not be a recovery.
        """
        policy = self.policy
        if policy.fallback_workload is None:
            return AttemptRecord(RUNG_SLOT_ROLLBACK, OUTCOME_SKIPPED, 0), None
        from repro.bootspec import resolve_workload

        factory = resolve_workload(policy.fallback_workload,
                                   what="fallback workload")
        bb = (policy.fallback_bb if policy.fallback_bb is not None
              else BBConfig.none())
        sim = BootSimulation(factory(), bb=bb, fault_plan=None,
                             monitor=self.monitor, restart_seed=policy.seed)
        self.simulations.append(sim)
        try:
            report = sim.run()
        except DegradedBootError as exc:
            word = (OUTCOME_WEDGED if exc.report.boot_wedged
                    else OUTCOME_FAILED)
            return AttemptRecord(RUNG_SLOT_ROLLBACK, word,
                                 exc.report.time_ns,
                                 sorted(exc.report.failed_units)), None
        if (policy.max_boot_ns is not None
                and report.boot_complete_ns > policy.max_boot_ns):
            return AttemptRecord(RUNG_SLOT_ROLLBACK, OUTCOME_REGRESSED,
                                 report.boot_complete_ns,
                                 sorted(report.failed_units)), None
        word = OUTCOME_DEGRADED if report.degraded else OUTCOME_COMPLETED
        return AttemptRecord(RUNG_SLOT_ROLLBACK, word,
                             report.boot_complete_ns,
                             sorted(report.failed_units)), report

    def _prepare(self, rung: str, failed_ever: set[str],
                 last_failure: "DegradedBootReport | None",
                 ) -> tuple[Workload, BBConfig, set[str]]:
        """Build the (workload, bb, masked-units) triple for one rung."""
        base_bb = (self.policy.base_bb if self.policy.base_bb is not None
                   else BBConfig.none())
        if rung == RUNG_AS_CONFIGURED:
            return self.workload, base_bb, set()
        if rung == RUNG_RESTART:
            workload = self._wrap(lambda reg: self._force_restarts(reg))
            return workload, base_bb, set()
        if rung == RUNG_ISOLATE:
            masked = self._mask_cascade(
                failed_ever, set(self._closure()) | {self.workload.goal})

            def mutate(registry: UnitRegistry) -> None:
                self._force_restarts(registry)
                for name in masked:
                    if name in registry:
                        registry.remove(name)

            bb = base_bb.with_feature("group_isolation", True)
            return self._wrap(mutate), bb, masked
        if rung == RUNG_SAFE_MODE:
            return self._prepare_safe_mode()
        if rung == RUNG_RESCUE:
            return self._prepare_rescue(failed_ever, last_failure)
        raise _RungNotApplicable(rung)

    def _prepare_safe_mode(self) -> tuple[Workload, BBConfig, set[str]]:
        """Vanilla boot with only the completion-critical closure."""
        goal = self.workload.goal
        protected = set(self._closure()) | {goal}
        registry = self.workload.fresh_registry()
        masked = self._mask_cascade(
            (name for name in registry.names if name not in protected),
            protected)

        def mutate(reg: UnitRegistry) -> None:
            self._force_restarts(reg)
            for name in masked:
                if name in reg:
                    reg.remove(name)
            # The goal's pull of the completion units usually arrives via
            # WantedBy= of units we just removed; pin it strongly instead.
            goal_unit = replace_unit(reg.get(goal))
            for name in self.workload.completion_units:
                if name not in goal_unit.requires and name != goal:
                    goal_unit.requires.append(name)
            reg.replace(goal_unit)

        return self._wrap(mutate), BBConfig.none(), masked

    def _prepare_rescue(self, failed_ever: set[str],
                        last_failure: "DegradedBootReport | None",
                        ) -> tuple[Workload, BBConfig, set[str]]:
        """Boot only the completion-critical units the post-mortem clears."""
        if last_failure is None and not failed_ever:
            raise _RungNotApplicable("nothing failed, nothing to rescue")
        poison = set(failed_ever)
        if last_failure is not None:
            poison.update(last_failure.failed_units)
            if last_failure.boot_wedged:
                # A drained queue means every unsettled unit is genuinely
                # stuck (a device that never appeared), not merely late.
                poison.update(last_failure.unsettled_units)
                if last_failure.culprit_unit:
                    poison.add(last_failure.culprit_unit)
        poison = self._mask_cascade(poison, protected=set())
        emergency = sorted(self._closure() - poison - {RESCUE_TARGET})
        emergency = [name for name in emergency
                     if UnitType.from_name(name) is not UnitType.TARGET]
        if not emergency:
            raise _RungNotApplicable("every completion-critical unit is "
                                     "implicated by the failure")
        registry = self.workload.fresh_registry()
        masked = {name for name in registry.names if name not in emergency}

        def mutate(reg: UnitRegistry) -> None:
            for name in sorted(masked):
                if name in reg:
                    reg.remove(name)
            reg.add(Unit(name=RESCUE_TARGET,
                         description="emergency recovery goal",
                         requires=list(emergency)))
            self._force_restarts(reg, closure=set(emergency))

        workload = self._wrap(mutate, goal=RESCUE_TARGET,
                              completion_units=(RESCUE_TARGET,))
        return workload, BBConfig.none(), masked

    # ----------------------------------------------------- registry surgery

    def _wrap(self, mutate, goal: str | None = None,
              completion_units: tuple[str, ...] | None = None) -> Workload:
        """A shallow workload copy whose registry factory applies ``mutate``."""
        base = self.workload
        wrapped = copy.copy(base)
        base_factory = base.registry_factory

        def factory() -> UnitRegistry:
            registry = base_factory()
            mutate(registry)
            return registry

        wrapped.registry_factory = factory
        if goal is not None:
            wrapped.goal = goal
        if completion_units is not None:
            wrapped.completion_units = completion_units
        return wrapped

    def _force_restarts(self, registry: UnitRegistry,
                        closure: set[str] | None = None) -> None:
        """Force restartable, watchdogged semantics onto every unit."""
        policy = self.policy
        handler = policy.on_failure_handler
        if closure is None:
            closure = set(self._closure())
        for name in registry.names:
            unit = registry.get(name)
            if unit.unit_type is UnitType.TARGET:
                continue
            clone = replace_unit(unit)
            if clone.restart_policy is RestartPolicy.NO:
                clone.restart_policy = RestartPolicy.ON_FAILURE
            if clone.start_timeout_ns == 0 and policy.forced_start_timeout_ns:
                clone.start_timeout_ns = policy.forced_start_timeout_ns
            if clone.restart_backoff_factor == 1.0:
                clone.restart_backoff_factor = policy.restart_backoff_factor
            if (handler is not None and name in closure and name != handler
                    and handler not in clone.on_failure):
                clone.on_failure.append(handler)
            registry.replace(clone)
        if handler is not None and handler not in registry:
            registry.add(Unit(
                name=handler,
                description="recovery diagnostic handler",
                service_type=ServiceType.ONESHOT,
                cost=SimCost(fork_ns=usec(100), exec_bytes=16 * 1024,
                             dynamic_link_ns=0, init_cpu_ns=usec(200),
                             stop_ns=0, memory_bytes=256 * 1024)))

    def _closure(self) -> frozenset[str]:
        """Completion-critical strong closure, with install sections applied."""
        if self._closure_cache is None:
            registry = self.workload.fresh_registry()
            registry.apply_install_sections()
            closure = DependencyGraph(registry).strong_closure(
                self.workload.completion_units)
            self._closure_cache = frozenset(closure)
        return self._closure_cache

    def _mask_cascade(self, candidates, protected: set[str]) -> set[str]:
        """Grow a maskable set: requirers of a masked unit get masked too.

        ``protected`` units are never masked; by construction the closure
        is requires-closed, so the cascade can never reach into it.
        """
        registry = self.workload.fresh_registry()
        requirers: dict[str, set[str]] = {}
        for unit in registry:
            for dep in unit.requires:
                requirers.setdefault(dep, set()).add(unit.name)
            for target in unit.required_by:
                requirers.setdefault(unit.name, set()).add(target)
        masked: set[str] = set()
        frontier = [name for name in candidates
                    if name in registry and name not in protected]
        while frontier:
            name = frontier.pop()
            if name in masked:
                continue
            masked.add(name)
            for requirer in requirers.get(name, ()):
                if (requirer in registry and requirer not in masked
                        and requirer not in protected):
                    frontier.append(requirer)
        return masked

    # ------------------------------------------------------------- plumbing

    def _harvest(self, sim: BootSimulation, attempt_offsets: dict[str, int],
                 restart_history: dict[str, dict]) -> None:
        """Fold one boot's attempt counts into the cross-rung ledgers."""
        manager = sim.manager
        if manager is None or manager.transaction is None:
            return
        for job in manager.transaction.jobs.values():
            if not job.attempts:
                continue
            attempt_offsets[job.name] = (attempt_offsets.get(job.name, 0)
                                         + job.attempts)
            entry = restart_history.setdefault(
                job.name, {"attempts": 0, "delays_ns": []})
            entry["attempts"] += job.attempts
            entry["delays_ns"].extend(job.restart_delays_ns)

    @staticmethod
    def _restarted_only(restart_history: dict[str, dict]) -> dict[str, dict]:
        """Keep only units that actually went around the restart loop."""
        return {unit: entry for unit, entry in restart_history.items()
                if entry["delays_ns"]}

    def _converged(self, rung: str, records: list[AttemptRecord],
                   total_ns: int, restart_history: dict[str, dict],
                   masked: set[str], snapshot_section: dict | None,
                   report) -> RecoveryOutcome:
        outcome = RecoveryOutcome(
            policy=self.policy.label, seed=self.policy.seed, converged=True,
            rung=rung, rungs=records, total_recovery_ns=total_ns,
            restart_history=self._restarted_only(restart_history),
            masked_units=sorted(masked), snapshot=snapshot_section,
            report=report, degraded_report=None)
        if report is not None:
            report.recovery = outcome.to_dict()
        return outcome
