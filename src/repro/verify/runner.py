"""The end-to-end verification harness behind ``repro verify``.

Nine check groups, each producing a :class:`CheckResult`:

* **invariant-monitor** — boot every scenario with a strict
  :class:`~repro.verify.monitor.InvariantMonitor` attached, so every
  event pop, dispatch round and unit start is audited live.
* **schedule-perturbation** — boot each scenario once FIFO and ``K``
  times under seeded chaotic tie-breaking
  (:class:`~repro.verify.perturb.PerturbedEventQueue`), asserting the
  metamorphic signature is schedule-invariant and that a repeated run of
  one perturbed seed exports byte-identical JSON.
* **analytic-oracles** — random storage-I/O and parallel-speedup cases
  checked against closed forms, plus engine-level core monotonicity.
* **predicted** — the closed-form boot-time predictor
  (:mod:`repro.analysis.predict`) against the DES on every unperturbed
  scenario across several core counts (gem5-style differential
  validation), plus sweep-cache identity for
  :class:`~repro.analysis.predict.SweepPredictor`.
* **cross-cutting-laws** — "BB never slows a boot" and "more cores never
  slow a boot (modulo scheduling anomalies)" over generated workloads.
* **branch-identity** — every cell of a mixed fault matrix run through
  the checkpoint/fork engine (:mod:`repro.runner.branch`, at one and
  more fork children) must be canonically byte-identical to a
  from-scratch boot (:mod:`repro.verify.branch`).
* **fleet-identity** — a scaled-down fleet campaign through the async
  boot service (scheduler, worker shards, TCP streaming, payload dedup)
  must deliver results byte-identical to a serial replay
  (:mod:`repro.verify.fleet`).
* **generation-identity** — an OTA rollout campaign staged through the
  fleet service must report byte-identically to its serial replay (for
  both a regressing and a clean target), and generation commits must
  round-trip through the on-disk store: ``rollback(commit(g)) == g``
  (:mod:`repro.verify.generations`).
* **fleet-crash** — a real ``repro fleet serve`` subprocess is
  power-cut (``os._exit(137)``) mid-campaign at a seeded journal
  offset, restarted on the same journal/cache, and the campaign —
  stitched together from pre-crash results, journal-resumed work and
  the client's retry/backoff path — must be byte-identical to an
  uninterrupted serial run (:mod:`repro.verify.fleet_crash`).

``smoke=True`` is the CI profile: it still runs well over fifty
monitored/perturbed/property-generated boots but finishes in seconds.
``repro verify --only GROUP`` runs a single group by name — the
fleet-crash CI gate uses it to keep its wall time to the one
crash/restart cycle.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.export import report_to_json
from repro.core.bb import BootSimulation
from repro.core.config import BBConfig
from repro.faults import build_preset
from repro.verify import oracles
from repro.verify.branch import check_branch_identity
from repro.verify.fleet import check_fleet_identity
from repro.verify.fleet_crash import check_fleet_crash
from repro.verify.generations import check_generation_identity
from repro.verify.monitor import InvariantMonitor
from repro.verify.perturb import (PerturbedEventQueue, diff_signatures,
                                  metamorphic_signature)
from repro.workloads import (camera_workload, opensource_tv_workload,
                             phone_workload, wearable_workload)
from repro.workloads.base import Workload
from repro.workloads.generator import GeneratorParams, generate_workload


@dataclass(slots=True)
class CheckResult:
    """Outcome of one verification group.

    Attributes:
        name: Group name (e.g. ``"schedule-perturbation"``).
        boots: Full boot simulations executed by the group.
        checks: Individual invariant/oracle evaluations performed.
        violations: Human-readable failures (empty = pass).
        duration_s: Wall-clock seconds the group took.
    """

    name: str
    boots: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(slots=True)
class VerificationReport:
    """Aggregate outcome of one ``run_verification`` pass."""

    seed: int
    smoke: bool
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def total_boots(self) -> int:
        return sum(result.boots for result in self.results)

    @property
    def total_checks(self) -> int:
        return sum(result.checks for result in self.results)

    @property
    def violations(self) -> list[str]:
        return [violation for result in self.results
                for violation in result.violations]

    def summary(self) -> str:
        """Multi-line human-readable summary for the CLI."""
        mode = "smoke" if self.smoke else "full"
        lines = [f"verification ({mode}, seed={self.seed}):"]
        for result in self.results:
            status = "ok" if result.ok else f"{len(result.violations)} FAILED"
            lines.append(f"  {result.name:<24} {result.boots:>4} boots  "
                         f"{result.checks:>6} checks  "
                         f"{result.duration_s:>6.2f}s  {status}")
            for violation in result.violations:
                lines.append(f"    ! {violation}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"  total: {self.total_boots} boots, "
                     f"{self.total_checks} checks -> {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "smoke": self.smoke,
            "ok": self.ok,
            "total_boots": self.total_boots,
            "total_checks": self.total_checks,
            "groups": [{
                "name": result.name,
                "boots": result.boots,
                "checks": result.checks,
                "duration_s": round(result.duration_s, 3),
                "violations": list(result.violations),
            } for result in self.results],
        }


@dataclass(slots=True)
class _Scenario:
    """One boot configuration exercised by the harness."""

    label: str
    workload_factory: Callable[[], Workload]
    bb: BBConfig
    fault_preset: str | None = None

    def build(self, monitor: InvariantMonitor | None = None,
              event_queue=None) -> BootSimulation:
        plan = (build_preset(self.fault_preset, seed=11)
                if self.fault_preset is not None else None)
        return BootSimulation(self.workload_factory(), self.bb,
                              fault_plan=plan, monitor=monitor,
                              event_queue=event_queue)


def _generated(seed: int, services: int = 14) -> Callable[[], Workload]:
    return lambda: generate_workload(GeneratorParams(seed=seed,
                                                     services=services))


def _scenarios(smoke: bool) -> list[_Scenario]:
    scenarios = [
        _Scenario("tv/full", opensource_tv_workload, BBConfig.full()),
        _Scenario("tv/none", opensource_tv_workload, BBConfig.none()),
        _Scenario("camera/full", camera_workload, BBConfig.full()),
        _Scenario("gen14s5/full", _generated(5), BBConfig.full()),
        _Scenario("gen14s6/none", _generated(6), BBConfig.none()),
        _Scenario("gen14s7/full+flaky", _generated(7), BBConfig.full(),
                  fault_preset="flaky-services"),
    ]
    if not smoke:
        scenarios += [
            _Scenario("phone/full", phone_workload, BBConfig.full()),
            _Scenario("wearable/full", wearable_workload, BBConfig.full()),
            _Scenario("gen20s8/full+storm", _generated(8, services=20),
                      BBConfig.full(), fault_preset="storage-storm"),
            _Scenario("gen20s9/none", _generated(9, services=20),
                      BBConfig.none()),
        ]
    return scenarios


# --------------------------------------------------------------- the groups

def _check_monitored_boots(scenarios: list[_Scenario]) -> CheckResult:
    result = CheckResult("invariant-monitor")
    for scenario in scenarios:
        monitor = InvariantMonitor(strict=False)
        try:
            scenario.build(monitor=monitor).run()
        except Exception as exc:  # noqa: BLE001 - report, don't crash CI
            result.violations.append(f"{scenario.label}: boot raised {exc!r}")
        result.boots += 1
        result.checks += monitor.stats.total_checks
        result.violations.extend(f"{scenario.label}: {violation}"
                                 for violation in monitor.violations)
    return result


def _check_perturbation(scenarios: list[_Scenario], seed: int,
                        perturbations: int) -> CheckResult:
    result = CheckResult("schedule-perturbation")
    rng = random.Random(seed)
    for scenario in scenarios:
        baseline_sim = scenario.build(monitor=InvariantMonitor(strict=True))
        baseline = metamorphic_signature(baseline_sim.run(), baseline_sim)
        result.boots += 1
        seeds = [rng.getrandbits(32) for _ in range(perturbations)]
        for tie_seed in seeds:
            monitor = InvariantMonitor(strict=False)
            sim = scenario.build(monitor=monitor,
                                 event_queue=PerturbedEventQueue(tie_seed))
            signature = metamorphic_signature(sim.run(), sim)
            result.boots += 1
            result.checks += monitor.stats.total_checks
            result.violations.extend(
                f"{scenario.label}/tie={tie_seed}: {violation}"
                for violation in monitor.violations)
            differences = diff_signatures(baseline, signature)
            result.checks += len(baseline)
            result.violations.extend(
                f"{scenario.label}/tie={tie_seed}: metamorphic {difference}"
                for difference in differences)
        # Determinism composes with perturbation: the same tie seed must
        # reproduce the run down to the exported JSON bytes.
        replay_seed = seeds[0]
        exports = []
        for _ in range(2):
            sim = scenario.build(event_queue=PerturbedEventQueue(replay_seed))
            exports.append(report_to_json(sim.run()))
            result.boots += 1
        result.checks += 1
        if exports[0] != exports[1]:
            result.violations.append(
                f"{scenario.label}/tie={replay_seed}: same-seed replays "
                f"exported different JSON")
    return result


def _check_analytic_oracles(seed: int, cases: int) -> CheckResult:
    result = CheckResult("analytic-oracles")
    rng = random.Random(seed ^ 0xA11A)
    for _ in range(cases):
        result.checks += 1
        result.violations.extend(
            oracles.check_storage_io(**oracles.random_io_case(rng)))
    for _ in range(cases):
        result.checks += 1
        result.violations.extend(
            oracles.check_parallel_speedup(**oracles.random_speedup_case(rng)))
    for _ in range(max(2, cases // 4)):
        demands = [rng.randrange(1, 10_000_000)
                   for _ in range(rng.randrange(2, 12))]
        low = rng.randrange(1, 5)
        result.checks += 1
        result.violations.extend(oracles.check_engine_core_monotonicity(
            demands, low, low + rng.randrange(1, 5)))
    return result


def _check_identity(name: str,
                    check: Callable[..., tuple[list[str], int, int]],
                    smoke: bool) -> CheckResult:
    """Adapt a ``check(smoke=...) -> (violations, boots, checks)``
    identity oracle to a :class:`CheckResult`."""
    violations, boots, checks = check(smoke=smoke)
    return CheckResult(name, boots=boots, checks=checks,
                       violations=violations)


def _check_predicted(scenarios: list[_Scenario], smoke: bool) -> CheckResult:
    """Closed-form predictor vs DES on every unperturbed scenario."""
    from repro.analysis.predict import SweepPredictor, predict

    result = CheckResult("predicted")
    core_grid = (1, 2, 4) if smoke else (1, 2, 3, 4, 6)
    for scenario in scenarios:
        if scenario.fault_preset is not None:
            continue  # the predictor models unperturbed boots only
        for cores in core_grid:
            result.boots += 1
            result.checks += 1
            try:
                result.violations.extend(oracles.check_prediction_matches_des(
                    scenario.workload_factory, scenario.bb, cores=cores))
            except Exception as exc:  # noqa: BLE001 - report, don't crash CI
                result.violations.append(
                    f"{scenario.label}/c{cores}: predictor raised {exc!r}")
    # The sweep cache must be invisible: SweepPredictor's fast path has
    # to reproduce direct predict() bit for bit across the feature axes
    # it treats as prefix-only shifts.
    sweep = SweepPredictor(opensource_tv_workload)
    for feature in ("preparser", "deferred_meminit", "deferred_journal",
                    "defer_startup_tasks", "deferred_executor"):
        for base in (BBConfig.none(), BBConfig.full()):
            bb = base.with_feature(feature, not getattr(base, feature))
            cached = sweep.predict(bb, cores=2)
            direct = predict(opensource_tv_workload(), bb, cores=2)
            result.checks += 1
            if (cached.boot_complete_ns != direct.boot_complete_ns
                    or cached.unit_ready_ns != direct.unit_ready_ns):
                result.violations.append(
                    f"sweep-cache/{feature}: cached prediction "
                    f"{cached.boot_complete_ns} ns != direct "
                    f"{direct.boot_complete_ns} ns")
    return result


def _check_laws(seed: int, graphs: int) -> CheckResult:
    result = CheckResult("cross-cutting-laws")
    rng = random.Random(seed ^ 0x1A35)
    for _ in range(graphs):
        params = GeneratorParams(seed=rng.getrandbits(16),
                                 services=rng.randrange(8, 18))
        factory = lambda params=params: generate_workload(params)
        result.checks += 1
        result.boots += 2
        result.violations.extend(
            oracles.check_bb_not_slower(factory, InvariantMonitor))
    for _ in range(max(2, graphs // 2)):
        params = GeneratorParams(seed=rng.getrandbits(16),
                                 services=rng.randrange(8, 18))
        factory = lambda params=params: generate_workload(params)
        low = rng.randrange(1, 4)
        result.checks += 1
        result.boots += 2
        result.violations.extend(oracles.check_boot_core_monotonicity(
            factory, low, low + rng.randrange(1, 5)))
    return result


# ------------------------------------------------------------- entry point

def run_verification(smoke: bool = False, seed: int = 0,
                     only: str | None = None) -> VerificationReport:
    """Run the full verification harness and return its report.

    Args:
        smoke: CI-sized subset — still > 50 boots, but seconds not
            minutes.
        seed: Master seed for perturbation tie-breaks, oracle case
            generation and law workload graphs.  The same seed always
            reproduces the same harness run.
        only: Run just the named group (e.g. ``"fleet-crash"``).
            Unknown names raise :class:`ValueError` listing the
            available groups.
    """
    perturbations = 5 if smoke else 12
    oracle_cases = 25 if smoke else 120
    law_graphs = 8 if smoke else 24
    scenarios = _scenarios(smoke)

    report = VerificationReport(seed=seed, smoke=smoke)
    groups: list[tuple[str, Callable[[], CheckResult]]] = [
        ("invariant-monitor", lambda: _check_monitored_boots(scenarios)),
        ("schedule-perturbation",
         lambda: _check_perturbation(scenarios, seed, perturbations)),
        ("analytic-oracles",
         lambda: _check_analytic_oracles(seed, oracle_cases)),
        ("predicted", lambda: _check_predicted(scenarios, smoke)),
        ("cross-cutting-laws", lambda: _check_laws(seed, law_graphs)),
    ]
    groups += [(name, functools.partial(_check_identity, name, check, smoke))
               for name, check in (
                   ("branch-identity", check_branch_identity),
                   ("fleet-identity", check_fleet_identity),
                   ("generation-identity", check_generation_identity),
                   ("fleet-crash", check_fleet_crash))]
    if only is not None:
        names = [name for name, _ in groups]
        if only not in names:
            raise ValueError(f"unknown verification group {only!r}; "
                             f"choose from {', '.join(names)}")
        groups = [(name, thunk) for name, thunk in groups if name == only]
    for _, group in groups:
        started = time.perf_counter()
        result = group()
        result.duration_s = time.perf_counter() - started
        report.results.append(result)
    return report
