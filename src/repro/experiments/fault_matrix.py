"""FAULT-MATRIX — boot robustness under seeded fault plans.

§2.5.2 (monitoring and recovery) and §2.5.3/§3.3 (boot-time consistency)
make robustness under partial failure a first-class requirement of CE
boot.  This experiment sweeps the named fault presets
(:mod:`repro.faults.presets`) across seeds, with and without BB, and
reports per preset:

* the completion rate (how many seeds reached boot completion at all),
* the boot-time spread of the completed runs versus the healthy baseline,
* how many completions were *degraded* (out-of-group casualties), and
* the culprit units named for the boots that did not complete.

Every run is an ordinary :class:`~repro.runner.jobs.SimJob` with the
plan embedded, so the matrix dedups, caches, and parallelizes like any
other sweep, and a failed boot is as reproducible as a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import BootReport
from repro.analysis.report import format_table
from repro.core import BBConfig
from repro.core.degraded import DegradedBootReport
from repro.faults import PRESETS, build_preset
from repro.runner import SimJob, SweepRunner
from repro.workloads.tizen_tv import opensource_tv_workload

#: Seeds swept per preset in the full matrix.
SEEDS = (1, 2, 3)

#: The subset the CI smoke run exercises (one seed, fast presets that
#: cover every injector stream: storage, services, deferred, paths).
SMOKE_PRESETS = ("storage-storm", "flaky-services", "missing-device")
SMOKE_SEEDS = (1,)


@dataclass(frozen=True, slots=True)
class PresetOutcome:
    """Aggregated results of one preset under one BB configuration."""

    preset: str
    total: int
    completed: int
    degraded_completions: int
    boot_ms: tuple[float, ...]  # completed boots only, seed order
    culprits: tuple[str, ...]  # one per non-completed boot, seed order
    injected_events: int

    @property
    def completion_rate(self) -> float:
        """Fraction of seeds that reached boot completion."""
        return self.completed / self.total if self.total else 0.0

    @property
    def spread_ms(self) -> float:
        """max - min boot time over the completed runs."""
        return max(self.boot_ms) - min(self.boot_ms) if self.boot_ms else 0.0

    @property
    def mean_ms(self) -> float:
        """Mean boot time over the completed runs."""
        return sum(self.boot_ms) / len(self.boot_ms) if self.boot_ms else 0.0


@dataclass(frozen=True, slots=True)
class FaultMatrixResult:
    """The full matrix: baseline plus per-preset outcomes, BB and no-BB."""

    baseline_bb_ms: float
    baseline_no_bb_ms: float
    bb: tuple[PresetOutcome, ...]
    no_bb: tuple[PresetOutcome, ...]
    smoke: bool


def _count_events(tally: dict) -> int:
    """Discrete injection events; the ``*_ns`` keys are time totals."""
    return sum(v for k, v in tally.items() if not k.endswith("_ns"))


def _summarize(preset: str, results: list) -> PresetOutcome:
    completed = [r for r in results if isinstance(r, BootReport)]
    failed = [r for r in results if isinstance(r, DegradedBootReport)]
    injected = 0
    for report in completed:
        injected += _count_events(report.injected_faults)
    for report in failed:
        injected += _count_events(report.injected_faults)
    return PresetOutcome(
        preset=preset,
        total=len(results),
        completed=len(completed),
        degraded_completions=sum(1 for r in completed if r.degraded),
        boot_ms=tuple(r.boot_complete_ms for r in completed),
        culprits=tuple(r.culprit_unit or "<unknown>" for r in failed),
        injected_events=injected,
    )


def run(runner: SweepRunner | None = None,
        smoke: bool = False, branch: bool = False) -> FaultMatrixResult:
    """Sweep the fault presets across seeds, BB and no-BB.

    ``branch=True`` (only honored when no ``runner`` is supplied) routes
    the sweep through the checkpoint/fork engine: cells sharing a boot
    prefix run as one trunk boot plus forked branches — same results,
    fewer full boots.
    """
    runner = runner if runner is not None else SweepRunner(branch=branch)
    presets = SMOKE_PRESETS if smoke else tuple(PRESETS)
    seeds = SMOKE_SEEDS if smoke else SEEDS

    jobs = [SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                        label="fault-matrix baseline BB"),
            SimJob.boot(opensource_tv_workload, bb=BBConfig.none(),
                        label="fault-matrix baseline no-BB")]
    for preset in presets:
        for config, tag in ((BBConfig.full(), "BB"), (BBConfig.none(), "no-BB")):
            for seed in seeds:
                jobs.append(SimJob.boot(
                    opensource_tv_workload, bb=config,
                    fault_plan=build_preset(preset, seed),
                    label=f"fault-matrix {preset} seed={seed} {tag}"))
    results = runner.run(jobs)

    baseline_bb, baseline_no_bb = results[0], results[1]
    cursor = 2
    bb_outcomes: list[PresetOutcome] = []
    no_bb_outcomes: list[PresetOutcome] = []
    for preset in presets:
        bb_outcomes.append(_summarize(preset, results[cursor:cursor + len(seeds)]))
        cursor += len(seeds)
        no_bb_outcomes.append(_summarize(preset,
                                         results[cursor:cursor + len(seeds)]))
        cursor += len(seeds)
    return FaultMatrixResult(
        baseline_bb_ms=baseline_bb.boot_complete_ms,
        baseline_no_bb_ms=baseline_no_bb.boot_complete_ms,
        bb=tuple(bb_outcomes),
        no_bb=tuple(no_bb_outcomes),
        smoke=smoke,
    )


def _rows(outcomes: tuple[PresetOutcome, ...], baseline_ms: float) -> list:
    rows = []
    for outcome in outcomes:
        if outcome.boot_ms:
            boots = (f"{outcome.mean_ms:.0f} ms "
                     f"({outcome.mean_ms - baseline_ms:+.0f}, "
                     f"spread {outcome.spread_ms:.0f})")
        else:
            boots = "-"
        culprits = ", ".join(sorted(set(outcome.culprits))) or "-"
        rows.append((outcome.preset,
                     f"{outcome.completed}/{outcome.total}",
                     str(outcome.degraded_completions),
                     boots,
                     str(outcome.injected_events),
                     culprits))
    return rows


def render(result: FaultMatrixResult) -> str:
    """Completion-rate and boot-time-spread tables, BB and no-BB."""
    header = ["preset", "completed", "degraded", "boot time vs baseline",
              "faults", "culprits"]
    scope = "smoke subset" if result.smoke else "full matrix"
    out = [f"Fault matrix ({scope}; §2.5.2 / §2.5.3): completion rate and "
           "boot-time spread under seeded fault plans",
           f"\nBB (baseline {result.baseline_bb_ms:.0f} ms)",
           format_table(header, _rows(result.bb, result.baseline_bb_ms)),
           f"\nNo BB (baseline {result.baseline_no_bb_ms:.0f} ms)",
           format_table(header, _rows(result.no_bb, result.baseline_no_bb_ms))]
    completed = sum(o.completed for o in result.bb + result.no_bb)
    total = sum(o.total for o in result.bb + result.no_bb)
    out.append(f"\noverall completion rate: {completed}/{total}; every run "
               "is seeded and byte-reproducible (same plan + seed = same boot)")
    return "\n".join(out)
