"""FIG6 — the full No-BB vs BB breakdown (Fig. 6), the paper's main table.

The paper attributes the 8.1 s -> 3.5 s reduction to individual
mechanisms:

* (a) kernel: memory init 370 -> 110 ms, rootfs 110 -> 75 ms,
* (b) init initialization 195 -> 71 ms (six deferred tasks, 124 ms),
* (c) RCU Booster 1828 ms, Deferred Executor 496 ms, On-demand
  Modularizer 428 ms,
* (d) Pre-parser 150 + 231 ms, BB Group Isolator + Manager 1101 ms.

The reproduction attributes savings **cumulatively**: starting from the
conventional boot, features are enabled one at a time in deployment order
and each delta is credited to the feature that was just turned on.
(Leave-one-out attribution is also computed by the ablation experiment;
the two differ because the mechanisms overlap — e.g. once the BB Manager
prioritizes the critical chain, module loading barely hurts it.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import BootReport, speedup
from repro.analysis.report import ComparisonTable, format_table
from repro.core import BBConfig, BootSimulation
from repro.runner import SimJob, SweepRunner
from repro.workloads import opensource_tv_workload
from repro.workloads.base import Workload

#: Deployment order used for cumulative attribution, and the paper's
#: Fig. 6 saving for each feature (milliseconds).
PAPER_FEATURE_SAVINGS_MS: tuple[tuple[str, float], ...] = (
    ("deferred_meminit", 260.0),
    ("deferred_journal", 35.0),
    ("defer_startup_tasks", 124.0),
    ("rcu_booster", 1828.0),
    ("deferred_executor", 496.0),
    ("preparser", 381.0),
    ("group_isolation", 0.0),  # reported jointly with the manager below
    ("group_priority_boost", 1101.0),
    ("ondemand_modularizer", 428.0),
    ("static_bb_group", 0.0),  # §5: not separately quantified
)

#: Paper endpoints.
PAPER_NO_BB_MS = 8100.0
PAPER_BB_MS = 3500.0


@dataclass(frozen=True, slots=True)
class Fig6Result:
    """Everything Fig. 6 reports."""

    no_bb: BootReport
    bb: BootReport
    cumulative_savings_ms: dict[str, float]

    @property
    def reduction(self) -> float:
        """The headline relative reduction (~0.57 in the paper)."""
        return speedup(self.no_bb.boot_complete_ns, self.bb.boot_complete_ns)

    def bb_group_saving_ms(self) -> float:
        """Isolator + Manager combined (the paper's 1101 ms row)."""
        return (self.cumulative_savings_ms["group_isolation"]
                + self.cumulative_savings_ms["group_priority_boost"])


def run(workload: Workload | None = None,
        runner: SweepRunner | None = None) -> Fig6Result:
    """Run the cumulative feature build-up and the two endpoints."""
    configs = [BBConfig.none()]
    for feature, _ in PAPER_FEATURE_SAVINGS_MS:
        configs.append(configs[-1].with_feature(feature, True))

    if workload is not None:
        # A live Workload instance is not declarative (its factories are
        # closures), so it cannot ride the job runner; boot it directly.
        reports = [BootSimulation(workload, config).run()
                   for config in configs]
    else:
        runner = runner if runner is not None else SweepRunner()
        reports = runner.run([
            SimJob.boot(opensource_tv_workload, bb=config,
                        label=f"fig6 +{feature}")
            for config, feature in zip(
                configs, ("baseline",
                          *(name for name, _ in PAPER_FEATURE_SAVINGS_MS)))])

    no_bb = reports[0]
    savings: dict[str, float] = {}
    previous_ms = no_bb.boot_complete_ms
    for (feature, _), report in zip(PAPER_FEATURE_SAVINGS_MS, reports[1:]):
        savings[feature] = previous_ms - report.boot_complete_ms
        previous_ms = report.boot_complete_ms
    return Fig6Result(no_bb=no_bb, bb=reports[-1],
                      cumulative_savings_ms=savings)


def render(result: Fig6Result) -> str:
    """The Fig. 6 tables: stage comparison + per-feature attribution."""
    stages = ComparisonTable(title="Figure 6 — boot stages (No BB vs BB)")
    stages.add("(a) kernel initialization", result.no_bb.stages.kernel_ns,
               result.bb.stages.kernel_ns)
    stages.add("    memory initialization",
               result.no_bb.kernel_timings.meminit_ns,
               result.bb.kernel_timings.meminit_ns)
    stages.add("    rootfs mount", result.no_bb.kernel_timings.rootfs_ns,
               result.bb.kernel_timings.rootfs_ns)
    stages.add("(b) init initialization", result.no_bb.stages.init_init_ns,
               result.bb.stages.init_init_ns)
    stages.add("(c)+(d) services & applications",
               result.no_bb.stages.services_ns, result.bb.stages.services_ns)
    stages.add("TOTAL", result.no_bb.boot_complete_ns,
               result.bb.boot_complete_ns)

    feature_rows = []
    for feature, paper_ms in PAPER_FEATURE_SAVINGS_MS:
        measured = result.cumulative_savings_ms[feature]
        paper_text = f"{paper_ms:.0f} ms" if paper_ms else "-"
        feature_rows.append((feature, f"{measured:.1f} ms", paper_text))
    feature_rows.append(("BB Group (isolator + manager)",
                         f"{result.bb_group_saving_ms():.1f} ms", "1101 ms"))
    feature_table = format_table(["feature (cumulative)", "measured", "paper"],
                                 feature_rows)
    return (stages.render()
            + f"\n\nreduction: {result.reduction:.1%} "
            f"(paper: ~57%: {PAPER_NO_BB_MS:.0f} -> {PAPER_BB_MS:.0f} ms)\n\n"
            + "Per-feature savings\n" + feature_table)
