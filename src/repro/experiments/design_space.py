"""DS — analytically pre-filtered design-space sweep.

The question a platform team actually asks is not "what does this one
configuration boot in?" but "which corner of the feature space should we
ship?".  Answering it exhaustively means a DES boot per cell — hundreds
of simulations for a handful of interesting answers.  This experiment
runs the sweep the other way around:

1. every cell is solved by the closed-form boot predictor
   (:mod:`repro.analysis.predict`) through the
   :class:`~repro.analysis.predict.SweepPredictor` cache, which pays a
   machine solution only per distinct *services-phase* projection and
   shifts everything else analytically,
2. cells are ranked by predicted completion time,
3. only the per-workload top-``k`` frontier runs through the full DES
   (via :meth:`~repro.runner.sweep.SweepRunner.run_prefiltered`),
   confirming the analytic ranking with event-by-event execution.

Because the predictor is exact on unperturbed boots, the frontier the
DES confirms is *identical* to the frontier an exhaustive sweep would
have found — ``run(exhaustive=True)`` proves it by brute force, and the
benchmark harness gates on both the identity and the wall-time cut.

The swept axes are the six features with the richest interaction
surface: ``rcu_booster``, ``preparser``, ``deferred_executor``,
``ondemand_modularizer``, ``defer_startup_tasks`` and
``group_priority_boost`` — 64 combinations per workload per core count.
Core counts stay at 2 and 4: the ``group_priority_boost``-without-
``rcu_booster`` corner livelocks the DES on a single core (the §4.3
priority-inversion pathology), which the predictor reports as an
:class:`~repro.errors.AnalysisError` rather than hanging.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core import BBConfig
from repro.runner import SimJob, SweepRunner
from repro.workloads import (appliance_workload, camera_workload,
                             opensource_tv_workload, phone_workload,
                             wearable_workload)

#: The swept feature axes (order fixes the cell labels).
SWEEP_AXES = ("rcu_booster", "preparser", "deferred_executor",
              "ondemand_modularizer", "defer_startup_tasks",
              "group_priority_boost")

#: Core counts per cell.  Never 1: see the module docstring.
SWEEP_CORES = (2, 4)

#: Frontier size confirmed by the DES, per workload.
FRONTIER_K = 4


@dataclass(frozen=True, slots=True)
class FrontierCell:
    """One DES-confirmed cell of a workload's frontier."""

    rank: int
    features: str  # comma list of enabled swept axes ("-" for none)
    cores: int
    predicted_ms: float
    des_ms: float


@dataclass(frozen=True, slots=True)
class WorkloadSweep:
    """One workload's slice of the design-space sweep."""

    label: str
    cells: int
    frontier: list[FrontierCell]
    log: list[str]


@dataclass(frozen=True, slots=True)
class DesignSpaceResult:
    """The whole pre-filtered sweep (plus the optional exhaustive check).

    Attributes:
        sweeps: Per-workload frontiers and skip statistics.
        cells: Total cells across all workloads.
        des_boots: Cells that actually reached the DES.
        prefilter_wall_s: Wall time of the pre-filtered sweep.
        exhaustive_wall_s: Wall time of the brute-force sweep, when
            ``exhaustive=True``; ``None`` otherwise.
        frontier_identical: Whether the analytic frontier matched the
            exhaustive DES frontier cell for cell (``None`` when the
            exhaustive sweep was skipped).
    """

    sweeps: list[WorkloadSweep]
    cells: int
    des_boots: int
    prefilter_wall_s: float
    exhaustive_wall_s: float | None = None
    frontier_identical: bool | None = None

    @property
    def speedup(self) -> float | None:
        """Exhaustive wall over pre-filtered wall (``None`` if unknown)."""
        if self.exhaustive_wall_s is None or self.prefilter_wall_s <= 0:
            return None
        return self.exhaustive_wall_s / self.prefilter_wall_s


def sweep_jobs(smoke: bool = False) -> list[tuple[str, list[SimJob]]]:
    """The sweep matrix: ``(workload label, jobs)`` per workload.

    Full: 5 workloads x 64 feature combinations x 2 core counts = 640
    cells.  Smoke: 2 workloads x 16 combinations (first four axes) x 2
    core counts = 64 cells.
    """
    if smoke:
        factories = [("tv", opensource_tv_workload),
                     ("camera", camera_workload)]
        axes = SWEEP_AXES[:4]
    else:
        factories = [("tv", opensource_tv_workload),
                     ("camera", camera_workload),
                     ("phone", phone_workload),
                     ("wearable", wearable_workload),
                     ("appliance", appliance_workload)]
        axes = SWEEP_AXES
    groups = []
    for label, factory in factories:
        jobs = []
        for bits in itertools.product((False, True), repeat=len(axes)):
            bb = BBConfig.none()
            for name, value in zip(axes, bits):
                bb = bb.with_feature(name, value)
            for cores in SWEEP_CORES:
                jobs.append(SimJob.boot(factory, bb=bb, cores=cores,
                                        label=f"ds {label}"))
        groups.append((label, jobs))
    return groups


def _cell_features(job: SimJob) -> str:
    enabled = [name for name in SWEEP_AXES
               if job.bb is not None and getattr(job.bb, name)]
    return ",".join(enabled) if enabled else "-"


def run(smoke: bool = False, runner: SweepRunner | None = None,
        exhaustive: bool = False, top_k: int = FRONTIER_K
        ) -> DesignSpaceResult:
    """Run the pre-filtered sweep (and optionally the brute-force check).

    Args:
        smoke: Shrink the matrix to 64 cells for CI.
        runner: Runner for the *frontier* DES boots; defaults to a fresh
            serial one.  The exhaustive check always uses its own fresh
            runner so cache hits cannot flatter the comparison.
        exhaustive: Also DES every cell and verify frontier identity.
        top_k: Frontier size per workload.
    """
    runner = runner if runner is not None else SweepRunner()
    sweeps: list[WorkloadSweep] = []
    total_cells = 0
    des_boots = 0
    outcomes_by_label: dict[str, tuple[list[SimJob], list[int]]] = {}

    prefilter_start = time.perf_counter()
    for label, jobs in sweep_jobs(smoke):
        outcome = runner.run_prefiltered(jobs, top_k=top_k)
        total_cells += len(jobs)
        des_boots += len(outcome.selected)
        frontier = [
            FrontierCell(rank=rank + 1,
                         features=_cell_features(jobs[index]),
                         cores=jobs[index].cores or 0,
                         predicted_ms=outcome.predictions[index]
                         .boot_complete_ns / 1e6,
                         des_ms=outcome.results[index]
                         .boot_complete_ns / 1e6)
            for rank, index in enumerate(outcome.selected)]
        sweeps.append(WorkloadSweep(label=label, cells=len(jobs),
                                    frontier=frontier, log=list(outcome.log)))
        outcomes_by_label[label] = (jobs, list(outcome.selected))
    prefilter_wall = time.perf_counter() - prefilter_start

    exhaustive_wall = None
    identical = None
    if exhaustive:
        identical = True
        exhaustive_start = time.perf_counter()
        with SweepRunner() as brute:
            for label, jobs in sweep_jobs(smoke):
                reports = brute.run(jobs)
                ranked = sorted(range(len(jobs)),
                                key=lambda i: (reports[i].boot_complete_ns, i))
                if ranked[:top_k] != outcomes_by_label[label][1]:
                    identical = False
        exhaustive_wall = time.perf_counter() - exhaustive_start

    return DesignSpaceResult(sweeps=sweeps, cells=total_cells,
                             des_boots=des_boots,
                             prefilter_wall_s=prefilter_wall,
                             exhaustive_wall_s=exhaustive_wall,
                             frontier_identical=identical)


def render(result: DesignSpaceResult) -> str:
    """Per-workload frontier tables plus the sweep-wide statistics."""
    parts = []
    for sweep in result.sweeps:
        rows = [(cell.rank, cell.features, cell.cores,
                 f"{cell.predicted_ms:.1f} ms", f"{cell.des_ms:.1f} ms")
                for cell in sweep.frontier]
        table = format_table(
            ["#", "enabled features", "cores", "predicted", "DES"], rows)
        parts.append(f"Design space — {sweep.label} "
                     f"({sweep.cells} cells)\n{table}\n"
                     + "\n".join(sweep.log))
    # Wall-clock figures appear only in exhaustive mode: the plain render
    # must be deterministic (the bench compares `experiment all` output
    # byte-for-byte across serial and parallel legs).
    summary = (f"total: {result.cells} cells, {result.des_boots} DES boots "
               f"({result.cells - result.des_boots} skipped)")
    if result.exhaustive_wall_s is not None:
        summary += (f"; pre-filtered sweep {result.prefilter_wall_s:.2f} s "
                    f"vs exhaustive DES {result.exhaustive_wall_s:.2f} s "
                    f"({result.speedup:.1f}x), frontier "
                    + ("identical" if result.frontier_identical
                       else "DIVERGED"))
    parts.append(summary)
    return "\n\n".join(parts)
