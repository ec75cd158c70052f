"""Branch-identity oracle: checkpoint/fork must be invisible in results.

The checkpoint/fork engine (:mod:`repro.runner.branch`) promises that
running a fault matrix as one trunk boot plus forked branches returns
*exactly* what from-scratch boots return — not statistically close,
byte-identical.  This module is the oracle for that promise: it builds a
mixed matrix that exercises every branch path (the null cell, early and
late divergence, no-divergence cells, degraded boots, non-branchable
path faults) and compares every branched result against a from-scratch
serial replay (:class:`~repro.runner.oracle.SerialReplay`) via
:func:`~repro.runner.branch.canonical_bytes` — the canonical encoding
that makes equal values encode equally even after a fork-pipe or worker
pool round-trip permutes a frozenset's pickle layout.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.core.config import BBConfig
from repro.faults import (DeferredFault, FaultPlan, PathFault, ServiceFault,
                          SettleFault, StorageFault)
from repro.runner.branch import canonical_bytes
from repro.runner.jobs import SimJob
from repro.runner.oracle import SerialReplay
from repro.runner.sweep import SweepRunner
from repro.workloads import opensource_tv_workload


def identity_matrix(smoke: bool = False) -> list[SimJob]:
    """The oracle's job matrix, covering every branch code path.

    Cells (all on the TV workload under full BB):

    * the null cell — answered straight from the trunk's report;
    * transient service failures (fork at the unit's first attempt);
    * a permanent failure of a completion-critical unit — the branch
      ends degraded, so it must reproduce the degraded report;
    * settle jitter on settle-capable units (late divergence) and on a
      unit without hardware settle (no divergence: trunk-report
      answer);
    * storage latency spikes (early divergence at a storage request —
      near-full branch);
    * deferred-task failures (post-completion divergence);
    * a path fault — structurally non-branchable, must fall back to a
      from-scratch run and still match.
    """
    boot = lambda plan: SimJob.boot(opensource_tv_workload,  # noqa: E731
                                    bb=BBConfig.full(), fault_plan=plan)
    jobs = [
        boot(None),
        boot(FaultPlan(seed=21, services=(
            ServiceFault(unit="logger.service", fail_attempts=1),))),
        boot(FaultPlan(seed=22, services=(
            ServiceFault(unit="dbus.service", fail_attempts=99),))),
        boot(FaultPlan(seed=23, settles=(
            SettleFault(unit="fasttv.service", jitter=0.5),))),
        boot(FaultPlan(seed=24, settles=(
            SettleFault(unit="logger.service", jitter=0.5),))),
        boot(FaultPlan(seed=25, storage=(
            StorageFault(spike_rate=0.05, spike_ns=400_000),))),
        boot(FaultPlan(seed=26, deferred=(
            DeferredFault(task="*", fail_attempts=1),))),
        boot(FaultPlan(seed=27, paths=(
            PathFault(path="/dev/verify_branch", delay_ns=50_000_000),))),
    ]
    if not smoke:
        jobs += [
            boot(FaultPlan(seed=28, services=(
                ServiceFault(unit="tuner.service", hang_ns=30_000_000,
                             hang_rate=1.0),))),
            boot(FaultPlan(seed=29, services=(
                ServiceFault(unit="*.service", fail_rate=0.02),))),
            boot(FaultPlan(seed=30, settles=(
                SettleFault(unit="hdmi.service", multiplier=3.0),))),
            boot(FaultPlan(seed=31, deferred=(
                DeferredFault(task="journal-flush-and-rotate",
                              fail_attempts=2),))),
        ]
    return jobs


def worker_counts(smoke: bool = False) -> list[int]:
    """Fork-child limits the oracle must hold under (none where there is
    no ``os.fork``, because nothing branches there)."""
    if not hasattr(os, "fork"):
        return []
    return [1, 2] if smoke else [1, 2, 4]


def check_branch_identity(
        smoke: bool = False,
        progress: Callable[[str], None] | None = None,
) -> tuple[list[str], int, int]:
    """Run the oracle; returns ``(violations, boots, checks)``.

    The matrix is replayed serially once; each worker count then runs it
    through a cold branching :class:`SweepRunner`, and the replay
    compares every cell.
    """
    jobs = identity_matrix(smoke)
    replay = SerialReplay([(job, 1) for job in jobs])
    violations: list[str] = []
    boots = replay.unique_jobs
    checks = 0

    def cell(index: int) -> str:
        plan = jobs[index].fault_plan
        return (f"cell {index} ({plan.label if plan else 'null'} "
                f"seed={plan.seed if plan else '-'})")

    for workers in worker_counts(smoke):
        label = f"fork/jobs={workers}"
        if progress is not None:
            progress(label)
        with SweepRunner(jobs=workers, branch=True,
                         min_branch_group=2) as runner:
            branched = runner.run(jobs)
        boots += runner.stats.executed + runner.stats.prefix_boots
        if not runner.stats.branched:
            violations.append(f"{label}: no cell was actually branched")
        checks += len(branched)
        violations += replay.compare(
            zip(replay.fingerprints, map(canonical_bytes, branched)),
            "branched", where=lambda index: f"{label}: {cell(index)}")
    return violations, boots, checks
