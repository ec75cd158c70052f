"""Performance benchmarks behind ``python -m repro bench``.

Six measurements seed the repo's perf trajectory, recorded to
``BENCH_runner.json``:

* **Engine microbenchmark** — events/second through the
  :class:`~repro.sim.events.EventQueue` on a seeded deterministic
  push/pop workload.
* **Cache microbenchmark** — put+get round-trips/second of a real boot
  report through the in-memory :class:`~repro.runner.cache.ResultCache`.
* **Checkpoint benchmark** — cold-cache wall time of a 100+-cell
  late-phase fault matrix executed from scratch versus through the
  checkpoint/fork engine (:mod:`repro.runner.branch`), with a canonical
  byte-identity check between the two runs' results.  The matrix is
  derived from a prefix probe: deferred-task faults (post-completion
  divergence), transient flakes of the latest-queried services, and
  settle jitter — cells whose shared prefix is long by construction,
  which is exactly the sweep shape branching exists for.
* **Design-space benchmark** — wall time of the analytically pre-filtered
  design-space sweep (:mod:`repro.experiments.design_space`: the
  closed-form boot predictor ranks 640 feature/core cells and only the
  per-workload frontier reaches the DES) versus a brute-force DES of
  every cell, with a frontier-identity check between the two.
* **Sweep benchmark** — wall time of the full ``experiment all`` sweep
  executed serially (``jobs=1``) versus fanned out over worker processes,
  plus the dedup/cache statistics, with a byte-identity check between the
  two runs' rendered artifacts.
* **Fleet benchmark** — sustained jobs/minute of a 10k+-job campaign
  streamed through the async boot service (:mod:`repro.fleet`), with the
  fleet-vs-serial byte-identity verdict and the single-flight /
  cache-hit breakdown.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.runner.cache import ResultCache
from repro.runner.jobs import code_version
from repro.runner.sweep import SweepRunner
from repro.sim.events import EventQueue


# --------------------------------------------------------------------------
# Engine microbenchmark.


def _drive_queue(queue: EventQueue, events: int) -> int:
    """Push/pop ``events`` through ``queue`` with steady-state heap churn.

    A seeded LCG generates the schedule, so every run sees the exact same
    sequence of operations.  Returns the number of events processed
    (sanity value, always ``events``).
    """
    state = 0x2016_BB
    now = 0
    processed = 0

    def nothing() -> None:
        return None

    # Warm the heap to a realistic depth before measuring steady churn.
    for _ in range(256):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        queue.push(now + state % 1_000_000, nothing)
    while processed < events:
        event = queue.pop()
        now = event.time_ns
        processed += 1
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        queue.push(now + 1 + state % 1_000_000, nothing)
    return processed


def bench_event_queue(events: int = 200_000, repeats: int = 3) -> dict[str, float]:
    """Events/second through the event queue, best of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        queue = EventQueue()
        start = time.perf_counter()
        _drive_queue(queue, events)
        best = min(best, time.perf_counter() - start)
    return {"events": float(events), "events_per_sec": events / best}


# --------------------------------------------------------------------------
# Cache microbenchmark.


def _reference_report() -> Any:
    """A real full-size boot report to push through the cache."""
    from repro.core.config import BBConfig
    from repro.runner.jobs import SimJob, execute_job
    from repro.workloads import opensource_tv_workload

    return execute_job(SimJob.boot(opensource_tv_workload,
                                   bb=BBConfig.full()))


def bench_cache(rounds: int = 300, repeats: int = 3) -> dict[str, float]:
    """Round-trips/second through the result cache.

    One round is a ``put`` of a real TV boot report under a fresh key
    followed by a ``get`` of it — the exact hot path a cold sweep pays
    per unique job.  Best-of-``repeats`` wall time.
    """
    report = _reference_report()
    best = float("inf")
    for _ in range(repeats):
        cache = ResultCache()
        start = time.perf_counter()
        for index in range(rounds):
            key = f"bench-{index}"
            cache.put(key, report)
            hit, _ = cache.get(key)
            assert hit
        best = min(best, time.perf_counter() - start)
    return {"rounds": float(rounds), "roundtrips_per_sec": rounds / best}


# --------------------------------------------------------------------------
# Checkpoint benchmark.


def checkpoint_matrix(cells: int = 120) -> list[Any]:
    """A late-phase what-if matrix of ``cells`` jobs sharing one prefix.

    Composition is probe-derived so it adapts to the workload: mostly
    per-task deferred faults (§2.5.2 post-completion work — the faults
    diverge after ~95% of the boot), plus transient flakes of the
    latest-queried services and settle jitter on the settle-capable
    units.  Speedup under branching is by construction bounded by how
    late the cells diverge; this matrix is the "what breaks *late* in
    the boot" sweep that motivates checkpointing.
    """
    from repro.core.config import BBConfig
    from repro.faults import (DeferredFault, FaultPlan, ServiceFault,
                              SettleFault)
    from repro.runner.jobs import SimJob, make_boot_simulation
    from repro.sim.checkpoint import DEFERRED, SERVICE, SETTLE, InjectorSlot
    from repro.workloads import opensource_tv_workload

    def boot(plan: Any) -> Any:
        return SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                           fault_plan=plan)

    slot = InjectorSlot(record=True)
    probe = make_boot_simulation(boot(None), injector_slot=slot)
    probe.start()
    probe.complete()

    service_first: dict[str, int] = {}
    for record in slot.records:
        if record[0] == SERVICE and record[1] not in service_first:
            service_first[record[1]] = record[3]
    late_units = sorted(service_first, key=service_first.get)
    settle_units = sorted({r[1] for r in slot.records if r[0] == SETTLE})
    tasks = sorted({r[1] for r in slot.records if r[0] == DEFERRED})

    n_settle = min(2 * len(settle_units), max(2, cells // 16))
    n_service = min(len(late_units), max(4, cells // 8))
    n_deferred = max(0, cells - n_settle - n_service)

    jobs: list[Any] = []
    for index in range(n_deferred):
        task = tasks[index % len(tasks)]
        jobs.append(boot(FaultPlan(seed=1000 + index, deferred=(
            DeferredFault(task=task, fail_attempts=1),))))
    for index in range(n_service):
        unit = late_units[-1 - index]
        jobs.append(boot(FaultPlan(seed=2000 + index, services=(
            ServiceFault(unit=unit, fail_attempts=1),))))
    for index in range(n_settle):
        unit = settle_units[index % len(settle_units)]
        jobs.append(boot(FaultPlan(seed=3000 + index, settles=(
            SettleFault(unit=unit, jitter=0.5),))))
    return jobs


def bench_checkpoint(cells: int = 120,
                     backend: str | None = None) -> dict[str, Any]:
    """Cold-cache wall time of the matrix: from-scratch vs branched.

    Both legs run serially (``jobs=1``) on fresh caches, so the measured
    ratio is purely the checkpoint/fork engine's doing — no process pool,
    no warm cache on either side.  Results are compared cell-by-cell via
    :func:`~repro.runner.branch.canonical_bytes`.
    """
    from repro.runner.branch import canonical_bytes, default_backend

    backend = backend or default_backend()
    jobs = checkpoint_matrix(cells)

    start = time.perf_counter()
    with SweepRunner(jobs=1, branch=False) as runner:
        scratch = runner.run(jobs)
    scratch_s = time.perf_counter() - start

    start = time.perf_counter()
    with SweepRunner(jobs=1, branch=True, branch_backend=backend) as runner:
        branched = runner.run(jobs)
        stats = runner.stats
    branched_s = time.perf_counter() - start

    identical = all(canonical_bytes(a) == canonical_bytes(b)
                    for a, b in zip(scratch, branched))
    return {
        "cells": len(jobs),
        "backend": backend,
        "scratch_wall_s": scratch_s,
        "branched_wall_s": branched_s,
        "speedup": scratch_s / branched_s if branched_s else 0.0,
        "outputs_identical": identical,
        "runner": {
            "branched": stats.branched,
            "executed": stats.executed,
            "prefix_boots": stats.prefix_boots,
        },
    }


# --------------------------------------------------------------------------
# Design-space (analytic pre-filter) benchmark.


def bench_design_space(smoke: bool = False) -> dict[str, Any]:
    """Pre-filtered design-space sweep vs brute-force DES of every cell.

    Runs :mod:`repro.experiments.design_space` with the exhaustive check
    on: the closed-form predictor ranks every cell and only the
    per-workload frontier reaches the DES, then a second fresh runner
    boots *all* cells to confirm the frontier is identical and measure
    the wall time the pre-filter saved.  Both legs run serially on fresh
    caches.
    """
    from repro.experiments import design_space

    result = design_space.run(smoke=smoke, exhaustive=True)
    return {
        "cells": result.cells,
        "des_boots": result.des_boots,
        "prefilter_wall_s": result.prefilter_wall_s,
        "exhaustive_wall_s": result.exhaustive_wall_s,
        "speedup": result.speedup,
        "frontier_identical": result.frontier_identical,
    }


# --------------------------------------------------------------------------
# Sweep benchmark.


def _run_all_experiments(runner: SweepRunner) -> dict[str, str]:
    """Render every experiment artifact, routing boots through ``runner``."""
    from repro.experiments import EXPERIMENTS, run_and_render

    return {exp_id: run_and_render(exp_id, runner) for exp_id in EXPERIMENTS}


def bench_sweep(jobs: int, cache_dir: str | None = None) -> dict[str, Any]:
    """Wall time of ``experiment all``: serial vs ``jobs`` workers.

    Each leg gets a fresh cache (optionally disk-backed under
    ``cache_dir``) so neither run is subsidized by the other; the dedup
    and cache statistics reported are the parallel leg's.
    """
    start = time.perf_counter()
    serial_rendered = _run_all_experiments(SweepRunner(jobs=1))
    serial_s = time.perf_counter() - start

    with SweepRunner(jobs=jobs, cache=ResultCache(cache_dir)) as runner:
        start = time.perf_counter()
        parallel_rendered = _run_all_experiments(runner)
        parallel_s = time.perf_counter() - start
        stats = runner.stats
        cache_stats = runner.cache.stats

    return {
        "jobs": jobs,
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
        "outputs_identical": serial_rendered == parallel_rendered,
        "runner": {
            "submitted": stats.submitted,
            "deduplicated": stats.deduplicated,
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
            "savings_rate": stats.savings_rate,
        },
        "cache": {
            "memory_hits": cache_stats.memory_hits,
            "disk_hits": cache_stats.disk_hits,
            "misses": cache_stats.misses,
            "hit_rate": cache_stats.hit_rate,
        },
    }


# --------------------------------------------------------------------------
# Fleet benchmark.


def bench_fleet(smoke: bool = False,
                total_jobs: int | None = None) -> dict[str, Any]:
    """Campaign throughput through the fleet service, identity-checked.

    Runs :func:`repro.fleet.campaign.run`: an in-process asyncio service
    on an ephemeral port, the device-matrix campaign submitted over TCP
    as one submission, every unique fingerprint replayed through a fresh
    serial runner and compared ticket by ticket with the stream.
    """
    from repro.fleet import campaign

    result = campaign.run(smoke=smoke, total_jobs=total_jobs)
    return {
        "total_jobs": result.total_jobs,
        "unique_jobs": result.unique_jobs,
        "executed": result.executed,
        "cache_hits": result.cache_hits,
        "coalesced": result.coalesced,
        "wall_s": result.wall_s,
        "jobs_per_min": result.jobs_per_min,
        "serial_wall_s": result.serial_wall_s,
        "peak_workers": result.peak_workers,
        "scaled_up": result.scaled_up,
        "scaled_down": result.scaled_down,
        "outputs_identical": result.identical,
    }


def build_record(jobs: int, events: int = 200_000,
                 skip_sweep: bool = False,
                 cache_dir: str | None = None,
                 skip_checkpoint: bool = False,
                 checkpoint_cells: int = 120,
                 checkpoint_backend: str | None = None,
                 skip_predict: bool = False,
                 skip_fleet: bool = False) -> dict[str, Any]:
    """The full ``BENCH_runner.json`` payload."""
    record: dict[str, Any] = {
        "code_version": code_version(),
        "event_queue": bench_event_queue(events=events),
        "cache": bench_cache(),
    }
    if not skip_checkpoint:
        record["checkpoint"] = bench_checkpoint(cells=checkpoint_cells,
                                                backend=checkpoint_backend)
    if not skip_predict:
        record["design_space"] = bench_design_space()
    if not skip_sweep:
        record["experiment_all"] = bench_sweep(jobs, cache_dir=cache_dir)
    if not skip_fleet:
        record["fleet"] = bench_fleet()
    return record


def write_record(record: dict[str, Any], path: str) -> None:
    """Serialize a benchmark record as pretty JSON."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
