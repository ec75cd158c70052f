"""Performance benchmarks behind ``python -m repro bench``.

Seven measurements seed the repo's perf trajectory, recorded to
``BENCH_runner.json``:

* **Engine microbenchmark** — events/second through the
  :class:`~repro.sim.events.EventQueue` on a seeded deterministic
  push/pop workload.
* **Per-boot benchmark** — host time of single cold boots of the stock
  and the commercial TV, without and with BB on 4 cores, through the DES
  and through the closed-form predictor
  (:func:`~repro.analysis.predict.predict`), beside each boot's CPU
  dispatches and simulated completion.
* **Cache microbenchmark** — put+get round-trips/second of a real boot
  report through the in-memory :class:`~repro.runner.cache.ResultCache`.
* **Checkpoint benchmark** — cold-cache wall time of a 100+-cell
  late-phase fault matrix executed from scratch versus through the
  checkpoint/fork engine (:mod:`repro.runner.branch`); the from-scratch
  leg is the serial-identity oracle
  (:class:`~repro.runner.oracle.SerialReplay`) that checks the branched
  results byte for byte.  The matrix is derived from a prefix probe:
  deferred-task faults (post-completion divergence), transient flakes
  of the latest-queried services, and settle jitter — cells whose
  shared prefix is long by construction, which is exactly the sweep
  shape branching exists for.
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
from functools import partial
from typing import Any

from repro.atomic import atomic_write_bytes
from repro.runner.cache import ResultCache
from repro.runner.jobs import code_version
from repro.runner.sweep import SweepRunner
from repro.sim.events import EventQueue


def _fields(source: Any, *names: str) -> dict[str, Any]:
    """The named attributes of ``source`` as a record section."""
    return {name: getattr(source, name) for name in names}


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
# Per-boot benchmark.

#: (workload, BB) cases of the per-boot section, all on :data:`BOOT_CORES`
#: cores.  The commercial TV without BB is the heaviest stock boot for the
#: DES: its spinning RCU waiters make ~77k CPU dispatches.
BOOT_CASES = (("tv", "none"), ("tv", "full"),
              ("tv-commercial", "none"), ("tv-commercial", "full"))
BOOT_CORES = 4
#: Each per-boot host time is the best of this many runs.
BOOT_REPEATS = 3


def _best_ms(run: Any, factory: Any) -> tuple[float, Any]:
    """Best-of-:data:`BOOT_REPEATS` host ms of ``run(factory())``, and its
    result.

    Each repeat builds a fresh workload outside the timed region.
    """
    best = float("inf")
    result = None
    for _ in range(BOOT_REPEATS):
        workload = factory()
        start = time.perf_counter()
        result = run(workload)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best, result


def _des_boot_ms(bb: Any, factory: Any) -> tuple[float, float, Any, Any]:
    """Best-of-:data:`BOOT_REPEATS` host ms of cold DES boots, whole and
    up to boot completion, with the boot's report and CPU statistics.

    An untimed first boot finds the completion time.  Each timed boot is
    ``start()`` then ``sim.run(until_ns=completion)`` (the completion leg),
    then ``complete()``; pausing is exact, so the whole boot is the same
    event stream as ``run()``, and the completion leg's best is never
    above the whole boot's best.
    """
    from repro.core import BootSimulation

    simulation = BootSimulation(factory(), bb, cores=BOOT_CORES)
    report = simulation.run()
    complete_ns = report.boot_complete_ns
    best = best_complete = float("inf")
    for _ in range(BOOT_REPEATS):
        workload = factory()
        start = time.perf_counter()
        simulation = BootSimulation(workload, bb, cores=BOOT_CORES)
        simulation.start()
        simulation.sim.run(until_ns=complete_ns)
        completed = time.perf_counter()
        simulation.complete()
        end = time.perf_counter()
        best_complete = min(best_complete, (completed - start) * 1000.0)
        best = min(best, (end - start) * 1000.0)
    return best, best_complete, report, simulation.sim.cpu.stats


def bench_boots() -> dict[str, dict[str, float]]:
    """Per-boot host ms of the DES and of the predictor, keyed
    ``"<workload>/<bb>/c<cores>"``.

    ``des_ms`` times a whole ``BootSimulation`` boot and
    ``des_complete_ms`` its run up to boot completion, the work
    ``predict_ms`` (:func:`~repro.analysis.predict.predict`) answers for;
    each is the best of :data:`BOOT_REPEATS`.  ``dispatches`` and
    ``complete_ms`` come from the DES boot.
    """
    from repro.analysis.predict import predict
    from repro.core import BBConfig
    from repro.workloads import WORKLOAD_FACTORIES

    section: dict[str, dict[str, float]] = {}
    for name, bb_name in BOOT_CASES:
        factory = WORKLOAD_FACTORIES[name]
        bb = BBConfig.full() if bb_name == "full" else BBConfig.none()
        des_ms, des_complete_ms, report, stats = _des_boot_ms(bb, factory)
        predict_ms, _ = _best_ms(partial(predict, bb=bb, cores=BOOT_CORES),
                                 factory)
        section[f"{name}/{bb_name}/c{BOOT_CORES}"] = {
            "des_ms": des_ms,
            "des_complete_ms": des_complete_ms,
            "predict_ms": predict_ms,
            "dispatches": stats.dispatches,
            "complete_ms": report.boot_complete_ns / 1e6,
        }
    return section


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


def bench_checkpoint(cells: int = 120) -> dict[str, Any]:
    """Cold-cache wall time of the matrix: from-scratch vs branched.

    Both legs run serially (``jobs=1``) on fresh caches, so the measured
    ratio is purely the checkpoint/fork engine's doing — no process pool,
    no warm cache on either side.  The from-scratch leg is the timed
    :class:`~repro.runner.oracle.SerialReplay`, which then compares the
    branched results cell by cell.
    """
    from repro.runner.branch import canonical_bytes
    from repro.runner.oracle import SerialReplay

    jobs = checkpoint_matrix(cells)

    replay = SerialReplay([(job, 1) for job in jobs])

    start = time.perf_counter()
    with SweepRunner(jobs=1, branch=True) as runner:
        branched = runner.run(jobs)
        stats = runner.stats
    branched_s = time.perf_counter() - start

    mismatches = replay.compare(
        zip(replay.fingerprints, map(canonical_bytes, branched)), "branched")
    return {
        "cells": len(jobs),
        "scratch_wall_s": replay.wall_s,
        "branched_wall_s": branched_s,
        "speedup": replay.wall_s / branched_s if branched_s else 0.0,
        "outputs_identical": not mismatches,
        "runner": _fields(stats, "branched", "executed", "prefix_boots"),
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
    return _fields(result, "cells", "des_boots", "prefilter_wall_s",
                   "exhaustive_wall_s", "speedup", "frontier_identical")


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
        "runner": _fields(stats, "submitted", "deduplicated", "cache_hits",
                          "executed", "savings_rate"),
        "cache": _fields(cache_stats, "memory_hits", "disk_hits", "misses",
                         "hit_rate"),
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
    return {**_fields(result, "total_jobs", "unique_jobs", "executed",
                      "cache_hits", "coalesced", "wall_s", "jobs_per_min",
                      "serial_wall_s", "peak_workers", "scaled_up",
                      "scaled_down"),
            "outputs_identical": result.identical}


def build_record(jobs: int, events: int = 200_000,
                 skip_sweep: bool = False,
                 cache_dir: str | None = None,
                 skip_checkpoint: bool = False,
                 checkpoint_cells: int = 120,
                 skip_predict: bool = False,
                 skip_fleet: bool = False) -> dict[str, Any]:
    """The full ``BENCH_runner.json`` payload."""
    record: dict[str, Any] = {
        "code_version": code_version(),
        "event_queue": bench_event_queue(events=events),
        "boots": bench_boots(),
        "cache": bench_cache(),
    }
    if not skip_checkpoint:
        record["checkpoint"] = bench_checkpoint(cells=checkpoint_cells)
    if not skip_predict:
        record["design_space"] = bench_design_space()
    if not skip_sweep:
        record["experiment_all"] = bench_sweep(jobs, cache_dir=cache_dir)
    if not skip_fleet:
        record["fleet"] = bench_fleet()
    return record


def write_record(record: dict[str, Any], path: str) -> None:
    """Serialize a benchmark record as pretty JSON, then replace ``path``
    with it atomically: a record that cannot be serialized leaves the
    previous one intact."""
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, payload.encode())
