"""Command-line interface: ``python -m repro <command>``; ``--help`` on
any command lists its flags.

* ``boot`` — one simulated cold boot, optionally under a fault preset or
  supervised by the recovery ladder; exit 0 clean, 3 degraded, 1
  unrecoverable,
* ``recover`` — the boot-recovery escalation ladder: one supervised run
  for a named fault preset, or the recovery matrix,
* ``experiment <id>|all|list`` — regenerate paper artifacts through one
  deduplicating, cached, optionally branched and parallel sweep runner,
* ``faults`` — boot under a named fault preset and print the outcome,
* ``predict`` — solve a boot analytically (closed form, no event loop),
* ``bench`` — the perf benchmarks recorded to ``BENCH_runner.json``;
  exit 1 when an identity or floor gate trips,
* ``fleet serve|submit|status|campaign`` — the async boot service
  (:mod:`repro.fleet`) and its byte-checked 10k-job campaign,
* ``generations init|commit|log|diff|rollback|rollout`` — boot-entry
  generations and OTA rollouts (:mod:`repro.generations`),
* ``bootchart`` — boot and render the bootchart (ASCII, SVG, trace),
* ``verify`` — the simulation verification harness,
* ``analyze`` — the Service Analyzer; ``workloads`` — list workloads.

The boot-shaped commands (``boot``, ``faults``, ``predict``,
``bootchart``, ``recover``, ``fleet submit``, ``generations commit``)
share one set of boot flags, turn them into one boot spec — the fleet
wire format — and resolve it with :func:`repro.bootspec.resolve_spec`.
A bad name or value exits with one line from :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Sequence

from repro.analysis.report import format_table
from repro.atomic import atomic_write_bytes
from repro.bootchart import BootChart, render_ascii, render_svg
from repro.bootspec import ResolvedSpec, resolve_spec
from repro.errors import ConfigurationError, GenerationError
from repro.graph.analyzer import ServiceAnalyzer
from repro.workloads import WORKLOAD_FACTORIES
from repro.workloads.base import Workload

#: CLI name -> workload factory (the shared registry; the fleet wire
#: protocol resolves the same names).
WORKLOADS: dict[str, Callable[[], Workload]] = WORKLOAD_FACTORIES


def _resolve_jobs(value: int | None) -> int:
    """Shared ``--jobs``/worker-count validation for every subcommand.

    ``None`` defaults to the CPU count; anything below 1 raises the
    scheduler layer's :class:`ConfigurationError` instead of a silent
    clamp.
    """
    from repro.runner.schedule import resolve_worker_count

    return resolve_worker_count(value)


def _spec(args: argparse.Namespace, fault: str | None = None,
          seed: int = 1, kind: str = "boot") -> dict[str, Any]:
    """The shared boot flags (see :func:`_boot_flags`) as one boot spec."""
    spec: dict[str, Any] = {"kind": kind, "workload": args.workload}
    if args.features:
        spec["bb"] = [name.strip() for name in args.features.split(",")]
    elif args.no_bb:
        spec["bb"] = "none"
    if getattr(args, "cores", None) is not None:
        spec["cores"] = args.cores
    if fault:
        spec["fault"] = {"preset": fault, "seed": seed}
    return spec


def _print_injected(tally: dict[str, int]) -> None:
    counts = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()) if v)
    if counts:
        print(f"injected: {counts}")


def _print_stages(result: Any, column: str, *times_ns: int) -> None:
    """The stage table ``boot`` and ``predict`` print, then the BB Group."""
    labels = ("(a) kernel initialization", "(b) init initialization",
              "(c)+(d) services & applications", "boot completion",
              "full quiescence (deferred work done)")
    print(format_table(["stage", column], [
        (label, f"{ns / 1e6:.1f} ms") for label, ns in zip(labels, times_ns)]))
    if result.bb_group:
        print(f"BB Group: {', '.join(sorted(result.bb_group))}")


def _failed(gates: list[tuple[bool, str, str, float, float, str]]) -> bool:
    """Print a FAIL line per tripped identity-plus-floor gate.

    Each gate is ``(identical, what differs, metric, measured, floor,
    number format)``; a zero floor only reports.
    """
    failed = False
    for identical, differs, metric, measured, floor, shown in gates:
        if not identical:
            print(f"FAIL: {differs}")
            failed = True
        if floor and measured < floor:
            print(f"FAIL: {metric} {shown.format(measured)} below the "
                  f"committed floor {shown.format(floor)}")
            failed = True
    return failed


def _cmd_boot(args: argparse.Namespace) -> int:
    """Boot once (optionally faulted/supervised).

    Exit codes: 0 — clean boot; 3 — boot completed degraded or recovery
    converged with losses; 1 — the boot could not reach completion.
    """
    from repro.core.degraded import DegradedBootError

    boot = resolve_spec(_spec(args, args.faults, args.seed))
    if args.recover:
        return _recover_once(boot, args.json)
    try:
        report = boot.simulation().run()
    except DegradedBootError as exc:
        print(exc.report.summary())
        return 1
    if args.json:
        from repro.analysis.export import report_to_json
        print(report_to_json(report))
        return 3 if report.degraded else 0
    features = ", ".join(report.features) or "none (conventional boot)"
    print(f"workload: {report.workload}")
    print(f"BB features: {features}")
    stages = report.stages
    _print_stages(report, "time", stages.kernel_ns, stages.init_init_ns,
                  stages.services_ns, report.boot_complete_ns,
                  report.all_done_ns)
    if report.degraded:
        print("boot completed DEGRADED: "
              + ", ".join(sorted({*report.failed_units,
                                  *report.unsettled_units,
                                  *report.deferred_failed})))
        return 3
    return 0


def _recover_once(boot: ResolvedSpec, as_json: bool) -> int:
    """Run one supervised recovery and map its outcome to an exit code."""
    from repro.recovery import BootSupervisor
    from repro.verify import InvariantMonitor

    outcome = BootSupervisor(boot.factory(), boot.recovery_policy(),
                             fault_plan=boot.fault_plan,
                             monitor=InvariantMonitor()).run()
    if not as_json:
        print(outcome.summary())
    elif outcome.report is not None:
        from repro.analysis.export import report_to_json
        print(report_to_json(outcome.report))
    else:
        from repro.analysis.schema import validate_recovery_dict
        document = outcome.to_dict()
        validate_recovery_dict(document)
        print(json.dumps(document, indent=2, sort_keys=True))
    return outcome.exit_code


def _cmd_recover(args: argparse.Namespace) -> int:
    jobs = _resolve_jobs(args.jobs)  # validate even on the single-run path
    if args.preset is not None:
        boot = resolve_spec(_spec(args, args.preset, args.seed))
        return _recover_once(boot, args.json)
    from repro.experiments import recovery_matrix
    from repro.runner import ResultCache, SweepRunner

    with SweepRunner(jobs=jobs, cache=ResultCache(args.cache_dir),
                     branch=args.branch) as runner:
        result = recovery_matrix.run(runner=runner, smoke=args.smoke)
    print(recovery_matrix.render(result))
    return 0 if result.all_converged else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_and_render

    if args.id == "list":
        print("\n".join(EXPERIMENTS))
        return 0
    if args.id != "all" and args.id not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {args.id!r}; "
                         f"try 'experiment list'")
    if args.cache_dir is not None:
        import os
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"cannot use cache dir {args.cache_dir!r}: {exc}")
    from repro.runner import ResultCache, SweepRunner

    # One shared runner across the whole invocation, so 'experiment all'
    # never boots the same (workload, config, cores) twice.
    with SweepRunner(jobs=_resolve_jobs(args.jobs),
                     cache=ResultCache(args.cache_dir),
                     branch=args.branch) as runner:
        for exp_id in EXPERIMENTS if args.id == "all" else [args.id]:
            print(run_and_render(exp_id, runner, smoke=args.smoke))
            print()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.degraded import DegradedBootError
    from repro.faults import PRESETS

    if args.list_presets or args.preset is None:
        for name, builder in PRESETS.items():
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:16s} {doc}")
        return 0
    boot = resolve_spec(_spec(args, args.preset, args.seed))
    print(boot.fault_plan.describe())
    try:
        report = boot.simulation().run()
    except DegradedBootError as exc:
        print(exc.report.summary())
        _print_injected(exc.report.injected_faults)
        return 1
    state = "degraded" if report.degraded else "healthy"
    print(f"boot completed {state} at {report.boot_complete_ms:.1f} ms "
          f"(full quiescence {report.all_done_ns / 1e6:.1f} ms)")
    if report.failed_units:
        print("failed units: " + ", ".join(
            f"{name} ({reason})"
            for name, reason in sorted(report.failed_units.items())))
    if report.unsettled_units:
        print("never settled: " + ", ".join(report.unsettled_units))
    if report.deferred_failed:
        print("deferred tasks given up: " + ", ".join(report.deferred_failed))
    _print_injected(report.injected_faults)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Solve a boot analytically — no event loop, same numbers.

    Exit codes: 0 — predicted; 1 — the configuration is outside the
    predictor's model (e.g. the single-core priority-inversion livelock).
    """
    from repro.analysis.predict import predict
    from repro.errors import AnalysisError

    boot = resolve_spec(_spec(args))
    try:
        prediction = predict(boot.factory(), boot.bb, cores=boot.cores)
    except AnalysisError as exc:
        print(f"prediction failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        document = {key: getattr(prediction, key) for key in (
            "workload", "features", "cores", "boot_complete_ns", "kernel_ns",
            "init_init_ns", "load_units_ns", "submodules_ns", "services_ns")}
        document["bb_group"] = sorted(prediction.bb_group)
        for key in ("unit_started_ns", "unit_ready_ns"):
            document[key] = dict(sorted(getattr(prediction, key).items()))
        print(json.dumps(document, indent=2))
        return 0
    features = ", ".join(prediction.features) or "none (conventional boot)"
    print(f"workload: {prediction.workload} (predicted, no simulation)")
    print(f"BB features: {features}")
    print(f"cores: {prediction.cores}")
    _print_stages(prediction, "predicted time", prediction.kernel_ns,
                  prediction.init_init_ns, prediction.services_ns,
                  prediction.boot_complete_ns)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner.bench import build_record, write_record

    record = build_record(jobs=_resolve_jobs(args.jobs), events=args.events,
                          skip_sweep=args.skip_sweep,
                          cache_dir=args.cache_dir,
                          skip_checkpoint=args.skip_checkpoint,
                          checkpoint_cells=args.checkpoint_cells,
                          skip_predict=args.skip_predict,
                          skip_fleet=args.skip_fleet)
    write_record(record, args.out)
    print(f"event queue: {record['event_queue']['events_per_sec']:,.0f} "
          f"events/s")
    for key, boot in record["boots"].items():
        print(f"boot {key}: DES {boot['des_ms']:.0f} ms "
              f"({boot['des_complete_ms']:.0f} ms to completion, "
              f"{boot['dispatches']:,} dispatches), predictor "
              f"{boot['predict_ms']:.0f} ms, completes at "
              f"{boot['complete_ms']:.1f} ms simulated")
    print(f"result cache: {record['cache']['roundtrips_per_sec']:,.0f} "
          f"roundtrips/s")
    gates = []
    if "checkpoint" in record:
        checkpoint = record["checkpoint"]
        print(f"checkpoint: {checkpoint['cells']}-cell matrix, scratch "
              f"{checkpoint['scratch_wall_s']:.1f} s, branched "
              f"{checkpoint['branched_wall_s']:.1f} s "
              f"(speedup {checkpoint['speedup']:.2f}x, outputs identical: "
              f"{checkpoint['outputs_identical']})")
        gates.append((checkpoint["outputs_identical"],
                      "branched results differ from from-scratch runs",
                      "checkpoint speedup", checkpoint["speedup"],
                      args.branch_floor, "{:.2f}x"))
    if "design_space" in record:
        sweep = record["design_space"]
        print(f"design space: {sweep['cells']} cells, pre-filtered "
              f"{sweep['prefilter_wall_s']:.1f} s "
              f"({sweep['des_boots']} DES boots), exhaustive DES "
              f"{sweep['exhaustive_wall_s']:.1f} s (speedup "
              f"{sweep['speedup']:.2f}x, frontier identical: "
              f"{sweep['frontier_identical']})")
        gates.append((sweep["frontier_identical"],
                      "analytic frontier differs from the exhaustive DES "
                      "frontier", "design-space speedup", sweep["speedup"],
                      args.predict_floor, "{:.2f}x"))
    if "experiment_all" in record:
        sweep = record["experiment_all"]
        print(f"experiment all: serial {sweep['serial_wall_s']:.1f} s, "
              f"--jobs {sweep['jobs']} {sweep['parallel_wall_s']:.1f} s "
              f"(speedup {sweep['speedup']:.2f}x, outputs identical: "
              f"{sweep['outputs_identical']})")
        print(f"runner: {sweep['runner']['submitted']} submitted, "
              f"{sweep['runner']['deduplicated']} deduplicated, "
              f"{sweep['runner']['cache_hits']} cache hits, "
              f"{sweep['runner']['executed']} executed")
    if "fleet" in record:
        fleet = record["fleet"]
        print(f"fleet: {fleet['total_jobs']:,} jobs "
              f"({fleet['unique_jobs']} unique) streamed in "
              f"{fleet['wall_s']:.1f} s = {fleet['jobs_per_min']:,.0f} "
              f"jobs/min (peak {fleet['peak_workers']} workers, outputs "
              f"identical: {fleet['outputs_identical']})")
        gates.append((fleet["outputs_identical"],
                      "fleet results differ from the serial replay",
                      "fleet throughput", fleet["jobs_per_min"],
                      args.fleet_floor, "{:,.0f} jobs/min"))
    failed = _failed(gates)
    print(f"record written to {args.out}")
    return 1 if failed else 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Run the fleet service until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.fleet.resources import ResourcePolicy
    from repro.fleet.service import FleetService

    try:
        policy = ResourcePolicy(
            min_workers=args.min_workers,
            max_workers=_resolve_jobs(args.max_workers),
            max_rss_bytes=(args.max_rss_mb * 1024 * 1024
                           if args.max_rss_mb else None))
    except ValueError as exc:
        raise SystemExit(str(exc))
    chaos = None
    if args.chaos:
        from repro.faults.fleet import FleetFaultPlan

        try:
            chaos = FleetFaultPlan.from_dict(json.loads(args.chaos))
        except (ValueError, ConfigurationError) as exc:
            raise SystemExit(f"--chaos: {exc}")

    async def _serve() -> None:
        service = FleetService(
            host=args.host, port=args.port, policy=policy,
            cache_dir=args.cache_dir,
            cache_max_bytes=(args.cache_max_mb * 1024 * 1024
                             if args.cache_max_mb else None),
            branch=args.branch, batch_size=args.batch_size,
            journal_dir=args.journal,
            journal_checkpoint_every=args.journal_checkpoint_every,
            max_job_retries=args.max_job_retries, chaos=chaos)
        host, port = await service.start()
        service.install_signal_handlers()
        journal_note = (f", journal {args.journal}" if args.journal else "")
        chaos_note = (f", chaos {chaos.describe()}"
                      if chaos is not None and not chaos.empty else "")
        print(f"fleet service listening on {host}:{port} "
              f"(workers {policy.min_workers}..{policy.max_workers}, "
              f"SIGTERM drains gracefully{journal_note}{chaos_note})",
              flush=True)
        await service.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # the drain already ran via the signal handler
    print("fleet service drained")
    return 0


def _cmd_fleet_submit(args: argparse.Namespace) -> int:
    """Submit jobs to a running service; stream and summarize results."""
    from repro.errors import FleetError
    from repro.fleet.client import submit_sync

    if args.spec_file:
        with open(args.spec_file) as handle:
            specs = json.load(handle)
        if not isinstance(specs, list) or not specs:
            raise SystemExit(f"{args.spec_file}: expected a non-empty "
                             f"JSON list of job specs")
    else:
        kind = "recover" if args.recover else "boot"
        specs = [{**_spec(args, args.faults, args.seed, kind),
                  "repeat": args.repeat}]
    try:
        outcome = submit_sync(args.host, args.port, specs,
                              priority=args.priority)
    except FleetError as exc:
        raise SystemExit(f"cannot reach a fleet service at "
                         f"{args.host}:{args.port}: {exc}")
    if args.verbose:
        for index, summary in enumerate(outcome.summaries):
            error = outcome.errors.get(index)
            state = "cached" if outcome.cached[index] else "ran"
            if error is not None:
                print(f"  [{index}] ERROR: {error}")
            else:
                boot_ms = summary.get("boot_ms")
                timing = f" {boot_ms:.1f} ms" if boot_ms is not None else ""
                print(f"  [{index}] {summary.get('type', '?')}{timing} "
                      f"({state})")
    cached = sum(outcome.cached)
    print(f"{len(outcome.payloads)}/{outcome.total} jobs delivered in "
          f"{outcome.elapsed_s:.2f} s ({cached} cached, "
          f"{len(outcome.errors)} errors)")
    return 0 if outcome.ok else 1


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.errors import FleetError
    from repro.fleet.client import status_sync

    try:
        snapshot = status_sync(args.host, args.port)
    except FleetError as exc:
        raise SystemExit(f"cannot reach a fleet service at "
                         f"{args.host}:{args.port}: {exc}")
    snapshot.pop("event", None)
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_fleet_campaign(args: argparse.Namespace) -> int:
    from repro.errors import FleetError
    from repro.fleet import campaign
    from repro.fleet.client import RetryPolicy

    retry = RetryPolicy(retries=args.retries, backoff_base=args.backoff_base,
                        seed=args.retry_seed)
    try:
        result = campaign.run(smoke=args.smoke, total_jobs=args.total_jobs,
                              max_workers=_resolve_jobs(args.max_workers),
                              batch_size=args.batch_size,
                              journal_dir=args.journal, host=args.host,
                              port=args.port,
                              cells_per_chunk=args.chunk_cells, retry=retry,
                              read_timeout=args.read_timeout)
    except FleetError as exc:
        raise SystemExit(f"fleet campaign failed: {exc}")
    if args.json:
        document = {key: getattr(result, key) for key in (
            "total_jobs", "unique_jobs", "executed", "cache_hits",
            "coalesced", "wall_s", "jobs_per_min", "serial_wall_s",
            "peak_workers", "scaled_up", "scaled_down", "identical",
            "mismatches", "smoke", "provenance", "resumed_jobs",
            "client_retries", "requeued", "quarantined")}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(campaign.render(result))
    gate = (result.identical, "fleet results differ from the serial replay",
            "fleet throughput", result.jobs_per_min, args.throughput_floor,
            "{:,.0f} jobs/min")
    return 1 if _failed([gate]) else 0


def _cmd_generations_init(args: argparse.Namespace) -> int:
    from repro.generations import GenerationStore

    GenerationStore.init(args.store)
    print(f"initialized empty generation store at {args.store}")
    return 0


def _cmd_generations_commit(args: argparse.Namespace) -> int:
    from repro.generations import Generation, GenerationStore

    store = GenerationStore(args.store)  # every operation checks it exists
    boot = resolve_spec(_spec(args, args.fault, args.fault_seed))
    generation = Generation(
        label=args.label, workload=args.workload,
        features=tuple(boot.bb.enabled_features()), cores=args.cores,
        fault=(args.fault, args.fault_seed) if args.fault else None,
        max_boot_attempts=args.max_boot_attempts,
        regression_threshold=args.threshold,
        parent=store.head(args.ref), notes=args.notes)
    fingerprint = store.commit(generation, ref=args.ref)
    print(f"[{args.ref} {fingerprint[:12]}] {generation.label}")
    return 0


def _cmd_generations_log(args: argparse.Namespace) -> int:
    from repro.generations import GenerationStore

    count = 0
    for generation in GenerationStore(args.store).log(args.ref):
        fault = (f" fault={generation.fault[0]}#{generation.fault[1]}"
                 if generation.fault else "")
        features = ",".join(generation.features) or "none"
        print(f"{generation.fingerprint()[:12]} {generation.label:12s} "
              f"{generation.workload}/{features}{fault}"
              + (f"  # {generation.notes}" if generation.notes else ""))
        count += 1
    if not count:
        print(f"ref {args.ref!r} has no generations")
    return 0


def _cmd_generations_diff(args: argparse.Namespace) -> int:
    from repro.generations import GenerationStore, diff_generations

    store = GenerationStore(args.store)
    if args.b is not None:
        new = store.get(store.resolve(args.b))
    else:
        head = store.head(args.ref)
        if head is None:
            raise SystemExit(f"ref {args.ref!r} has no generations")
        new = store.get(head)
    if args.a is not None:
        old = store.get(store.resolve(args.a))
    elif new.parent is not None:
        old = store.get(new.parent)
    else:
        raise SystemExit(f"{new.label!r} has no parent; name both "
                         f"generations to diff")
    delta = diff_generations(old, new)
    if not delta:
        print(f"{old.label} and {new.label} are identical")
        return 0
    print(f"{old.label} ({old.fingerprint()[:12]}) -> "
          f"{new.label} ({new.fingerprint()[:12]})")
    rows = [(key, repr(entry["old"]), repr(entry["new"]))
            for key, entry in delta.items()]
    print(format_table(["field", "old", "new"], rows))
    return 0


def _cmd_generations_rollback(args: argparse.Namespace) -> int:
    from repro.generations import GenerationStore

    store = GenerationStore(args.store)
    popped = store.rollback(args.ref)
    head = store.head(args.ref)
    target = f"{head[:12]}" if head else "(unborn)"
    print(f"rolled {args.ref!r} back from {popped.label} "
          f"({popped.fingerprint()[:12]}) to {target}")
    return 0


def _cmd_generations_rollout(args: argparse.Namespace) -> int:
    import tempfile

    from repro.generations import (GenerationStore, demo_store,
                                   render_rollout, run_rollout)

    jobs = _resolve_jobs(args.jobs)
    if args.demo is None and args.store is None:
        raise SystemExit("name a store with --store, or use "
                         "--demo clean|regressed|broken")
    with tempfile.TemporaryDirectory() as tmp:
        report = run_rollout(
            demo_store(tmp, args.demo) if args.demo is not None
            else GenerationStore(args.store),
            target=args.target, baseline=args.baseline,
            devices=args.devices, waves=args.waves,
            update_seed=args.seed, flash_rate=args.flash_rate,
            corrupt_rate=args.corrupt_rate,
            halt_threshold=args.halt_threshold, jobs=jobs,
            use_fleet=args.fleet)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_rollout(report))
    if (args.expect_rollbacks is not None
            and report["rollbacks"] != args.expect_rollbacks):
        print(f"FAIL: expected exactly {args.expect_rollbacks} rollbacks, "
              f"observed {report['rollbacks']}")
        return 1
    return 0


def _cmd_bootchart(args: argparse.Namespace) -> int:
    simulation = resolve_spec(_spec(args)).simulation()
    chart = BootChart.from_report(simulation.run())
    print(render_ascii(chart, max_rows=args.rows))
    if args.svg:
        atomic_write_bytes(args.svg, render_svg(chart).encode())
        print(f"SVG written to {args.svg}")
    if args.trace:
        from repro.analysis.chrome_trace import tracer_to_chrome_json
        atomic_write_bytes(
            args.trace,
            tracer_to_chrome_json(simulation.sim.tracer).encode())
        print(f"Chrome trace written to {args.trace} "
              "(open in https://ui.perfetto.dev)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_verification

    try:
        report = run_verification(smoke=args.smoke, seed=args.seed,
                                  only=args.only)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    workload = resolve_spec({"workload": args.workload}).factory()
    report = ServiceAnalyzer(workload.fresh_registry()).analyze()
    print(report.summary())
    return 1 if report.has_errors else 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name, factory in WORKLOADS.items():
        workload = factory()
        registry = workload.fresh_registry()
        print(f"{name:14s} {workload.name:24s} {len(registry)} units, "
              f"completion: {', '.join(workload.completion_units)}")
    return 0


def _boot_flags(cores: bool = True) -> argparse.ArgumentParser:
    """The shared boot flags, as an argparse parent (``recover`` has no
    ``--cores``)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--workload", default="tv", help="workload name")
    flags.add_argument("--no-bb", action="store_true",
                       help="conventional boot (default is full BB)")
    flags.add_argument("--features", help="comma-separated BB feature list")
    if cores:
        flags.add_argument("--cores", type=int, default=None,
                           help="override the platform core count")
    return flags


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BB (Booting Booster, EuroSys 2016) boot-stack simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    boot_flags = [_boot_flags()]

    boot = sub.add_parser("boot", parents=boot_flags,
                          help="run one simulated cold boot")
    boot.add_argument("--json", action="store_true",
                      help="emit the full boot report as JSON")
    boot.add_argument("--faults", metavar="PRESET",
                      help="boot under a named fault preset")
    boot.add_argument("--seed", type=int, default=1,
                      help="seed of the --faults plan, and of --recover "
                           "with it (default 1)")
    boot.add_argument("--recover", action="store_true",
                      help="supervise the boot with the recovery ladder; "
                           "exit 0 clean, 3 recovered-degraded, "
                           "1 unrecoverable")
    boot.set_defaults(fn=_cmd_boot)

    recover = sub.add_parser(
        "recover", parents=[_boot_flags(cores=False)],
        help="run the boot-recovery escalation ladder")
    recover.add_argument("preset", nargs="?",
                         help="fault preset for a single supervised run "
                              "(omit to sweep the recovery matrix)")
    recover.add_argument("--seed", type=int, default=1,
                         help="fault/recovery seed (default 1)")
    recover.add_argument("--json", action="store_true",
                         help="emit the boot report / recovery section "
                              "as JSON")
    recover.add_argument("--smoke", action="store_true",
                         help="CI-sized recovery-matrix subset")
    recover.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the matrix sweep")
    recover.add_argument("--cache-dir",
                         help="persist matrix results to this directory")
    recover.add_argument("--branch", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="checkpoint/fork-branch prefix-sharing boot "
                              "jobs in the matrix sweep")
    recover.set_defaults(fn=_cmd_recover)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper artifact")
    experiment.add_argument("id", help="'list', 'all', or an experiment id")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes for simulation sweeps "
                                 "(1 = serial, the deterministic default)")
    experiment.add_argument("--cache-dir",
                            help="persist simulation results to this "
                                 "directory, keyed by job fingerprint")
    experiment.add_argument("--smoke", action="store_true",
                            help="reduced sweep for CI, where the "
                                 "experiment supports one")
    experiment.add_argument("--branch", action=argparse.BooleanOptionalAction,
                            default=False,
                            help="checkpoint/fork-branch prefix-sharing "
                                 "boot jobs instead of booting each from "
                                 "scratch (identical results)")
    experiment.set_defaults(fn=_cmd_experiment)

    faults = sub.add_parser("faults", parents=boot_flags,
                            help="boot under a named fault preset")
    faults.add_argument("preset", nargs="?",
                        help="preset name (see --list-presets)")
    faults.add_argument("--list-presets", action="store_true",
                        help="list the available fault presets")
    faults.add_argument("--seed", type=int, default=1,
                        help="fault plan seed (default 1)")
    faults.set_defaults(fn=_cmd_faults)

    predict = sub.add_parser(
        "predict", parents=boot_flags,
        help="solve a boot analytically (closed form, no event loop)")
    predict.add_argument("--json", action="store_true",
                         help="emit the prediction as JSON")
    predict.set_defaults(fn=_cmd_predict)

    bench = sub.add_parser("bench",
                           help="run the perf benchmarks, write BENCH_runner.json")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep benchmark "
                            "(default: cpu count)")
    bench.add_argument("--events", type=int, default=200_000,
                       help="events per engine-microbenchmark run")
    bench.add_argument("--skip-sweep", action="store_true",
                       help="skip the experiment-all sweep benchmark")
    bench.add_argument("--skip-checkpoint", action="store_true",
                       help="skip the checkpoint/fork benchmark")
    bench.add_argument("--checkpoint-cells", type=int, default=120,
                       help="fault-matrix cells for the checkpoint "
                            "benchmark (default 120)")
    bench.add_argument("--branch-floor", type=float, default=0.0,
                       help="fail (exit 1) if the checkpoint speedup lands "
                            "below this factor (0 = report only)")
    bench.add_argument("--skip-predict", action="store_true",
                       help="skip the design-space pre-filter benchmark")
    bench.add_argument("--predict-floor", type=float, default=0.0,
                       help="fail (exit 1) if the design-space pre-filter "
                            "speedup lands below this factor "
                            "(0 = report only)")
    bench.add_argument("--skip-fleet", action="store_true",
                       help="skip the fleet-campaign benchmark")
    bench.add_argument("--fleet-floor", type=float, default=0.0,
                       help="fail (exit 1) if the fleet campaign sustains "
                            "fewer jobs/min than this (0 = report only)")
    bench.add_argument("--cache-dir",
                       help="disk cache directory for the sweep benchmark")
    bench.add_argument("--out", default="BENCH_runner.json",
                       help="output record path")
    bench.set_defaults(fn=_cmd_bench)

    fleet = sub.add_parser(
        "fleet", help="the fleet-scale async boot service")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    serve = fleet_sub.add_parser(
        "serve", help="run the TCP/JSON-lines boot service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7016,
                       help="listen port (0 = ephemeral; default 7016)")
    serve.add_argument("--min-workers", type=int, default=1,
                       help="lower auto-scale bound (default 1)")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="upper auto-scale bound (default: cpu count)")
    serve.add_argument("--max-rss-mb", type=int, default=None,
                       help="scale down when the shards' combined RSS "
                            "exceeds this many MiB")
    serve.add_argument("--cache-dir",
                       help="content-addressed disk cache shared by shards")
    serve.add_argument("--cache-max-mb", type=int, default=None,
                       help="LRU-evict the disk cache above this many MiB")
    serve.add_argument("--batch-size", type=int, default=16,
                       help="jobs dispatched per shard batch (default 16)")
    serve.add_argument("--branch", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="checkpoint/fork-branch prefix-sharing jobs "
                            "inside shard batches")
    serve.add_argument("--journal", metavar="DIR", default=None,
                       help="write-ahead job journal directory; a "
                            "restarted service resumes unfinished "
                            "submissions from it")
    serve.add_argument("--journal-checkpoint-every", type=int, default=64,
                       metavar="N",
                       help="compact the journal every N appends "
                            "(default 64)")
    serve.add_argument("--max-job-retries", type=int, default=2,
                       help="times a job whose shard crashed is requeued "
                            "before quarantine (default 2)")
    serve.add_argument("--chaos", metavar="JSON", default=None,
                       help="seeded fault-injection plan for the chaos "
                            "harness, e.g. "
                            "'{\"seed\": 7, \"kill_worker_rate\": 0.1}'")
    serve.set_defaults(fn=_cmd_fleet_serve)

    submit = fleet_sub.add_parser(
        "submit", parents=boot_flags,
        help="submit jobs to a running fleet service")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7016)
    submit.add_argument("--faults", metavar="PRESET",
                        help="boot under a named fault preset")
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument("--recover", action="store_true",
                        help="submit a recovery job instead of a boot")
    submit.add_argument("--repeat", type=int, default=1,
                        help="submit this many identical jobs "
                             "(single-flight executes one)")
    submit.add_argument("--priority", type=int, default=0,
                        help="larger numbers dispatch first")
    submit.add_argument("--spec-file",
                        help="JSON file holding a list of job specs "
                             "(overrides the flag-built spec)")
    submit.add_argument("--verbose", action="store_true",
                        help="print one line per streamed result")
    submit.set_defaults(fn=_cmd_fleet_submit)

    status = fleet_sub.add_parser(
        "status", help="print a running service's status snapshot")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=7016)
    status.set_defaults(fn=_cmd_fleet_status)

    fleet_campaign = fleet_sub.add_parser(
        "campaign",
        help="run the 10k+-job fleet campaign against an in-process "
             "service (or, with --host, a running external one), "
             "byte-checked vs a serial replay")
    fleet_campaign.add_argument("--smoke", action="store_true",
                                help="CI-sized matrix")
    fleet_campaign.add_argument("--total-jobs", type=int, default=None,
                                help="tickets after repeat expansion "
                                     "(default 10080)")
    fleet_campaign.add_argument("--max-workers", type=int, default=None,
                                help="upper auto-scale bound "
                                     "(default: cpu count)")
    fleet_campaign.add_argument("--batch-size", type=int, default=16)
    fleet_campaign.add_argument("--journal", metavar="DIR", default=None,
                                help="journal directory for the "
                                     "in-process service")
    fleet_campaign.add_argument("--host", default=None,
                                help="drive a running fleet service "
                                     "instead of an in-process one")
    fleet_campaign.add_argument("--port", type=int, default=7016)
    fleet_campaign.add_argument("--chunk-cells", type=int, default=1,
                                metavar="N",
                                help="matrix cells per submission chunk "
                                     "in external mode (default 1)")
    fleet_campaign.add_argument("--retries", type=int, default=8,
                                help="client resubmission budget per "
                                     "submission (default 8)")
    fleet_campaign.add_argument("--backoff-base", type=float, default=0.1,
                                help="first-retry backoff ceiling, "
                                     "seconds (default 0.1)")
    fleet_campaign.add_argument("--retry-seed", type=int, default=None,
                                help="jitter seed for the backoff "
                                     "schedule (default: derived per "
                                     "client so a fleet decorrelates)")
    fleet_campaign.add_argument("--read-timeout", type=float, default=120.0,
                                help="per-event read timeout, seconds "
                                     "(default 120)")
    fleet_campaign.add_argument("--throughput-floor", type=float, default=0.0,
                                help="fail (exit 1) below this many "
                                     "jobs/min (0 = report only)")
    fleet_campaign.add_argument("--json", action="store_true",
                                help="emit the campaign record as JSON")
    fleet_campaign.set_defaults(fn=_cmd_fleet_campaign)

    generations = sub.add_parser(
        "generations",
        help="manage boot-entry generations and run OTA rollouts")
    gen_sub = generations.add_subparsers(dest="generations_command",
                                         required=True)
    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument("--store", required=True)
    store_flags.add_argument("--ref", default="main")

    gen_init = gen_sub.add_parser(
        "init", help="create an empty generation store")
    gen_init.add_argument("--store", required=True,
                          help="directory for the store")
    gen_init.set_defaults(fn=_cmd_generations_init)

    gen_commit = gen_sub.add_parser(
        "commit", parents=[store_flags, *boot_flags],
        help="commit a new generation on top of a ref's head")
    gen_commit.add_argument("--label", required=True,
                            help="human-readable release name")
    gen_commit.add_argument("--fault", default=None,
                            help="bake a fault preset into the image")
    gen_commit.add_argument("--fault-seed", type=int, default=0)
    gen_commit.add_argument("--max-boot-attempts", type=int, default=3)
    gen_commit.add_argument("--threshold", type=float, default=1.10,
                            help="boot-time regression gate vs the "
                                 "baseline prediction")
    gen_commit.add_argument("--notes", default="")
    gen_commit.set_defaults(fn=_cmd_generations_commit)

    gen_log = gen_sub.add_parser(
        "log", parents=[store_flags],
        help="walk a ref's history, newest first")
    gen_log.set_defaults(fn=_cmd_generations_log)

    gen_diff = gen_sub.add_parser(
        "diff", parents=[store_flags],
        help="field-level diff between two generations")
    gen_diff.add_argument("a", nargs="?", default=None,
                          help="old fingerprint/prefix (default: parent "
                               "of the new one)")
    gen_diff.add_argument("b", nargs="?", default=None,
                          help="new fingerprint/prefix (default: ref head)")
    gen_diff.set_defaults(fn=_cmd_generations_diff)

    gen_rollback = gen_sub.add_parser(
        "rollback", parents=[store_flags],
        help="pop a ref's head back to its parent")
    gen_rollback.set_defaults(fn=_cmd_generations_rollback)

    gen_rollout = gen_sub.add_parser(
        "rollout",
        help="stage a generation across the simulated fleet in waves, "
             "with health gating and automatic rollback")
    gen_rollout.add_argument("--store", default=None)
    gen_rollout.add_argument("--demo", choices=("clean", "regressed",
                                                "broken"),
                             help="run against a throwaway demo store "
                                  "instead of --store")
    gen_rollout.add_argument("--target", default="main",
                             help="ref or fingerprint to roll out")
    gen_rollout.add_argument("--baseline", default=None,
                             help="known-good ref/fingerprint (default: "
                                  "target's parent)")
    gen_rollout.add_argument("--devices", type=int, default=12)
    gen_rollout.add_argument("--waves", type=int, default=3)
    gen_rollout.add_argument("--seed", type=int, default=0,
                             help="update-fault seed")
    gen_rollout.add_argument("--flash-rate", type=float, default=0.0,
                             help="per-device interrupted-flash "
                                  "probability")
    gen_rollout.add_argument("--corrupt-rate", type=float, default=0.0,
                             help="per-device corrupt-image probability")
    gen_rollout.add_argument("--halt-threshold", type=float, default=0.5,
                             help="halt the campaign when a wave's "
                                  "rollback fraction reaches this")
    gen_rollout.add_argument("--jobs", type=int, default=1)
    gen_rollout.add_argument("--fleet", action="store_true",
                             help="run trial boots through the async "
                                  "fleet service instead of the serial "
                                  "runner")
    gen_rollout.add_argument("--json", action="store_true",
                             help="emit the campaign report as JSON")
    gen_rollout.add_argument("--expect-rollbacks", type=int, default=None,
                             help="fail (exit 1) unless exactly this "
                                  "many rollbacks occurred")
    gen_rollout.set_defaults(fn=_cmd_generations_rollout)

    chart = sub.add_parser("bootchart", parents=boot_flags,
                           help="boot and render the bootchart")
    chart.add_argument("--rows", type=int, default=30)
    chart.add_argument("--svg", help="also write an SVG to this file")
    chart.add_argument("--trace",
                       help="also write a Chrome/Perfetto trace JSON")
    chart.set_defaults(fn=_cmd_bootchart)

    verify = sub.add_parser("verify",
                            help="run the simulation verification harness")
    verify.add_argument("--smoke", action="store_true",
                        help="CI-sized subset (still >50 boots, but seconds)")
    verify.add_argument("--seed", type=int, default=0,
                        help="master seed for perturbations and oracle cases")
    verify.add_argument("--json", action="store_true",
                        help="emit the verification report as JSON")
    verify.add_argument("--only", metavar="GROUP", default=None,
                        help="run a single check group by name "
                             "(e.g. fleet-crash)")
    verify.set_defaults(fn=_cmd_verify)

    analyze = sub.add_parser("analyze", help="run the Service Analyzer")
    analyze.add_argument("--workload", default="tv")
    analyze.set_defaults(fn=_cmd_analyze)

    workloads = sub.add_parser("workloads", help="list available workloads")
    workloads.set_defaults(fn=_cmd_workloads)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A bad name or value (an unknown workload, feature, preset or ref, a
    count below 1) exits 1 with one line naming it, not a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, GenerationError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
