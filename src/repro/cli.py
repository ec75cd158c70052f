"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``boot [--workload NAME] [--bb | --no-bb | --features a,b,c] [--cores N]
  [--faults PRESET] [--recover] [--branch]`` — run one simulated cold
  boot and print the stage breakdown; exit 0 clean, 3
  degraded/recovered-degraded, 1 unrecoverable; ``--branch`` routes the
  boot through the checkpoint/fork sweep runner (identical output),
* ``recover [PRESET] [--seed N] [--smoke] [--json] [--branch]`` — run
  the boot-recovery escalation ladder: one supervised run for a named
  fault preset, or the recovery matrix (``--smoke`` for the CI subset),
* ``experiment <id> | all [--jobs N] [--cache-dir DIR] [--branch]`` —
  run an evaluation experiment and print the regenerated artifact
  (``experiment list`` shows the ids); sweeps are deduplicated, cached,
  optionally checkpoint/fork-branched, and fanned out over ``N`` worker
  processes,
* ``faults [PRESET] [--seed N] [--no-bb] [--list-presets]`` — boot under
  a named fault preset and print the (possibly degraded) outcome,
* ``bench [--jobs N] [--out FILE] [--branch-floor X] [--fleet-floor X]``
  — engine/cache microbenchmarks + checkpoint/fork benchmark +
  serial-vs-parallel sweep benchmark + fleet-campaign benchmark,
  recorded to ``BENCH_runner.json``; nonzero exit if branched/fleet
  results are not identical to from-scratch runs or a speedup/throughput
  lands below its committed floor,
* ``fleet serve|submit|status|campaign`` — the long-running async boot
  service (:mod:`repro.fleet`): ``serve`` starts the TCP/JSON-lines
  service (SIGTERM drains gracefully), ``submit`` streams jobs to a
  running service, ``status`` prints its snapshot, and ``campaign``
  runs the 10k+-job fleet campaign against an in-process service with
  the fleet-vs-serial byte-identity check and a ``--throughput-floor``
  gate,
* ``bootchart [--workload NAME] [--bb] [--cores N] [--svg FILE]`` — boot
  and render the bootchart (ASCII to stdout, optionally SVG to a file),
* ``verify [--smoke] [--seed N] [--json]`` — run the verification
  harness: invariant-monitored boots, schedule-perturbation fuzzing and
  analytic oracles; nonzero exit on any violation,
* ``analyze [--workload NAME]`` — run the Service Analyzer,
* ``workloads`` — list the available workloads.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Sequence

from repro.analysis.report import format_table
from repro.bootchart import BootChart, render_ascii, render_svg
from repro.core import BBConfig, BootSimulation
from repro.graph.analyzer import ServiceAnalyzer
from repro.workloads import WORKLOAD_FACTORIES
from repro.workloads.base import Workload

#: CLI name -> workload factory (the shared registry; the fleet wire
#: protocol resolves the same names).
WORKLOADS: dict[str, Callable[[], Workload]] = WORKLOAD_FACTORIES


def _resolve_jobs(value: int | None) -> int:
    """Shared ``--jobs``/worker-count validation for every subcommand.

    ``None`` defaults to the CPU count; anything below 1 exits with the
    scheduler layer's error message instead of a silent clamp.
    """
    from repro.errors import ConfigurationError
    from repro.runner.schedule import resolve_worker_count

    try:
        return resolve_worker_count(value)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))


def _experiments() -> dict[str, tuple]:
    from repro.experiments import (ablations, background, boot_modes,
                                   design_space, fault_matrix,
                                   fig1_boot_sequence, fig2_dependency_graph,
                                   fig3_complexity, fig5_rcu_bootchart,
                                   fig6_breakdown, fig7_bbgroup_dbus,
                                   generation_rollout, kernel_opt,
                                   portability, prestart, recovery_matrix,
                                   scaling, socket_activation, tradeoff,
                                   variance)
    return {
        "portability": (portability.run, portability.render),
        "scaling": (scaling.run, scaling.render),
        "boot-modes": (boot_modes.run, boot_modes.render),
        "sockets": (socket_activation.run, socket_activation.render),
        "fig1": (fig1_boot_sequence.run, fig1_boot_sequence.render),
        "fig2": (fig2_dependency_graph.run, fig2_dependency_graph.render),
        "fig3": (fig3_complexity.run, fig3_complexity.render),
        "fig5": (fig5_rcu_bootchart.run, fig5_rcu_bootchart.render),
        "fig6": (fig6_breakdown.run, fig6_breakdown.render),
        "fig7": (fig7_bbgroup_dbus.run, fig7_bbgroup_dbus.render),
        "tradeoff": (tradeoff.run, tradeoff.render),
        "kernel-opt": (kernel_opt.run, kernel_opt.render),
        "background": (background.run, background.render),
        "variance": (variance.run, variance.render),
        "prestart": (prestart.run, prestart.render),
        "ablations": (ablations.run, ablations.render),
        "fault-matrix": (fault_matrix.run, fault_matrix.render),
        "recovery-matrix": (recovery_matrix.run, recovery_matrix.render),
        "design-space": (design_space.run, design_space.render),
        "generation-rollout": (generation_rollout.run,
                               generation_rollout.render),
    }


def _resolve_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")


def _resolve_config(args: argparse.Namespace) -> BBConfig:
    if getattr(args, "features", None):
        config = BBConfig.none()
        for feature in args.features.split(","):
            config = config.with_feature(feature.strip(), True)
        return config
    if getattr(args, "no_bb", False):
        return BBConfig.none()
    return BBConfig.full()


def _cmd_boot(args: argparse.Namespace) -> int:
    """Boot once (optionally faulted/supervised).

    Exit codes: 0 — clean boot; 3 — boot completed degraded or recovery
    converged with losses; 1 — the boot could not reach completion.
    """
    from repro.core.degraded import DegradedBootError

    workload = _resolve_workload(args.workload)
    config = _resolve_config(args)
    plan = None
    if args.faults:
        from repro.faults import build_preset
        try:
            plan = build_preset(args.faults, seed=args.seed)
        except Exception as exc:
            raise SystemExit(str(exc))
    if args.recover:
        return _recover_once(workload, plan, label=args.faults or "healthy",
                             seed=args.seed, base_bb=config,
                             as_json=getattr(args, "json", False))
    if getattr(args, "branch", False):
        from repro.core.degraded import DegradedBootReport
        from repro.runner import SimJob, SweepRunner

        job = SimJob.boot(WORKLOADS[args.workload], bb=config,
                          cores=args.cores, fault_plan=plan)
        with SweepRunner(jobs=1, branch=True, min_branch_group=2) as runner:
            report = runner.run_one(job)
        if isinstance(report, DegradedBootReport):
            print(report.summary())
            return 1
    else:
        simulation = BootSimulation(workload, config, cores=args.cores,
                                    fault_plan=plan)
        try:
            report = simulation.run()
        except DegradedBootError as exc:
            print(exc.report.summary())
            return 1
    if getattr(args, "json", False):
        from repro.analysis.export import report_to_json
        print(report_to_json(report))
        return 3 if report.degraded else 0
    features = ", ".join(report.features) or "none (conventional boot)"
    print(f"workload: {report.workload}")
    print(f"BB features: {features}")
    rows = [
        ("(a) kernel initialization", f"{report.stages.kernel_ns / 1e6:.1f} ms"),
        ("(b) init initialization", f"{report.stages.init_init_ns / 1e6:.1f} ms"),
        ("(c)+(d) services & applications",
         f"{report.stages.services_ns / 1e6:.1f} ms"),
        ("boot completion", f"{report.boot_complete_ms:.1f} ms"),
        ("full quiescence (deferred work done)",
         f"{report.all_done_ns / 1e6:.1f} ms"),
    ]
    print(format_table(["stage", "time"], rows))
    if report.bb_group:
        print(f"BB Group: {', '.join(sorted(report.bb_group))}")
    if report.degraded:
        print("boot completed DEGRADED: "
              + ", ".join(sorted({*report.failed_units,
                                  *report.unsettled_units,
                                  *report.deferred_failed})))
        return 3
    return 0


def _recover_once(workload: Workload, plan, label: str, seed: int,
                  base_bb: BBConfig, as_json: bool) -> int:
    """Run one supervised recovery and map its outcome to an exit code."""
    from repro.recovery import BootSupervisor, RecoveryPolicy
    from repro.verify import InvariantMonitor

    policy = RecoveryPolicy(label=label, seed=seed, base_bb=base_bb)
    outcome = BootSupervisor(workload, policy, fault_plan=plan,
                             monitor=InvariantMonitor()).run()
    if as_json:
        if outcome.report is not None:
            from repro.analysis.export import report_to_json
            print(report_to_json(outcome.report))
        else:
            import json
            from repro.analysis.schema import validate_recovery_dict
            document = outcome.to_dict()
            validate_recovery_dict(document)
            print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(outcome.summary())
    return outcome.exit_code


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache, SweepRunner

    jobs = _resolve_jobs(args.jobs)  # validate even on the single-run path
    if args.preset is not None:
        from repro.faults import build_preset

        try:
            plan = build_preset(args.preset, seed=args.seed)
        except Exception as exc:
            raise SystemExit(str(exc))
        workload = _resolve_workload(args.workload)
        return _recover_once(workload, plan, label=args.preset,
                             seed=args.seed, base_bb=_resolve_config(args),
                             as_json=args.json)
    from repro.experiments import recovery_matrix

    with SweepRunner(jobs=jobs,
                     cache=ResultCache(args.cache_dir),
                     branch=getattr(args, "branch", False)) as runner:
        result = recovery_matrix.run(runner=runner, smoke=args.smoke)
    print(recovery_matrix.render(result))
    return 0 if result.all_converged else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache, SweepRunner

    experiments = _experiments()
    if args.id == "list":
        for name in experiments:
            print(name)
        return 0
    ids = list(experiments) if args.id == "all" else [args.id]
    for exp_id in ids:
        if exp_id not in experiments:
            raise SystemExit(f"unknown experiment {exp_id!r}; "
                             f"try 'experiment list'")
    if args.cache_dir is not None:
        import os
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"cannot use cache dir {args.cache_dir!r}: {exc}")
    # One shared runner across the whole invocation, so 'experiment all'
    # never boots the same (workload, config, cores) twice.
    with SweepRunner(jobs=_resolve_jobs(args.jobs),
                     cache=ResultCache(args.cache_dir),
                     branch=getattr(args, "branch", False)) as runner:
        for exp_id in ids:
            run, render = experiments[exp_id]
            params = inspect.signature(run).parameters
            kwargs = {}
            if "runner" in params:
                kwargs["runner"] = runner
            if getattr(args, "smoke", False) and "smoke" in params:
                kwargs["smoke"] = True
            print(render(run(**kwargs)))
            print()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.degraded import DegradedBootError
    from repro.faults import PRESETS, build_preset

    if args.list_presets or args.preset is None:
        for name, builder in PRESETS.items():
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"{name:16s} {doc}")
        return 0
    try:
        plan = build_preset(args.preset, seed=args.seed)
    except Exception as exc:
        raise SystemExit(str(exc))
    workload = _resolve_workload(args.workload)
    config = _resolve_config(args)
    print(plan.describe())
    simulation = BootSimulation(workload, config, cores=args.cores,
                                fault_plan=plan)
    try:
        report = simulation.run()
    except DegradedBootError as exc:
        print(exc.report.summary())
        tally = exc.report.injected_faults
        if tally:
            print("injected: " + ", ".join(
                f"{k}={v}" for k, v in sorted(tally.items()) if v))
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
    tally = {k: v for k, v in sorted(report.injected_faults.items()) if v}
    if tally:
        print("injected: " + ", ".join(f"{k}={v}" for k, v in tally.items()))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Solve a boot analytically — no event loop, same numbers.

    Exit codes: 0 — predicted; 1 — the configuration is outside the
    predictor's model (e.g. the single-core priority-inversion livelock).
    """
    from repro.analysis.predict import predict
    from repro.errors import AnalysisError

    workload = _resolve_workload(args.workload)
    config = _resolve_config(args)
    try:
        prediction = predict(workload, config, cores=args.cores)
    except AnalysisError as exc:
        print(f"prediction failed: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        import json
        document = {
            "workload": prediction.workload,
            "features": list(prediction.features),
            "cores": prediction.cores,
            "boot_complete_ns": prediction.boot_complete_ns,
            "kernel_ns": prediction.kernel_ns,
            "init_init_ns": prediction.init_init_ns,
            "load_units_ns": prediction.load_units_ns,
            "submodules_ns": prediction.submodules_ns,
            "services_ns": prediction.services_ns,
            "bb_group": sorted(prediction.bb_group),
            "unit_started_ns": dict(sorted(
                prediction.unit_started_ns.items())),
            "unit_ready_ns": dict(sorted(prediction.unit_ready_ns.items())),
        }
        print(json.dumps(document, indent=2))
        return 0
    features = ", ".join(prediction.features) or "none (conventional boot)"
    print(f"workload: {prediction.workload} (predicted, no simulation)")
    print(f"BB features: {features}")
    print(f"cores: {prediction.cores}")
    rows = [
        ("(a) kernel initialization", f"{prediction.kernel_ns / 1e6:.1f} ms"),
        ("(b) init initialization",
         f"{prediction.init_init_ns / 1e6:.1f} ms"),
        ("(c)+(d) services & applications",
         f"{prediction.services_ns / 1e6:.1f} ms"),
        ("boot completion", f"{prediction.boot_complete_ms:.1f} ms"),
    ]
    print(format_table(["stage", "predicted time"], rows))
    if prediction.bb_group:
        print(f"BB Group: {', '.join(sorted(prediction.bb_group))}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner.bench import build_record, write_record

    record = build_record(jobs=_resolve_jobs(args.jobs), events=args.events,
                          skip_sweep=args.skip_sweep,
                          cache_dir=args.cache_dir,
                          skip_checkpoint=args.skip_checkpoint,
                          checkpoint_cells=args.checkpoint_cells,
                          checkpoint_backend=args.checkpoint_backend,
                          skip_predict=args.skip_predict,
                          skip_fleet=args.skip_fleet)
    write_record(record, args.out)
    print(f"event queue: {record['event_queue']['events_per_sec']:,.0f} "
          f"events/s")
    print(f"result cache: {record['cache']['roundtrips_per_sec']:,.0f} "
          f"roundtrips/s")
    failed = False
    if "checkpoint" in record:
        checkpoint = record["checkpoint"]
        print(f"checkpoint: {checkpoint['cells']}-cell matrix, scratch "
              f"{checkpoint['scratch_wall_s']:.1f} s, branched "
              f"({checkpoint['backend']}) "
              f"{checkpoint['branched_wall_s']:.1f} s "
              f"(speedup {checkpoint['speedup']:.2f}x, outputs identical: "
              f"{checkpoint['outputs_identical']})")
        if not checkpoint["outputs_identical"]:
            print("FAIL: branched results differ from from-scratch runs")
            failed = True
        if args.branch_floor and checkpoint["speedup"] < args.branch_floor:
            print(f"FAIL: checkpoint speedup {checkpoint['speedup']:.2f}x "
                  f"below the committed floor {args.branch_floor:.2f}x")
            failed = True
    if "design_space" in record:
        sweep = record["design_space"]
        print(f"design space: {sweep['cells']} cells, pre-filtered "
              f"{sweep['prefilter_wall_s']:.1f} s "
              f"({sweep['des_boots']} DES boots), exhaustive DES "
              f"{sweep['exhaustive_wall_s']:.1f} s (speedup "
              f"{sweep['speedup']:.2f}x, frontier identical: "
              f"{sweep['frontier_identical']})")
        if not sweep["frontier_identical"]:
            print("FAIL: analytic frontier differs from the exhaustive "
                  "DES frontier")
            failed = True
        if args.predict_floor and sweep["speedup"] < args.predict_floor:
            print(f"FAIL: design-space speedup {sweep['speedup']:.2f}x "
                  f"below the committed floor {args.predict_floor:.2f}x")
            failed = True
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
        if not fleet["outputs_identical"]:
            print("FAIL: fleet results differ from the serial replay")
            failed = True
        if args.fleet_floor and fleet["jobs_per_min"] < args.fleet_floor:
            print(f"FAIL: fleet throughput {fleet['jobs_per_min']:,.0f} "
                  f"jobs/min below the committed floor "
                  f"{args.fleet_floor:,.0f}")
            failed = True
    print(f"record written to {args.out}")
    return 1 if failed else 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Run the fleet service until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.errors import ConfigurationError
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
        import json

        from repro.faults.fleet import FleetFaultPlan

        try:
            document = json.loads(args.chaos)
        except ValueError as exc:
            raise SystemExit(f"--chaos is not valid JSON: {exc}")
        try:
            chaos = FleetFaultPlan.from_dict(document)
        except ConfigurationError as exc:
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
    import json

    from repro.errors import FleetError
    from repro.fleet.client import submit_sync

    if args.spec_file:
        with open(args.spec_file) as handle:
            specs = json.load(handle)
        if not isinstance(specs, list) or not specs:
            raise SystemExit(f"{args.spec_file}: expected a non-empty "
                             f"JSON list of job specs")
    else:
        spec: dict = {"kind": "recover" if args.recover else "boot",
                      "workload": args.workload, "repeat": args.repeat}
        if args.features:
            spec["bb"] = [f.strip() for f in args.features.split(",")]
        elif args.no_bb:
            spec["bb"] = "none"
        if args.cores is not None:
            spec["cores"] = args.cores
        if args.faults:
            spec["fault"] = {"preset": args.faults, "seed": args.seed}
        specs = [spec]
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
    import json

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
        import json
        document = {key: getattr(result, key) for key in (
            "total_jobs", "unique_jobs", "executed", "cache_hits",
            "coalesced", "wall_s", "jobs_per_min", "serial_wall_s",
            "peak_workers", "scaled_up", "scaled_down", "identical",
            "mismatches", "smoke", "provenance", "resumed_jobs",
            "client_retries", "requeued", "quarantined")}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(campaign.render(result))
    failed = False
    if not result.identical:
        print("FAIL: fleet results differ from the serial replay")
        failed = True
    if (args.throughput_floor
            and result.jobs_per_min < args.throughput_floor):
        print(f"FAIL: fleet throughput {result.jobs_per_min:,.0f} jobs/min "
              f"below the committed floor {args.throughput_floor:,.0f}")
        failed = True
    return 1 if failed else 0


def _open_generation_store(path: str):
    from repro.generations import GenerationStore

    store = GenerationStore(path)
    if not store.initialized:
        raise SystemExit(f"no generation store at {path} "
                         f"(run 'repro generations init' first)")
    return store


def _cmd_generations_init(args: argparse.Namespace) -> int:
    from repro.errors import GenerationError
    from repro.generations import GenerationStore

    try:
        GenerationStore.init(args.store)
    except GenerationError as exc:
        raise SystemExit(str(exc))
    print(f"initialized empty generation store at {args.store}")
    return 0


def _cmd_generations_commit(args: argparse.Namespace) -> int:
    from repro.errors import GenerationError
    from repro.generations import Generation

    store = _open_generation_store(args.store)
    if args.features:
        features = tuple(f.strip() for f in args.features.split(","))
    elif args.no_bb:
        features = ()
    else:
        features = tuple(BBConfig.full().enabled_features())
    fault = ((args.fault, args.fault_seed) if args.fault else None)
    try:
        generation = Generation(
            label=args.label, workload=args.workload, features=features,
            cores=args.cores, fault=fault,
            max_boot_attempts=args.max_boot_attempts,
            regression_threshold=args.threshold,
            parent=store.head(args.ref), notes=args.notes)
        fingerprint = store.commit(generation, ref=args.ref)
    except GenerationError as exc:
        raise SystemExit(str(exc))
    print(f"[{args.ref} {fingerprint[:12]}] {generation.label}")
    return 0


def _cmd_generations_log(args: argparse.Namespace) -> int:
    from repro.errors import GenerationError

    store = _open_generation_store(args.store)
    count = 0
    try:
        for generation in store.log(args.ref):
            fault = (f" fault={generation.fault[0]}#{generation.fault[1]}"
                     if generation.fault else "")
            features = ",".join(generation.features) or "none"
            print(f"{generation.fingerprint()[:12]} {generation.label:12s} "
                  f"{generation.workload}/{features}{fault}"
                  + (f"  # {generation.notes}" if generation.notes else ""))
            count += 1
    except GenerationError as exc:
        raise SystemExit(str(exc))
    if not count:
        print(f"ref {args.ref!r} has no generations")
    return 0


def _cmd_generations_diff(args: argparse.Namespace) -> int:
    from repro.errors import GenerationError
    from repro.generations import diff_generations

    store = _open_generation_store(args.store)
    try:
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
    except GenerationError as exc:
        raise SystemExit(str(exc))
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
    from repro.errors import GenerationError

    store = _open_generation_store(args.store)
    try:
        popped = store.rollback(args.ref)
    except GenerationError as exc:
        raise SystemExit(str(exc))
    head = store.head(args.ref)
    target = f"{head[:12]}" if head else "(unborn)"
    print(f"rolled {args.ref!r} back from {popped.label} "
          f"({popped.fingerprint()[:12]}) to {target}")
    return 0


def _cmd_generations_rollout(args: argparse.Namespace) -> int:
    import tempfile

    from repro.errors import GenerationError
    from repro.generations import demo_store, render_rollout, run_rollout

    jobs = _resolve_jobs(args.jobs)

    def _run(store) -> dict:
        return run_rollout(
            store, target=args.target, baseline=args.baseline,
            devices=args.devices, waves=args.waves,
            update_seed=args.seed, flash_rate=args.flash_rate,
            corrupt_rate=args.corrupt_rate,
            halt_threshold=args.halt_threshold, jobs=jobs,
            use_fleet=args.fleet)

    try:
        if args.demo is not None:
            with tempfile.TemporaryDirectory() as tmp:
                report = _run(demo_store(tmp, args.demo))
        else:
            if args.store is None:
                raise SystemExit("name a store with --store, or use "
                                 "--demo clean|regressed|broken")
            report = _run(_open_generation_store(args.store))
    except GenerationError as exc:
        raise SystemExit(str(exc))
    if args.json:
        import json
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
    workload = _resolve_workload(args.workload)
    config = _resolve_config(args)
    simulation = BootSimulation(workload, config, cores=args.cores)
    report = simulation.run()
    chart = BootChart.from_report(report)
    print(render_ascii(chart, max_rows=args.rows))
    if args.svg:
        with open(args.svg, "w") as handle:
            handle.write(render_svg(chart))
        print(f"SVG written to {args.svg}")
    if args.trace:
        from repro.analysis.chrome_trace import tracer_to_chrome_json
        with open(args.trace, "w") as handle:
            handle.write(tracer_to_chrome_json(simulation.sim.tracer))
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
        import json
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BB (Booting Booster, EuroSys 2016) boot-stack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    boot = sub.add_parser("boot", help="run one simulated cold boot")
    boot.add_argument("--workload", default="tv", help="workload name")
    boot.add_argument("--no-bb", action="store_true",
                      help="conventional boot (default is full BB)")
    boot.add_argument("--features", help="comma-separated BB feature list")
    boot.add_argument("--cores", type=int, default=None,
                      help="override the platform core count")
    boot.add_argument("--json", action="store_true",
                      help="emit the full boot report as JSON")
    boot.add_argument("--faults", metavar="PRESET",
                      help="boot under a named fault preset")
    boot.add_argument("--seed", type=int, default=1,
                      help="fault/recovery seed (default 1)")
    boot.add_argument("--recover", action="store_true",
                      help="supervise the boot with the recovery ladder; "
                           "exit 0 clean, 3 recovered-degraded, "
                           "1 unrecoverable")
    boot.add_argument("--branch", action=argparse.BooleanOptionalAction,
                      default=False,
                      help="route the boot through the checkpoint/fork "
                           "sweep runner (identical output)")
    boot.set_defaults(fn=_cmd_boot)

    recover = sub.add_parser(
        "recover", help="run the boot-recovery escalation ladder")
    recover.add_argument("preset", nargs="?",
                         help="fault preset for a single supervised run "
                              "(omit to sweep the recovery matrix)")
    recover.add_argument("--seed", type=int, default=1,
                         help="fault/recovery seed (default 1)")
    recover.add_argument("--workload", default="tv")
    recover.add_argument("--no-bb", action="store_true",
                         help="base the ladder on a conventional boot")
    recover.add_argument("--features",
                         help="comma-separated BB feature list")
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

    faults = sub.add_parser("faults",
                            help="boot under a named fault preset")
    faults.add_argument("preset", nargs="?",
                        help="preset name (see --list-presets)")
    faults.add_argument("--list-presets", action="store_true",
                        help="list the available fault presets")
    faults.add_argument("--seed", type=int, default=1,
                        help="fault plan seed (default 1)")
    faults.add_argument("--workload", default="tv")
    faults.add_argument("--no-bb", action="store_true",
                        help="conventional boot (default is full BB)")
    faults.add_argument("--features", help="comma-separated BB feature list")
    faults.add_argument("--cores", type=int, default=None,
                        help="override the platform core count")
    faults.set_defaults(fn=_cmd_faults)

    predict = sub.add_parser(
        "predict",
        help="solve a boot analytically (closed form, no event loop)")
    predict.add_argument("--workload", default="tv", help="workload name")
    predict.add_argument("--no-bb", action="store_true",
                         help="conventional boot (default is full BB)")
    predict.add_argument("--features",
                         help="comma-separated BB feature list")
    predict.add_argument("--cores", type=int, default=None,
                         help="override the platform core count")
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
    bench.add_argument("--checkpoint-backend", default=None,
                       choices=("fork", "replay"),
                       help="branch backend for the checkpoint benchmark "
                            "(default: fork where available)")
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
        "submit", help="submit jobs to a running fleet service")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7016)
    submit.add_argument("--workload", default="tv")
    submit.add_argument("--no-bb", action="store_true",
                        help="conventional boot (default is full BB)")
    submit.add_argument("--features",
                        help="comma-separated BB feature list")
    submit.add_argument("--cores", type=int, default=None)
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

    gen_init = gen_sub.add_parser(
        "init", help="create an empty generation store")
    gen_init.add_argument("--store", required=True,
                          help="directory for the store")
    gen_init.set_defaults(fn=_cmd_generations_init)

    gen_commit = gen_sub.add_parser(
        "commit", help="commit a new generation on top of a ref's head")
    gen_commit.add_argument("--store", required=True)
    gen_commit.add_argument("--ref", default="main")
    gen_commit.add_argument("--label", required=True,
                            help="human-readable release name")
    gen_commit.add_argument("--workload", default="tv",
                            choices=sorted(WORKLOAD_FACTORIES))
    gen_commit.add_argument("--features",
                            help="comma-separated BB feature names")
    gen_commit.add_argument("--no-bb", action="store_true",
                            help="ship with every BB feature disabled")
    gen_commit.add_argument("--cores", type=int, default=None)
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
        "log", help="walk a ref's history, newest first")
    gen_log.add_argument("--store", required=True)
    gen_log.add_argument("--ref", default="main")
    gen_log.set_defaults(fn=_cmd_generations_log)

    gen_diff = gen_sub.add_parser(
        "diff", help="field-level diff between two generations")
    gen_diff.add_argument("--store", required=True)
    gen_diff.add_argument("--ref", default="main")
    gen_diff.add_argument("a", nargs="?", default=None,
                          help="old fingerprint/prefix (default: parent "
                               "of the new one)")
    gen_diff.add_argument("b", nargs="?", default=None,
                          help="new fingerprint/prefix (default: ref head)")
    gen_diff.set_defaults(fn=_cmd_generations_diff)

    gen_rollback = gen_sub.add_parser(
        "rollback", help="pop a ref's head back to its parent")
    gen_rollback.add_argument("--store", required=True)
    gen_rollback.add_argument("--ref", default="main")
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

    chart = sub.add_parser("bootchart", help="boot and render the bootchart")
    chart.add_argument("--workload", default="tv")
    chart.add_argument("--no-bb", action="store_true")
    chart.add_argument("--features")
    chart.add_argument("--rows", type=int, default=30)
    chart.add_argument("--cores", type=int, default=None,
                       help="override the platform core count")
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
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
