"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import WORKLOADS, build_parser, main

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def test_workloads_command_lists_all(capsys):
    code, output = run_cli(capsys, "workloads")
    assert code == 0
    for name in WORKLOADS:
        assert name in output


def test_boot_default_is_full_bb(capsys):
    code, output = run_cli(capsys, "boot", "--workload", "camera")
    assert code == 0
    assert "BB Group" in output
    assert "boot completion" in output


def test_boot_no_bb(capsys):
    code, output = run_cli(capsys, "boot", "--workload", "camera", "--no-bb")
    assert code == 0
    assert "none (conventional boot)" in output


def test_boot_feature_list(capsys):
    code, output = run_cli(capsys, "boot", "--workload", "camera",
                           "--features", "rcu_booster,preparser")
    assert code == 0
    assert "rcu_booster" in output
    assert "preparser" in output


def test_boot_unknown_workload_exits(capsys):
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["boot", "--workload", "toaster"])


def test_boot_unknown_feature_raises(capsys):
    with pytest.raises(SystemExit, match="unknown BB feature"):
        main(["boot", "--workload", "camera", "--features", "warp"])


@pytest.mark.parametrize("argv, match", [
    (["boot", "--features", "warp"], "unknown BB feature 'warp'"),
    (["faults", "flaky-services", "--features", "warp"],
     "unknown BB feature 'warp'"),
    (["predict", "--features", "warp"], "unknown BB feature 'warp'"),
    (["bootchart", "--features", "warp"], "unknown BB feature 'warp'"),
    (["recover", "transient-storage-burst", "--features", "warp"],
     "unknown BB feature 'warp'"),
    (["boot", "--cores", "0"], "'cores' must be an int >= 1, got 0"),
    (["predict", "--cores", "0"], "'cores' must be an int >= 1, got 0"),
    (["boot", "--faults", "warp-core-breach"],
     "unknown fault preset 'warp-core-breach'"),
    (["analyze", "--workload", "toaster"], "unknown workload 'toaster'"),
])
def test_bad_boot_input_exits_with_one_line(argv, match, capsys):
    with pytest.raises(SystemExit, match=match) as excinfo:
        main(argv)
    assert "\n" not in str(excinfo.value.code)
    assert capsys.readouterr().out == ""


def test_experiment_list(capsys):
    code, output = run_cli(capsys, "experiment", "list")
    assert code == 0
    for exp_id in ("fig1", "fig6", "fig7", "tradeoff", "variance"):
        assert exp_id in output


def test_experiment_runs_one(capsys):
    code, output = run_cli(capsys, "experiment", "fig3")
    assert code == 0
    assert "Figure 3" in output


def test_experiment_unknown_exits(capsys):
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["experiment", "fig99"])


def test_bootchart_ascii_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "chart.svg"
    code, output = run_cli(capsys, "bootchart", "--workload", "camera",
                           "--rows", "5", "--svg", str(svg_path))
    assert code == 0
    assert "#" in output
    assert svg_path.read_text().startswith("<svg")


def test_analyze_clean_workload_returns_zero(capsys):
    code, output = run_cli(capsys, "analyze", "--workload", "tv")
    assert code == 0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------- recovery

def test_recover_preset_exits_degraded(capsys):
    code, output = run_cli(capsys, "recover", "transient-storage-burst")
    assert code == 3
    assert "restart" in output


def test_recover_unknown_preset_exits(capsys):
    with pytest.raises(SystemExit, match="unknown fault preset"):
        main(["recover", "warp-core-breach"])


def test_recover_json_is_valid_report(capsys):
    import json

    from repro.analysis.schema import validate_report_dict

    code, output = run_cli(capsys, "recover", "transient-storage-burst",
                           "--json")
    assert code == 3
    document = json.loads(output)
    validate_report_dict(document)
    assert document["recovery"]["converged"] is True


def test_wire_recover_job_runs_the_cli_recovery(capsys, monkeypatch):
    # One recover spec, two front doors: the fleet wire's job and
    # ``repro recover`` must run the same policy and so the same ladder.
    from repro.fleet.protocol import job_from_spec
    from repro.recovery import BootSupervisor
    from repro.runner import execute_job

    outcomes = []
    real_run = BootSupervisor.run

    def capture(self):
        outcomes.append(real_run(self))
        return outcomes[-1]

    monkeypatch.setattr(BootSupervisor, "run", capture)
    run_cli(capsys, "recover", "flaky-services", "--workload", "tv",
            "--seed", "1")
    job, _ = job_from_spec({"kind": "recover", "workload": "tv",
                            "fault": {"preset": "flaky-services",
                                      "seed": 1}})
    execute_job(job)
    cli_outcome, wire_outcome = outcomes
    assert wire_outcome.to_dict() == cli_outcome.to_dict()
    assert cli_outcome.to_dict()["policy"] == "flaky-services"


def test_recover_smoke_matrix_converges(capsys):
    code, output = run_cli(capsys, "recover", "--smoke")
    assert code == 0
    assert "every fault preset converges" in output


def test_boot_with_recover_flag_exits_degraded(capsys):
    code, output = run_cli(capsys, "boot", "--faults",
                           "transient-storage-burst", "--recover")
    assert code == 3
    assert "recovered" in output or "restart" in output


def test_boot_faulted_unsupervised_can_fail(capsys):
    code, output = run_cli(capsys, "boot", "--faults", "broken-tuner")
    assert code in (1, 3)


def test_boot_clean_still_exits_zero(capsys):
    code, _ = run_cli(capsys, "boot", "--workload", "camera")
    assert code == 0


def test_predict_matches_boot_completion(capsys):
    code, predicted = run_cli(capsys, "predict", "--workload", "camera")
    assert code == 0
    assert "predicted, no simulation" in predicted
    code, booted = run_cli(capsys, "boot", "--workload", "camera")
    assert code == 0
    completion = [line for line in predicted.splitlines()
                  if line.startswith("boot completion")]
    assert completion and completion[0].split()[-2:] == \
        [line for line in booted.splitlines()
         if line.startswith("boot completion")][0].split()[-2:]


def test_predict_json_has_per_unit_times(capsys):
    import json
    code, output = run_cli(capsys, "predict", "--workload", "camera",
                           "--no-bb", "--json")
    assert code == 0
    document = json.loads(output)
    assert document["boot_complete_ns"] > 0
    assert document["unit_ready_ns"]


def test_predict_livelock_configuration_exits_nonzero(capsys):
    code = main(["predict", "--features", "group_priority_boost",
                 "--cores", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "livelock" in captured.err
    # The horizon is the services phase's, not the absolute clock's.
    assert "after 120 simulated seconds of services phase" in captured.err


def test_experiment_design_space_smoke(capsys):
    code, output = run_cli(capsys, "experiment", "design-space", "--smoke")
    assert code == 0
    assert "ranked analytically" in output
    assert "Design space — tv" in output


# ------------------------------------------------------------------ faults

def test_faults_list_presets_names_every_preset(capsys):
    from repro.faults import PRESETS

    code, output = run_cli(capsys, "faults", "--list-presets")
    assert code == 0
    assert [line.split()[0] for line in output.splitlines()] == list(PRESETS)


def test_faults_preset_run_reports_the_degraded_boot(capsys):
    code, output = run_cli(capsys, "faults", "flaky-services")
    assert code == 0
    lines = output.splitlines()
    assert lines[0].startswith("flaky-services(seed=1")
    assert lines[1].startswith("boot completed degraded at")
    assert lines[-1].startswith("injected: ")


def test_faults_unknown_preset_exits():
    with pytest.raises(SystemExit, match="unknown fault preset"):
        main(["faults", "warp-core-breach"])


# ------------------------------------------------------------------- bench

def test_bench_floor_failure_exits_nonzero(tmp_path, capsys):
    # No branched matrix runs 1e9x faster than from scratch; the floor
    # gate must trip while the identity gate holds.
    out = tmp_path / "bench.json"
    code, output = run_cli(capsys, "bench", "--skip-sweep", "--skip-predict",
                           "--skip-fleet", "--events", "1000",
                           "--checkpoint-cells", "4", "--branch-floor", "1e9",
                           "--out", str(out))
    assert code == 1
    assert "FAIL: checkpoint speedup" in output
    assert "branched results differ" not in output
    record = json.loads(out.read_text())
    assert record["checkpoint"]["outputs_identical"] is True


# ------------------------------------------------------------ import cost

def _modules_loaded_by(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env,
                            check=True, timeout=120)
    return result.stdout.split()


@pytest.mark.slow
def test_boot_imports_no_runner_fleet_or_experiment_module():
    loaded = _modules_loaded_by(
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['boot', '--workload', 'camera']) == 0\n"
        "print(' '.join(sys.modules))\n")
    assert "repro.core" in loaded
    heavy = [name for name in loaded
             if name in ("repro.fleet", "repro.runner")
             or name.startswith(("repro.fleet.", "repro.runner.",
                                 "repro.experiments."))]
    assert heavy == []


@pytest.mark.slow
def test_one_experiment_module_imports_no_other():
    loaded = _modules_loaded_by(
        "import sys\n"
        "import repro.experiments.design_space\n"
        "print(' '.join(sys.modules))\n")
    experiments = [name for name in loaded
                   if name.startswith("repro.experiments.")]
    assert experiments == ["repro.experiments.design_space"]


# ------------------------------------------------------------------- fleet

@pytest.mark.parametrize("argv", [
    ["experiment", "fig3", "--jobs", "0"],
    ["recover", "--smoke", "--jobs", "0"],
    ["recover", "transient-storage-burst", "--jobs", "-3"],
    ["fleet", "campaign", "--smoke", "--max-workers", "0"],
])
def test_jobs_flags_reject_non_positive_counts(argv):
    with pytest.raises(SystemExit, match=">= 1"):
        main(argv)


def test_jobs_flag_default_resolves_to_cpu_count():
    import os

    from repro.cli import _resolve_jobs

    assert _resolve_jobs(None) == (os.cpu_count() or 1)
    assert _resolve_jobs(3) == 3


def test_fleet_submit_without_service_exits_cleanly(capsys):
    # Port 1 is never listening; the CLI should fail with a clear
    # message, not a raw ConnectionRefusedError traceback.
    with pytest.raises(SystemExit, match="cannot reach a fleet service"):
        main(["fleet", "submit", "--port", "1", "--workload", "camera"])


def test_fleet_status_without_service_exits_cleanly(capsys):
    with pytest.raises(SystemExit, match="cannot reach a fleet service"):
        main(["fleet", "status", "--port", "1"])


def test_fleet_campaign_smoke_json(capsys):
    import json

    code, output = run_cli(capsys, "fleet", "campaign", "--smoke",
                           "--total-jobs", "24", "--max-workers", "1",
                           "--json")
    assert code == 0
    document = json.loads(output)
    assert document["total_jobs"] == 24
    assert document["identical"] is True


def test_fleet_campaign_floor_failure_exits_nonzero(capsys):
    # No fleet sustains 1e12 jobs/min; the floor gate must trip.
    code, output = run_cli(capsys, "fleet", "campaign", "--smoke",
                           "--total-jobs", "16", "--max-workers", "1",
                           "--throughput-floor", "1e12")
    assert code == 1
    assert "FAIL" in output
