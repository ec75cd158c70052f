"""The `repro generations` command family end to end."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


@pytest.fixture
def store_dir(tmp_path, capsys):
    path = str(tmp_path / "gens")
    code, output = run_cli(capsys, "generations", "init", "--store", path)
    assert code == 0
    assert "initialized" in output
    return path


def test_init_refuses_existing_store(store_dir, capsys):
    with pytest.raises(SystemExit, match="already initialized"):
        main(["generations", "init", "--store", store_dir])


def test_commit_log_diff_rollback_lifecycle(store_dir, capsys):
    code, output = run_cli(capsys, "generations", "commit",
                           "--store", store_dir, "--label", "gen-1")
    assert code == 0
    assert "[main " in output and "gen-1" in output

    code, output = run_cli(capsys, "generations", "commit",
                           "--store", store_dir, "--label", "gen-2",
                           "--features", "preparser,rcu_booster",
                           "--notes", "lean build")
    assert code == 0

    code, output = run_cli(capsys, "generations", "log",
                           "--store", store_dir)
    assert code == 0
    assert output.index("gen-2") < output.index("gen-1")
    assert "# lean build" in output

    # Head-vs-parent diff needs no arguments.
    code, output = run_cli(capsys, "generations", "diff",
                           "--store", store_dir)
    assert code == 0
    assert "features" in output and "label" in output

    code, output = run_cli(capsys, "generations", "rollback",
                           "--store", store_dir)
    assert code == 0
    assert "rolled 'main' back from gen-2" in output

    code, output = run_cli(capsys, "generations", "log",
                           "--store", store_dir)
    assert code == 0
    assert "gen-2" not in output


def test_commit_requires_initialized_store(tmp_path):
    with pytest.raises(SystemExit, match="no generation store"):
        main(["generations", "commit", "--store",
              str(tmp_path / "missing"), "--label", "x"])


def test_commit_unknown_feature_exits(store_dir):
    with pytest.raises(SystemExit, match="unknown BB feature"):
        main(["generations", "commit", "--store", store_dir,
              "--label", "bad", "--features", "warp_drive"])


def test_commit_with_a_fault_preset(store_dir, capsys):
    code, output = run_cli(capsys, "generations", "commit",
                           "--store", store_dir, "--label", "broken",
                           "--fault", "broken-tuner", "--fault-seed", "3",
                           "--workload", "camera", "--no-bb")
    assert code == 0
    assert "broken" in output
    code, output = run_cli(capsys, "generations", "log",
                           "--store", store_dir)
    assert code == 0
    assert "camera/none fault=broken-tuner#3" in output


def test_commit_unknown_workload_exits(store_dir):
    with pytest.raises(SystemExit, match="unknown workload 'toaster'"):
        main(["generations", "commit", "--store", store_dir,
              "--label", "bad", "--workload", "toaster"])


def test_diff_of_rootless_head_exits(store_dir, capsys):
    run_cli(capsys, "generations", "commit", "--store", store_dir,
            "--label", "root")
    with pytest.raises(SystemExit, match="no parent"):
        main(["generations", "diff", "--store", store_dir])


@pytest.mark.slow
def test_rollout_demo_regressed_expect_rollbacks(capsys):
    code, output = run_cli(capsys, "generations", "rollout",
                           "--demo", "regressed",
                           "--expect-rollbacks", "4")
    assert code == 0
    assert "HALTED" in output
    assert "4/4 rollbacks verified" in output


@pytest.mark.slow
def test_rollout_expectation_mismatch_exits_one(capsys):
    code, output = run_cli(capsys, "generations", "rollout",
                           "--demo", "clean", "--devices", "6",
                           "--waves", "2", "--expect-rollbacks", "1")
    assert code == 1
    assert "expected exactly 1 rollbacks, observed 0" in output


@pytest.mark.slow
def test_rollout_json_report(capsys):
    code, output = run_cli(capsys, "generations", "rollout",
                           "--demo", "clean", "--devices", "6",
                           "--waves", "2", "--json")
    assert code == 0
    report = json.loads(output)
    assert report["rollbacks"] == 0
    assert report["devices_updated"] == 6


def test_rollout_without_store_or_demo_exits():
    with pytest.raises(SystemExit, match="--demo"):
        main(["generations", "rollout"])
