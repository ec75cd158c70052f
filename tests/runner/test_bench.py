"""Smoke tests for the perf benchmark harness."""

import json

import pytest

from repro.runner.bench import (BOOT_CASES, _drive_queue, bench_cache,
                                bench_checkpoint, bench_design_space,
                                bench_event_queue, bench_fleet, build_record,
                                checkpoint_matrix, write_record)
from repro.sim.events import EventQueue


def test_queue_processes_the_seeded_workload():
    assert _drive_queue(EventQueue(), 500) == 500


def test_microbenchmark_reports_events_per_sec():
    result = bench_event_queue(events=2_000, repeats=1)
    assert result["events"] == 2_000
    assert result["events_per_sec"] > 0


def test_cache_benchmark_reports_roundtrips_per_sec():
    result = bench_cache(rounds=20, repeats=1)
    assert result["rounds"] == 20
    assert result["roundtrips_per_sec"] > 0


def test_checkpoint_matrix_shares_one_prefix():
    jobs = checkpoint_matrix(cells=16)
    assert len(jobs) == 16
    assert len({job.fingerprint() for job in jobs}) == 16
    assert len({job.prefix_fingerprint() for job in jobs}) == 1


def test_checkpoint_benchmark_outputs_identical():
    result = bench_checkpoint(cells=8)
    assert result["cells"] == 8
    assert result["outputs_identical"] is True
    assert result["speedup"] > 0
    assert result["runner"]["branched"] == 8


def test_design_space_and_fleet_benchmarks_are_identity_checked():
    assert bench_design_space(smoke=True)["frontier_identical"] is True
    assert bench_fleet(smoke=True, total_jobs=200)["outputs_identical"] is True


def test_record_roundtrips_as_json(tmp_path):
    record = build_record(jobs=1, events=2_000, skip_sweep=True,
                          skip_checkpoint=True, skip_predict=True,
                          skip_fleet=True)
    path = tmp_path / "BENCH_runner.json"
    write_record(record, str(path))
    loaded = json.loads(path.read_text())
    assert "event_queue" in loaded and "code_version" in loaded
    assert "cache" in loaded and "checkpoint" not in loaded
    assert "design_space" not in loaded and "fleet" not in loaded
    boots = loaded["boots"]
    assert len(boots) == len(BOOT_CASES)
    # The commercial TV's spinning RCU waiters make no-BB the heavy boot.
    heavy, light = boots["tv-commercial/none/c4"], boots["tv-commercial/full/c4"]
    assert heavy["dispatches"] > light["dispatches"] > 0
    assert heavy["complete_ms"] > light["complete_ms"] > 0
    assert all(boot["des_ms"] > 0 and boot["predict_ms"] > 0
               for boot in boots.values())
    # The completion leg is part of the same timed boots as des_ms.
    assert all(0 < boot["des_complete_ms"] <= boot["des_ms"]
               for boot in boots.values())


def test_failed_write_keeps_the_previous_record(tmp_path):
    """A record that cannot be serialized leaves the last one whole."""
    path = tmp_path / "BENCH_runner.json"
    write_record({"code_version": "x", "z": 1}, str(path))
    with pytest.raises(TypeError):
        write_record({"code_version": "y", "z": object()}, str(path))
    assert json.loads(path.read_text()) == {"code_version": "x", "z": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_runner.json"]
