"""Mutation tests of the OTA health gate: plant a defect, demand the
rollback; ship a clean update, demand silence.

These are the campaign engine's "does the alarm actually ring" tests:
a generation with a regressed feature set or a broken boot-critical unit
must be detected and every updated device rolled back to the baseline,
while a byte-for-byte-equivalent clean release must produce *zero*
rollbacks (no false positives).  Rollout reports are canonical bytes, so
determinism across worker counts and execution tiers is asserted
directly.
"""

import pytest

from repro.canonical import canonical_json
from repro.generations import (VERDICT_HEALTHY, VERDICT_REGRESSION,
                               VERDICT_STAGE_FAILED, VERDICT_UNIT_FAILURE,
                               demo_store, draw_update_fault,
                               partition_waves, run_rollout)


def _rollout(tmp_path, kind, **kwargs):
    store = demo_store(tmp_path / kind, kind)
    return run_rollout(store, **kwargs)


def _verdicts(report):
    merged = {}
    for wave in report["waves"]:
        for verdict, count in wave["verdicts"].items():
            merged[verdict] = merged.get(verdict, 0) + count
    return merged


class TestPlantedRegression:
    def test_boot_time_regression_detected_and_rolled_back(self, tmp_path):
        """gen-2 drops the preparser and deferred executor (~24% slower,
        past the 1.10x gate): every updated device must roll back and the
        campaign must halt after the first wave."""
        report = _rollout(tmp_path, "regressed")
        assert report["rollbacks"] == 4  # one full wave of 12/3 devices
        assert report["devices_updated"] == 0
        assert report["halted_after"] == 0
        assert _verdicts(report) == {VERDICT_REGRESSION: 4}

    def test_every_rollback_verified_by_recovery_ladder(self, tmp_path):
        report = _rollout(tmp_path, "regressed")
        for wave in report["waves"]:
            assert wave["rollbacks_verified"] == wave["rollbacks"]

    def test_broken_unit_detected_and_rolled_back(self, tmp_path):
        """gen-2 shipping a broken boot-critical unit fails health
        outright (degraded boot), same rollback path."""
        report = _rollout(tmp_path, "broken")
        assert report["rollbacks"] == 4
        assert report["devices_updated"] == 0
        assert _verdicts(report) == {VERDICT_UNIT_FAILURE: 4}
        for wave in report["waves"]:
            assert wave["rollbacks_verified"] == wave["rollbacks"]

    def test_all_devices_end_on_baseline(self, tmp_path):
        report = _rollout(tmp_path, "regressed")
        baseline = report["baseline"]
        for state in report["device_states"].values():
            slots = (state["slot_a"], state["slot_b"])
            assert slots[{"a": 0, "b": 1}[state["active"]]] == baseline
            assert state["known_good"] == baseline


class TestCleanUpdate:
    def test_zero_false_positives(self, tmp_path):
        """An update with an unchanged boot profile sails through: every
        device updates, nothing rolls back, nothing halts."""
        report = _rollout(tmp_path, "clean")
        assert report["rollbacks"] == 0
        assert report["devices_updated"] == report["devices"]
        assert report["halted_after"] is None
        assert _verdicts(report) == {VERDICT_HEALTHY: report["devices"]}

    def test_clean_devices_confirm_the_new_generation(self, tmp_path):
        report = _rollout(tmp_path, "clean")
        target = report["target"]
        for state in report["device_states"].values():
            assert state["known_good"] == target
            assert state["trial"] is None


class TestUpdateFaults:
    def test_interrupted_flash_skips_the_boot(self, tmp_path):
        """flash_rate=1: every flash is interrupted, no device ever
        boots the target, and the old slot keeps running."""
        report = _rollout(tmp_path, "clean", flash_rate=1.0, update_seed=3)
        assert _verdicts(report) == {
            VERDICT_STAGE_FAILED: report["devices"]}
        assert report["rollbacks"] == 0
        baseline = report["baseline"]
        for state in report["device_states"].values():
            assert state["known_good"] == baseline

    def test_corrupt_image_rolls_back(self, tmp_path):
        """corrupt_rate=1 on a clean release: the flashed bytes are bad,
        the trial boot degrades, and the gate must roll back anyway."""
        report = _rollout(tmp_path, "clean", corrupt_rate=1.0,
                          update_seed=3, halt_threshold=1.1)
        verdicts = _verdicts(report)
        assert verdicts.get(VERDICT_HEALTHY, 0) == 0
        assert report["rollbacks"] == report["devices"]

    def test_fault_draws_are_per_device_deterministic(self):
        first = draw_update_fault(seed=9, device="dev-004",
                                  flash_rate=0.3, corrupt_rate=0.3)
        again = draw_update_fault(seed=9, device="dev-004",
                                  flash_rate=0.3, corrupt_rate=0.3)
        assert first == again
        assert draw_update_fault(seed=9, device="dev-005",
                                 flash_rate=0.0, corrupt_rate=0.0) is None


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["regressed", "clean"])
    def test_jobs_1_equals_jobs_2(self, tmp_path, kind):
        serial = _rollout(tmp_path / "j1", kind, jobs=1)
        threaded = _rollout(tmp_path / "j2", kind, jobs=2)
        assert canonical_json(serial) == canonical_json(threaded)

    def test_serial_equals_fleet(self, tmp_path):
        serial = _rollout(tmp_path / "s", "regressed")
        fleet = _rollout(tmp_path / "f", "regressed", use_fleet=True,
                         jobs=2)
        assert canonical_json(serial) == canonical_json(fleet)

    def test_waves_partition_every_device_exactly_once(self):
        from repro.generations import device_ids

        for devices, waves in ((12, 3), (7, 3), (5, 8)):
            fleet = device_ids(devices)
            parts = partition_waves(fleet, waves)
            assert [d for wave in parts for d in wave] == fleet
