"""The serial-identity oracle (``repro.runner.oracle.SerialReplay``)."""

import pytest

from repro.core.config import BBConfig
from repro.faults import build_preset
from repro.runner import SimJob, canonical_bytes, execute_job
from repro.runner.oracle import SerialReplay
from repro.workloads import camera_workload


def _job(seed):
    return SimJob.boot(camera_workload, bb=BBConfig.full(),
                       fault_plan=build_preset("flaky-services", seed=seed))


@pytest.fixture(scope="module")
def replay():
    return SerialReplay([(_job(1), 2), (_job(2), 1)])


def test_repeats_expand_and_each_fingerprint_runs_once(replay):
    first, second = _job(1).fingerprint(), _job(2).fingerprint()
    assert replay.fingerprints == [first, first, second]
    assert replay.unique_jobs == 2
    assert replay.payloads[first] == canonical_bytes(execute_job(_job(1)))
    assert replay.wall_s > 0


def test_matching_stream_passes(replay):
    stream = [(fp, replay.payloads[fp]) for fp in replay.fingerprints]
    assert replay.compare(stream, "fleet") == []


def test_mismatches_name_their_position(replay):
    first, _, second = replay.fingerprints
    stream = [(first, replay.payloads[first]),
              (second, replay.payloads[second]),
              (second, b"not the serial bytes")]
    mismatches = replay.compare(stream, "fleet",
                                where="cell {}".format)
    assert len(mismatches) == 2
    assert mismatches[0].startswith(
        f"cell 1: fleet fingerprint {second[:12]} where the serial "
        f"replay has {first[:12]}")
    assert mismatches[1] == (f"cell 2: fleet payload differs from the "
                             f"serial replay ({second[:12]})")


def test_only_common_positions_are_compared(replay):
    # Counting is the caller's check: a short stream is not a mismatch.
    first = replay.fingerprints[0]
    assert replay.compare([(first, replay.payloads[first])], "fleet") == []
