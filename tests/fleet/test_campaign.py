"""The fleet campaign: matrix construction, end-to-end runs in both
modes, and the identity oracle's ability to fail."""

import socket
import subprocess
import sys
import time

import pytest

from repro.fleet import FleetClient, build_specs, run_campaign
from repro.fleet.campaign import render
from repro.fleet.protocol import job_from_spec
from repro.verify.fleet_crash import _free_port, _subprocess_env, _terminate


def _flip_a_bit_of_ticket_5(outcome):
    payload = outcome.payloads[5]
    outcome.payloads[5] = bytes([payload[0] ^ 1]) + payload[1:]


def _swap_first_and_last(outcome):
    for stream in (outcome.fingerprints, outcome.payloads):
        stream[0], stream[-1] = stream[-1], stream[0]


def _wait_listening(port, deadline_s=30.0):
    """Block until a service accepts on ``port``, so the campaign's
    first submission never needs a retry."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


class TestBuildSpecs:
    def test_full_matrix_shape(self):
        specs = build_specs()
        # 6 workloads x 2 BB x (healthy + 3 presets x 2 seeds) = 84 cells
        assert len(specs) == 84
        assert sum(spec["repeat"] for spec in specs) == 10_080

    def test_smoke_matrix_shape(self):
        specs = build_specs(smoke=True, total_jobs=200)
        # 2 workloads x 2 BB x (healthy + 1 preset x 1 seed) = 8 cells
        assert len(specs) == 8
        assert sum(spec["repeat"] for spec in specs) == 200

    def test_popularity_skew_is_monotone_at_the_head(self):
        specs = build_specs(total_jobs=10_080)
        repeats = [spec["repeat"] for spec in specs]
        assert repeats[1] >= repeats[2] >= repeats[10] >= repeats[-1] >= 1

    def test_every_cell_is_a_valid_wire_spec(self):
        for spec in build_specs():
            job, repeat = job_from_spec(spec)
            assert repeat >= 1
            assert job.fingerprint()

    def test_cells_are_unique_jobs(self):
        specs = build_specs()
        fingerprints = {job_from_spec(spec)[0].fingerprint()
                        for spec in specs}
        assert len(fingerprints) == len(specs)


class TestCampaignRun:
    def test_tiny_smoke_campaign_is_byte_identical(self):
        result = run_campaign(smoke=True, total_jobs=40, max_workers=2)
        assert result.total_jobs == 40
        assert result.unique_jobs == 8
        assert result.identical, result.mismatches
        assert result.mismatches == []
        # Every ticket is accounted for exactly once.
        assert (result.executed + result.cache_hits
                + result.coalesced) == 40
        assert result.jobs_per_min > 0
        assert result.peak_workers >= 1

    def test_render_mentions_the_verdict(self):
        result = run_campaign(smoke=True, total_jobs=16, max_workers=1)
        text = render(result)
        assert "fleet == serial" in text
        assert "yes" in text
        assert "jobs submitted" in text


class TestIdentityOracle:
    @pytest.mark.parametrize("plant, expected", [
        (_flip_a_bit_of_ticket_5, ["job 5: fleet payload differs"]),
        (_swap_first_and_last, ["job 0: fleet fingerprint",
                                "job 15: fleet fingerprint"]),
    ], ids=["corrupt-payload", "reordered-tickets"])
    def test_planted_mismatch_names_the_ticket(self, monkeypatch, plant,
                                               expected):
        submit = FleetClient.submit_with_retry

        async def planting(self, *args, **kwargs):
            outcome = await submit(self, *args, **kwargs)
            plant(outcome)
            return outcome

        monkeypatch.setattr(FleetClient, "submit_with_retry", planting)
        result = run_campaign(smoke=True, total_jobs=16, max_workers=1)
        assert result.identical is False
        assert len(result.mismatches) == len(expected)
        for mismatch, prefix in zip(result.mismatches, expected):
            assert mismatch.startswith(prefix), mismatch

    def test_code_version_skew_is_named_once(self, monkeypatch):
        # A service started from another source tree salts every
        # fingerprint differently, so every ticket would differ: the
        # campaign names the cause in one line instead.
        from repro.fleet import service
        from repro.runner.jobs import code_version

        submit = FleetClient.submit_with_retry

        async def skewed(self, *args, **kwargs):
            outcome = await submit(self, *args, **kwargs)
            _swap_first_and_last(outcome)
            return outcome

        monkeypatch.setattr(FleetClient, "submit_with_retry", skewed)
        monkeypatch.setattr(service, "code_version",
                            lambda: "0123456789abcdef")
        result = run_campaign(smoke=True, total_jobs=16, max_workers=1)
        assert result.identical is False
        assert result.mismatches == [
            "code version skew: the fleet service runs 0123456789abcdef, "
            f"this client {code_version()}"]

    @pytest.mark.slow
    def test_external_mode_against_a_served_process(self):
        port = _free_port()
        service = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "serve",
             "--host", "127.0.0.1", "--port", str(port),
             "--max-workers", "1"],
            env=_subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            _wait_listening(port)
            result = run_campaign(smoke=True, total_jobs=24,
                                  host="127.0.0.1", port=port,
                                  cells_per_chunk=1, read_timeout=60.0)
        finally:
            _terminate(service)
        assert result.identical, result.mismatches
        assert result.provenance == "fresh"
        assert (result.total_jobs, result.unique_jobs) == (24, 8)
        assert result.client_retries == 0
