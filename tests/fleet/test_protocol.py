"""Wire framing and declarative job specs."""

import pytest

from repro.core import BBConfig
from repro.errors import ProtocolError
from repro.fleet import protocol
from repro.runner import SimJob
from repro.workloads import opensource_tv_workload


class TestFrames:
    def test_roundtrip(self):
        message = {"op": "submit", "id": "s0", "jobs": [{"kind": "boot"}]}
        line = protocol.encode_frame(message)
        assert line.endswith(b"\n")
        assert protocol.decode_frame(line) == message

    def test_frames_are_single_lines(self):
        line = protocol.encode_frame({"a": "multi\nline? no", "b": 1})
        assert line.count(b"\n") == 1
        assert protocol.decode_frame(line)["a"] == "multi\nline? no"

    @pytest.mark.parametrize("junk", [
        b"not json\n", b"[1, 2]\n", b'"str"\n',
        pytest.param(b"[" * 100_000, id="deep-array"),
        pytest.param(b'{"op":' * 50_000, id="deep-object"),
    ])
    def test_bad_frames_raise(self, junk):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(junk)

    def test_oversized_frame_rejected(self):
        line = b"x" * (protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_frame(line)

    def test_payload_roundtrip(self):
        blob = bytes(range(256))
        assert protocol.decode_payload(protocol.encode_payload(blob)) == blob

    def test_corrupt_payload_raises(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload("@@@not-base64@@@")


class TestJobSpecs:
    def test_default_spec_is_a_full_bb_tv_boot(self):
        job, repeat = protocol.job_from_spec({})
        assert repeat == 1
        expected = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        assert job.fingerprint() == expected.fingerprint()

    def test_spec_resolves_workload_bb_fault_and_repeat(self):
        job, repeat = protocol.job_from_spec({
            "kind": "boot", "workload": "camera", "bb": "none",
            "fault": {"preset": "flaky-services", "seed": 7}, "repeat": 5})
        assert repeat == 5
        assert job.fault_plan is not None
        assert not job.bb.preparser

    def test_feature_list_bb(self):
        job, _ = protocol.job_from_spec({"bb": ["preparser"]})
        assert job.bb.preparser
        assert not job.bb.deferred_meminit

    def test_spec_fingerprint_matches_direct_job(self):
        spec = {"workload": "phone", "bb": "full", "cores": 2}
        job, _ = protocol.job_from_spec(spec)
        from repro.workloads import phone_workload
        direct = SimJob.boot(phone_workload, bb=BBConfig.full(), cores=2)
        assert job.fingerprint() == direct.fingerprint()

    @pytest.mark.parametrize("spec, match", [
        ({"workload": "toaster"}, "unknown workload"),
        ({"kind": "reboot"}, "unknown job kind"),
        ({"typo_key": 1}, "unknown job spec keys"),
        ({"repeat": 0}, "repeat"),
        ({"repeat": "many"}, "repeat"),
        ({"cores": -1}, "cores"),
        ({"bb": 42}, "bad 'bb'"),
        ({"bb": ["warp_drive"]}, "unknown BB feature"),
        ({"fault": {"seed": 3}}, "bad 'fault'"),
        ({"fault": {"preset": "nope"}}, "unknown fault preset"),
        ({"kind": "recover", "cores": 2}, "not supported"),
        ("not-a-dict", "must be an object"),
        ({"workload": ["tv"]}, "unknown workload"),
        ({"cores": True}, "cores"),
        ({"repeat": True}, "repeat"),
        ({"fault": {"preset": "flaky-services", "seed": True}}, "seed"),
        ({"label": {"name": "tv"}}, "label"),
    ])
    def test_bad_specs_raise_protocol_errors(self, spec, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.job_from_spec(spec)

    def test_workload_registry_is_the_shared_one(self):
        from repro.workloads import WORKLOAD_FACTORIES
        assert protocol.WORKLOAD_FACTORIES == WORKLOAD_FACTORIES


class TestSummaries:
    def test_boot_report_summary(self):
        from repro.runner import execute_job
        report = execute_job(SimJob.boot(opensource_tv_workload,
                                         bb=BBConfig.full()))
        summary = protocol.summarize_result(report)
        assert summary["type"] == type(report).__name__
        assert summary["boot_ms"] > 0
        assert summary["degraded"] is False

    def test_arbitrary_result_summary(self):
        assert protocol.summarize_result(object())["type"] == "object"
