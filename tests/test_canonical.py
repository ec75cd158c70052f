"""The canonical JSON encoding and the bytes at rest that depend on it.

Journals on disk are checksummed, and generation stores are addressed,
by these exact bytes: a stored journal stays replayable and a stored
generation stays resolvable only while a fixed document keeps encoding
to the same bytes.  The digests below are pinned literally.
"""

import hashlib

from repro.canonical import canonical_json
from repro.fleet.journal import decode_record, encode_record
from repro.fleet.protocol import encode_frame, submission_key
from repro.generations import Generation

_SPECS = [{"workload": "tv", "bb": ["preparser"],
           "fault": {"preset": "flaky-services", "seed": 7}, "repeat": 3,
           "label": "café ✓"}]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_canonical_json_sorts_keys_drops_whitespace_escapes_non_ascii():
    assert (canonical_json({"b": [1, 2.5, None], "a": "é\U0001F680"})
            == b'{"a":"\\u00e9\\ud83d\\ude80","b":[1,2.5,null]}')


def test_generation_fingerprint_is_pinned():
    generation = Generation(label="pin-été", workload="tv",
                            features=("rcu_booster", "preparser"), cores=2,
                            fault=("flaky-services", 3), parent="0" * 64,
                            notes="café ✓ \U0001F680")
    assert generation.fingerprint() == (
        "9213d15ca4bac9026d661148fc0a6c7b0f60ecd18e32ed987e3ad8d17496cbd7")


def test_journal_record_bytes_are_pinned():
    key = submission_key("campaign-é", _SPECS, 2)
    assert key == "09c7849396a67591"
    record = {"type": "submit", "key": key, "sid": "campaign-é",
              "specs": _SPECS, "priority": 2}
    line = encode_record(record)
    assert _sha256(line) == (
        "2c891e26ef03f64c51b83913f4f60c56a5f081ace45d713f91336300951c7098")
    assert decode_record(line) == record


def test_wire_frame_bytes_are_pinned():
    frame = encode_frame({"event": "result", "id": "sé", "index": 0,
                          "summary": {"boot_ms": 1.5, "type": "BootReport"}})
    assert _sha256(frame) == (
        "a7036e3fec125fb7c2523376f52e3e181413cd10fa1077a1b589542577ff6e7f")
