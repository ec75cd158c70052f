"""The fleet wire protocol: JSON-lines frames and declarative job specs.

One TCP connection carries newline-delimited JSON objects in both
directions.  Requests carry an ``op`` key, server events an ``event``
key.  The protocol is deliberately boring — every frame is a dict, every
frame fits on one line — so ``repro fleet submit`` output can be piped
straight into ``jq`` and a smoke test can speak it with four lines of
asyncio.

Requests:

* ``{"op": "submit", "id": <str>, "priority": <int>, "jobs": [SPEC...]}``
* ``{"op": "status"}``
* ``{"op": "drain"}`` — ask the service to stop accepting work, finish
  what is in flight, and exit (the SIGTERM path, over the wire).

Events:

* ``ack`` — submission accepted: ``{"id", "jobs"}`` (total after
  ``repeat`` expansion).
* ``result`` — one job finished: ``{"id", "index", "fingerprint",
  "cached", "summary", ...}`` and exactly one of ``payload`` (base64 of
  the canonical result pickle, first time this connection sees the
  fingerprint) or ``payload_ref`` (the fingerprint of an
  already-streamed payload — fleet campaigns submit the same device
  boot thousands of times, and re-shipping identical bytes would
  drown the link).  Results for a connection always arrive in
  submission order.
* ``progress`` — ``{"id", "done", "total"}``, interleaved with results.
* ``done`` — the whole submission is delivered: ``{"id", "total",
  "elapsed_s"}``.
* ``error`` — submission- or connection-level failure: ``{"message",
  "id"?}``.
* ``status`` — the service snapshot for ``op: status``.

A job SPEC is declarative (no pickles cross the trust boundary):

``{"kind": "boot"|"recover", "workload": <name>, "bb": "full"|"none"|
[feature...], "cores": <int|null>, "fault": {"preset": <name>,
"seed": <int>}|null, "repeat": <int>, "label": <str>}``

``repeat`` expands server-side into that many tickets of the identical
fingerprint — the single-flight scheduler executes one and fans the
result out, which is exactly the fleet-of-identical-devices shape.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Callable

from repro.canonical import canonical_json
from repro.core.config import BBConfig
from repro.errors import ProtocolError
from repro.runner.jobs import SimJob
from repro.workloads import WORKLOAD_FACTORIES as _REGISTRY

#: Named workload factories resolvable over the wire (the shared
#: registry from :mod:`repro.workloads`, same names as the CLI).
WORKLOAD_FACTORIES: dict[str, Callable[..., Any]] = dict(_REGISTRY)

#: Hard ceiling on one frame; a line longer than this is a protocol error
#: (64 MiB comfortably holds a 100k-spec campaign submission).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Spec keys the decoder accepts; anything else is a typo worth rejecting.
_SPEC_KEYS = frozenset({"kind", "workload", "bb", "cores", "fault",
                        "repeat", "label"})


def encode_frame(message: dict[str, Any]) -> bytes:
    """One message -> one newline-terminated JSON line."""
    return canonical_json(message) + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """One received line -> message dict; raises :class:`ProtocolError`."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        message = json.loads(line)
    except RecursionError as exc:
        raise ProtocolError("frame nests too deeply to decode") from exc
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, "
                            f"got {type(message).__name__}")
    return message


def encode_payload(canonical: bytes) -> str:
    """Canonical result bytes -> the base64 text carried in a ``result``."""
    return base64.b64encode(canonical).decode("ascii")


def decode_payload(text: str) -> bytes:
    """Inverse of :func:`encode_payload`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"undecodable result payload: {exc}") from exc


def submission_key(sid: str, specs: list[dict[str, Any]],
                   priority: int) -> str:
    """Content key identifying one submission for the write-ahead journal.

    A retrying client resubmits the same ``(sid, specs, priority)``
    triple, so hashing their canonical JSON makes the journal's
    ``record_submit`` naturally idempotent across retries while two
    different submissions (even with colliding auto-generated sids from
    different connections) still collapse only when they are genuinely
    the same work.
    """
    body = canonical_json({"sid": sid, "specs": specs, "priority": priority})
    return hashlib.sha256(body).hexdigest()[:16]


# ----------------------------------------------------------------- job specs


def _resolve_bb(value: Any) -> BBConfig:
    if value is None or value == "full":
        return BBConfig.full()
    if value == "none":
        return BBConfig.none()
    if isinstance(value, list) and all(isinstance(f, str) for f in value):
        config = BBConfig.none()
        for feature in value:
            try:
                config = config.with_feature(feature, True)
            except Exception as exc:
                raise ProtocolError(f"unknown BB feature {feature!r}") from exc
        return config
    raise ProtocolError(f"bad 'bb' value {value!r}: expected 'full', "
                        f"'none', or a list of feature names")


def _resolve_fault(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, dict) or "preset" not in value:
        raise ProtocolError(f"bad 'fault' value {value!r}: expected "
                            f"{{'preset': name, 'seed': int}}")
    from repro.faults import build_preset
    seed = value.get("seed", 1)
    if type(seed) is not int:  # bool is an int subclass; see job_from_spec
        raise ProtocolError(f"fault seed must be an int, got {seed!r}")
    try:
        return build_preset(value["preset"], seed=seed)
    except Exception as exc:
        raise ProtocolError(f"unknown fault preset "
                            f"{value['preset']!r}") from exc


def job_from_spec(spec: dict[str, Any]) -> tuple[SimJob, int]:
    """Resolve one declarative spec into ``(job, repeat)``.

    Raises:
        ProtocolError: On any unknown key, workload, preset or feature —
            a fleet client's typo must come back as a clean error event,
            not a worker crash three layers down.
    """
    if not isinstance(spec, dict):
        raise ProtocolError(f"job spec must be an object, got {spec!r}")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise ProtocolError(f"unknown job spec keys: {sorted(unknown)}")
    kind = spec.get("kind", "boot")
    workload_name = spec.get("workload", "tv")
    factory = (WORKLOAD_FACTORIES.get(workload_name)
               if isinstance(workload_name, str) else None)
    if factory is None:
        raise ProtocolError(
            f"unknown workload {workload_name!r}; choose from "
            f"{', '.join(sorted(WORKLOAD_FACTORIES))}")
    # ``type(x) is int``, not isinstance: JSON true/false decode to bool,
    # and ``{"cores": true}`` would fingerprint apart from ``{"cores": 1}``.
    repeat = spec.get("repeat", 1)
    if type(repeat) is not int or repeat < 1:
        raise ProtocolError(f"'repeat' must be an int >= 1, got {repeat!r}")
    cores = spec.get("cores")
    if cores is not None and (type(cores) is not int or cores < 1):
        raise ProtocolError(f"'cores' must be an int >= 1, got {cores!r}")
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError(f"'label' must be a string, got {label!r}")
    plan = _resolve_fault(spec.get("fault"))
    if kind == "boot":
        job = SimJob.boot(factory, bb=_resolve_bb(spec.get("bb")),
                          cores=cores, fault_plan=plan, label=label)
    elif kind == "recover":
        if cores is not None:
            raise ProtocolError("'cores' is not supported on recover jobs")
        job = SimJob.recover(factory, fault_plan=plan, label=label)
    else:
        raise ProtocolError(f"unknown job kind {kind!r}; "
                            f"expected 'boot' or 'recover'")
    return job, repeat


def summarize_result(result: Any) -> dict[str, Any]:
    """A tiny JSON-able synopsis of any job result for streaming UIs."""
    summary: dict[str, Any] = {"type": type(result).__name__}
    boot_ms = getattr(result, "boot_complete_ms", None)
    if isinstance(boot_ms, (int, float)):
        summary["boot_ms"] = round(float(boot_ms), 3)
    degraded = getattr(result, "degraded", None)
    if isinstance(degraded, bool):
        summary["degraded"] = degraded
    workload = getattr(result, "workload", None)
    if isinstance(workload, str):
        summary["workload"] = workload
    return summary
