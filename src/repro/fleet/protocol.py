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

A job SPEC is a declarative boot spec (:mod:`repro.bootspec`; no pickles
cross the trust boundary).  ``repeat`` expands server-side into that many
tickets of the identical fingerprint — the single-flight scheduler
executes one and fans the result out, which is exactly the
fleet-of-identical-devices shape.  One submission may expand to at most
:data:`MAX_SUBMISSION_TICKETS` tickets.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any

from repro.bootspec import resolve_spec
from repro.canonical import canonical_json
from repro.errors import ConfigurationError, ProtocolError
from repro.runner.jobs import SimJob
from repro.workloads import WORKLOAD_FACTORIES  # noqa: F401 - re-export

#: Hard ceiling on one frame; a line longer than this is a protocol error
#: (64 MiB comfortably holds a 100k-spec campaign submission).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Hard ceiling on the tickets one submission expands to after
#: ``repeat``: about 100x the 10,080-ticket full fleet campaign, checked
#: before a single ticket is built.
MAX_SUBMISSION_TICKETS = 1_000_000


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


def job_from_spec(spec: dict[str, Any]) -> tuple[SimJob, int]:
    """Resolve one declarative spec into ``(job, repeat)``.

    Raises:
        ProtocolError: On any unknown key, workload, preset or feature —
            a fleet client's typo must come back as a clean error event,
            not a worker crash three layers down.
    """
    try:
        boot = resolve_spec(spec)
    except ConfigurationError as exc:
        raise ProtocolError(str(exc)) from exc
    if boot.kind == "recover":
        job = SimJob.recover(boot.factory, policy=boot.recovery_policy(),
                             fault_plan=boot.fault_plan, label=boot.label)
    else:
        job = SimJob.boot(boot.factory, bb=boot.bb, cores=boot.cores,
                          fault_plan=boot.fault_plan, label=boot.label)
    return job, boot.repeat


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
