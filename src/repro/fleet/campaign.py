"""The fleet campaign: 10k+ boot jobs through the service, verified.

This is the deployment-shaped experiment the paper implies but never
shows: a whole fleet of consumer-electronics devices — heterogeneous
workload profiles x BB configurations x fault plans, most devices
identical to thousands of siblings — booted through the async service
instead of one batch sweep.  The campaign:

1. builds a device matrix (:func:`build_specs`) whose ``repeat`` counts
   model fleet popularity (one TV model ships millions of units),
2. submits it over TCP — to an in-process
   :class:`~repro.fleet.service.FleetService` on an ephemeral port, or
   to an already-running ``repro fleet serve`` in restart-survivable
   chunks — and streams results,
3. replays every **unique** job serially and compares the stream
   ticket by ticket, in submission order
   (:class:`~repro.runner.oracle.SerialReplay`) — the fleet-vs-serial
   identity oracle, which the ``fleet-identity`` and ``fleet-crash``
   verify groups both use — and
4. reports sustained throughput (jobs/minute) for the floor gate in
   ``make fleet-smoke``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import format_table
from repro.errors import FleetError
from repro.fleet.client import FleetClient, RetryPolicy, SubmissionOutcome
from repro.fleet.resources import ResourcePolicy
from repro.fleet.protocol import job_from_spec
from repro.fleet.service import FleetService
from repro.runner.jobs import code_version
from repro.runner.oracle import SerialReplay

#: Fault presets that model field failures worth sweeping at fleet scale.
_FAULT_PRESETS = ("flaky-services", "storage-storm", "missing-device")


def build_specs(smoke: bool = False,
                total_jobs: int | None = None) -> list[dict[str, Any]]:
    """The campaign device matrix as wire specs.

    Full matrix: 6 workload profiles x {full, none} BB x (healthy + 3
    fault presets x 2 seeds) = 84 unique boots; smoke: 2 profiles x 2 BB
    x (healthy + 1 preset) = 8 unique.  ``repeat`` counts spread
    ``total_jobs`` (default 10,080) across the cells with a deliberate
    skew — earlier cells model popular device models — so the stream is
    dominated by single-flight/cache traffic exactly like a real fleet.
    """
    workloads = ("tv", "camera") if smoke else (
        "tv", "tv-commercial", "camera", "phone", "wearable", "appliance")
    presets = _FAULT_PRESETS[:1] if smoke else _FAULT_PRESETS
    seeds = (1,) if smoke else (1, 2)
    if total_jobs is None:
        total_jobs = 10_080

    cells: list[dict[str, Any]] = []
    for workload in workloads:
        for bb in ("full", "none"):
            cells.append({"kind": "boot", "workload": workload, "bb": bb,
                          "label": f"{workload}/{bb}/healthy"})
            for preset in presets:
                for seed in seeds:
                    cells.append({
                        "kind": "boot", "workload": workload, "bb": bb,
                        "fault": {"preset": preset, "seed": seed},
                        "label": f"{workload}/{bb}/{preset}#{seed}",
                    })

    # Zipf-ish popularity skew: cell i ships proportionally to 1/(i+1),
    # scaled so the campaign totals ``total_jobs``.
    weights = [1.0 / (index + 1) for index in range(len(cells))]
    scale = total_jobs / sum(weights)
    repeats = [max(1, round(weight * scale)) for weight in weights]
    deficit = total_jobs - sum(repeats)
    repeats[0] = max(1, repeats[0] + deficit)
    for cell, repeat in zip(cells, repeats):
        cell["repeat"] = repeat
    return cells


@dataclass(slots=True)
class CampaignResult:
    """What one fleet campaign measured.

    Attributes:
        total_jobs: Tickets submitted (after ``repeat`` expansion).
        unique_jobs: Distinct fingerprints in the matrix.
        executed: Unique jobs the shards actually simulated.
        cache_hits: Tickets answered from the cache at submit time.
        coalesced: Tickets that rode an in-flight execution
            (single-flight dedup).
        wall_s: Wall time of the submissions (first submit to last
            ``done``), excluding the serial replay.
        jobs_per_min: Sustained delivery throughput.
        identical: Every ticket, in submission order, carried the
            expected fingerprint and byte-matched its serial replay.
        mismatches: Human-readable identity violations (empty = pass).
        serial_wall_s: Wall time of the serial replay of unique jobs.
        peak_workers: Largest shard count the pool reached.
        scaled_up / scaled_down: Auto-scale events observed.
        smoke: Whether this was the CI-sized matrix.
        status: The service's final status snapshot.
        provenance: ``"fresh"`` for an uninterrupted campaign,
            ``"resumed"`` when the service recovered journaled work or
            the client retried through a restart.
        resumed_jobs: Submissions the service's journal resumed.
        client_retries: Transport attempts beyond the first across all
            submissions (see ``SubmissionOutcome.attempts``).
        requeued: Fingerprints requeued after shard crashes.
        quarantined: Fingerprints quarantined by the service.
    """

    total_jobs: int
    unique_jobs: int
    executed: int
    cache_hits: int
    coalesced: int
    wall_s: float
    jobs_per_min: float
    identical: bool
    mismatches: list[str] = field(default_factory=list)
    serial_wall_s: float = 0.0
    peak_workers: int = 0
    scaled_up: int = 0
    scaled_down: int = 0
    smoke: bool = False
    status: dict[str, Any] = field(default_factory=dict)
    provenance: str = "fresh"
    resumed_jobs: int = 0
    client_retries: int = 0
    requeued: int = 0
    quarantined: int = 0


def chunk_specs(specs: list[dict[str, Any]],
                cells_per_chunk: int = 1) -> list[list[dict[str, Any]]]:
    """Split a spec list into per-submission chunks.

    Chunked submission is what makes a campaign *restart-survivable* at
    useful granularity: each chunk is one journaled submission, so a
    service crash loses at most one chunk's ack — which the client
    resubmits idempotently.
    """
    cells_per_chunk = max(1, cells_per_chunk)
    return [specs[index:index + cells_per_chunk]
            for index in range(0, len(specs), cells_per_chunk)]


def run(smoke: bool = False, total_jobs: int | None = None,
        max_workers: int | None = None,
        batch_size: int = 16,
        journal_dir: str | None = None,
        host: str | None = None, port: int = 7016,
        cells_per_chunk: int = 1,
        retry: RetryPolicy | None = None,
        connect_timeout: float | None = 5.0,
        read_timeout: float | None = None) -> CampaignResult:
    """Run the campaign end to end; see :class:`CampaignResult`.

    Without ``host`` the campaign starts an in-process
    :class:`~repro.fleet.service.FleetService` (``max_workers``,
    ``batch_size`` and ``journal_dir`` configure it) on an ephemeral
    port and submits the whole matrix as one submission.  With ``host``
    it drives an already-running ``repro fleet serve`` at
    ``host:port`` in chunks of ``cells_per_chunk`` cells — the mode that
    rides out a service crash and restart.  Either way each submission
    goes through
    :meth:`~repro.fleet.client.FleetClient.submit_with_retry` under a
    stable ``campaign-N`` id, so a journaled service resumes what it
    acked, the client resubmits what it never saw acked, and the
    content-addressed cache makes both paths converge on identical
    bytes, which :func:`_compare_with_serial` then checks.
    """
    from repro.runner.schedule import resolve_worker_count

    specs = build_specs(smoke=smoke, total_jobs=total_jobs)
    service = None
    if host is None:
        chunks = [specs]
        service = FleetService(port=0, batch_size=batch_size,
                               journal_dir=journal_dir,
                               policy=ResourcePolicy(
                                   min_workers=1,
                                   max_workers=resolve_worker_count(
                                       max_workers)))
    else:
        chunks = chunk_specs(specs, cells_per_chunk)
    client = FleetClient(host or "127.0.0.1", port,
                         connect_timeout=connect_timeout,
                         read_timeout=read_timeout)
    outcomes, wall_s, status = asyncio.run(
        _stream(chunks, client, retry, service))
    mismatches, unique_jobs, serial_wall_s = _compare_with_serial(
        specs, outcomes)
    served = status.get("code_version")
    if served != code_version():
        # Each process salts every fingerprint with its own code version,
        # so a skew makes every ticket differ: name the cause once.
        mismatches = [f"code version skew: the fleet service runs {served}, "
                      f"this client {code_version()}"]

    scheduler = status.get("scheduler", {})
    pool = status.get("pool", {})
    journal = status.get("journal", {})
    resilience = status.get("resilience", {})
    total = sum(outcome.total for outcome in outcomes)
    resumed = int(journal.get("resumed", 0))
    retries = sum(outcome.attempts for outcome in outcomes) - len(outcomes)
    return CampaignResult(
        total_jobs=total,
        unique_jobs=unique_jobs,
        executed=int(scheduler.get("dispatched", 0)),
        cache_hits=int(scheduler.get("cache_hits", 0)),
        coalesced=int(scheduler.get("coalesced", 0)),
        wall_s=wall_s,
        jobs_per_min=(total / wall_s * 60.0) if wall_s else 0.0,
        identical=not mismatches,
        mismatches=mismatches,
        serial_wall_s=serial_wall_s,
        peak_workers=int(pool.get("peak_workers", 0)),
        scaled_up=int(pool.get("scaled_up", 0)),
        scaled_down=int(pool.get("scaled_down", 0)),
        smoke=smoke,
        status=status,
        provenance="resumed" if (resumed or retries) else "fresh",
        resumed_jobs=resumed,
        client_retries=retries,
        requeued=int(resilience.get("requeued", 0)),
        quarantined=int(resilience.get("quarantined", 0)),
    )


async def _stream(chunks: list[list[dict[str, Any]]], client: FleetClient,
                  retry: RetryPolicy | None, service: FleetService | None
                  ) -> tuple[list[SubmissionOutcome], float, dict[str, Any]]:
    """Submit every chunk in order; returns ``(outcomes, wall_s, status)``.

    ``wall_s`` times the submissions only.  An in-process ``service`` is
    started first (the client is pointed at its ephemeral port) and
    drained afterwards.
    """
    try:
        if service is not None:
            client.host, client.port = await service.start()
        outcomes = []
        started = time.perf_counter()
        for number, chunk in enumerate(chunks):
            outcomes.append(await client.submit_with_retry(
                chunk, sid=f"campaign-{number}", policy=retry))
        wall_s = time.perf_counter() - started
        try:
            status = await client.status()
        except FleetError:
            await client.close()
            await client.connect()
            status = await client.status()
        await client.close()
        if service is not None:
            await service.drain()
        return outcomes, wall_s, status
    finally:
        await client.close()
        if service is not None and not service.draining:
            await service.stop()


def _compare_with_serial(specs: list[dict[str, Any]],
                         outcomes: list[SubmissionOutcome]
                         ) -> tuple[list[str], int, float]:
    """The identity oracle; returns ``(mismatches, unique_jobs,
    serial_wall_s)``.

    :class:`~repro.runner.oracle.SerialReplay` replays ``specs`` and
    compares the concatenated stream ticket by ticket, in submission
    order; the streamed errors and the ticket count are checked here.
    """
    replay = SerialReplay([job_from_spec(spec) for spec in specs])
    mismatches: list[str] = []
    fingerprints: list[str] = []
    payloads: list[bytes] = []
    for number, outcome in enumerate(outcomes):
        for index, message in sorted(outcome.errors.items()):
            where = (f"chunk {number}" if index < 0
                     else f"job {len(payloads) + index}")
            mismatches.append(f"{where}: streamed error: {message}")
        fingerprints += outcome.fingerprints
        payloads += outcome.payloads
    expected = len(replay.fingerprints)
    acked = sum(outcome.total for outcome in outcomes)
    if len(payloads) != expected or acked != expected:
        mismatches.append(f"delivered {len(payloads)} results ({acked} "
                          f"acked) for {expected} submitted jobs")
    mismatches += replay.compare(zip(fingerprints, payloads), "fleet")
    return mismatches, replay.unique_jobs, replay.wall_s


def render(result: CampaignResult) -> str:
    """Human-readable campaign report."""
    scope = "smoke matrix" if result.smoke else "full matrix"
    provenance = result.provenance
    if result.resumed_jobs or result.client_retries:
        provenance += (f" ({result.resumed_jobs} journal-resumed, "
                       f"{result.client_retries} client retries)")
    rows = [
        ("jobs submitted", f"{result.total_jobs:,}"),
        ("unique boots", f"{result.unique_jobs}"),
        ("executed by shards", f"{result.executed}"),
        ("cache hits at submit", f"{result.cache_hits:,}"),
        ("single-flight coalesced", f"{result.coalesced:,}"),
        ("stream wall time", f"{result.wall_s:.2f} s"),
        ("throughput", f"{result.jobs_per_min:,.0f} jobs/min"),
        ("serial replay (unique)", f"{result.serial_wall_s:.2f} s"),
        ("peak workers", f"{result.peak_workers}"),
        ("auto-scale events", f"+{result.scaled_up}/-{result.scaled_down}"),
        ("provenance", provenance),
        ("requeued/quarantined", f"{result.requeued}/{result.quarantined}"),
        ("fleet == serial", "yes" if result.identical else "NO"),
    ]
    out = [f"Fleet campaign ({scope}): async service vs serial sweep, "
           "byte-identity checked",
           format_table(["metric", "value"], rows)]
    for mismatch in result.mismatches[:10]:
        out.append(f"  ! {mismatch}")
    if len(result.mismatches) > 10:
        out.append(f"  ... and {len(result.mismatches) - 10} more")
    return "\n".join(out)
