"""The job-queue/scheduler layer shared by sweeps and the fleet service.

Extracted from :class:`~repro.runner.sweep.SweepRunner` so the same
scheduling semantics serve both execution styles:

* :func:`plan_batch` — the batch cuts: fingerprint every submitted job,
  collapse duplicates onto their first occurrence, and serve whatever
  the :class:`~repro.runner.cache.ResultCache` already knows.  This is
  what ``SweepRunner.run`` does before anything executes.
* :class:`JobScheduler` — the long-running form of the same idea for
  :mod:`repro.fleet`: a priority queue with **single-flight dedup**
  (identical in-flight fingerprints execute once, every waiter gets the
  result), **fair-share dispatch** across submitting clients, and
  **per-client submission-order delivery** (a client's results stream
  back in the order it submitted, no matter how completions interleave).

``JobScheduler`` is deliberately synchronous and event-loop-agnostic:
the fleet service drives it from asyncio, the property tests drive it
from hypothesis, and both see the exact same state machine.

This module also owns the worker-count policy shared by every CLI
surface (:func:`resolve_worker_count`): one place to validate ``--jobs``
and to default to the machine's CPU count.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob

#: Ticket lifecycle states.
PENDING = "pending"      # queued or attached to an in-flight fingerprint
RUNNING = "running"      # its fingerprint has been dispatched to a worker
DONE = "done"            # result (or error) available
DELIVERED = "delivered"  # drained by the client stream


def resolve_worker_count(value: int | None) -> int:
    """Validate a ``--jobs``/worker-count option in one shared place.

    ``None`` defaults to :func:`os.cpu_count` (minimum 1); anything below
    1 is rejected with a :class:`~repro.errors.ConfigurationError` rather
    than silently clamped, so a typo like ``--jobs 0`` fails loudly.
    """
    if value is None:
        return os.cpu_count() or 1
    if value < 1:
        raise ConfigurationError(
            f"worker count must be >= 1, got {value!r} "
            f"(omit the option to default to the CPU count)")
    return int(value)


# --------------------------------------------------------------- batch cuts


@dataclass(slots=True)
class BatchPlan:
    """What :func:`plan_batch` decided about one submitted batch.

    Attributes:
        fingerprints: One fingerprint per submitted job, positionally.
        results: Fingerprint -> result for jobs already satisfied (cache).
        missing: ``(fingerprint, job)`` pairs that still need executing,
            first-seen order, duplicates collapsed.
        deduplicated: Submissions collapsed onto an identical job in the
            same batch.
        cache_hits: Unique jobs served from the result cache.
    """

    fingerprints: list[str]
    results: dict[str, Any]
    missing: list[tuple[str, SimJob]]
    deduplicated: int
    cache_hits: int


def plan_batch(jobs: Sequence[SimJob], cache: ResultCache) -> BatchPlan:
    """Fingerprint, dedup, and cache-cut a batch of jobs.

    The execution tier (pool, branch runner, or fleet shard) only ever
    sees ``plan.missing``; everything else is already answered.
    """
    fingerprints = [job.fingerprint() for job in jobs]

    unique: dict[str, SimJob] = {}
    deduplicated = 0
    for fingerprint, job in zip(fingerprints, jobs):
        if fingerprint in unique:
            deduplicated += 1
        else:
            unique[fingerprint] = job

    results: dict[str, Any] = {}
    missing: list[tuple[str, SimJob]] = []
    cache_hits = 0
    for fingerprint, job in unique.items():
        hit, value = cache.get(fingerprint)
        if hit:
            cache_hits += 1
            results[fingerprint] = value
        else:
            missing.append((fingerprint, job))
    return BatchPlan(fingerprints=fingerprints, results=results,
                     missing=missing, deduplicated=deduplicated,
                     cache_hits=cache_hits)


# ------------------------------------------------------------ the scheduler


@dataclass(slots=True)
class Ticket:
    """One submitted job instance, owned by one client.

    Many tickets may share one fingerprint (the fleet's whole point);
    execution is per fingerprint, delivery is per ticket.

    Attributes:
        client: Submitting client id.
        seq: Per-client submission index (0, 1, 2, ...), assigned by the
            scheduler; delivery is strictly in ``seq`` order per client.
        job: The declarative job.
        fingerprint: ``job.fingerprint()``, computed once at submit.
        priority: Larger numbers dispatch first.
        state: ``pending`` -> ``running`` -> ``done`` -> ``delivered``.
        cached: The ticket was answered by the result cache at submit
            time (it never waited on a worker).
        result: The job's result once ``done``.
        error: Stringified execution failure, mutually exclusive with
            ``result``.
    """

    client: str
    seq: int
    job: SimJob
    fingerprint: str
    priority: int = 0
    state: str = PENDING
    cached: bool = False
    result: Any = None
    error: str | None = None


@dataclass(slots=True)
class SchedulerStats:
    """Lifetime accounting for one :class:`JobScheduler`.

    Attributes:
        submitted: Tickets accepted.
        cache_hits: Tickets answered from the cache at submit time.
        coalesced: Tickets attached to an already queued or in-flight
            fingerprint (single-flight dedup).
        dispatched: Unique fingerprints handed to the execution tier.
        completed: Unique fingerprints that finished successfully.
        failed: Unique fingerprints that finished with an error.
        requeued: In-flight fingerprints returned to the queue after
            their worker died (each later re-dispatch counts in
            ``dispatched`` again).
        delivered: Tickets drained by client streams.
    """

    submitted: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    requeued: int = 0
    delivered: int = 0


@dataclass(slots=True)
class _PriorityBand:
    """Per-priority dispatch state: FIFO per client + fair-share rotation."""

    queues: dict[str, deque[str]] = field(default_factory=dict)
    rotation: deque[str] = field(default_factory=deque)

    def push(self, client: str, fingerprint: str) -> None:
        queue = self.queues.get(client)
        if queue is None:
            queue = self.queues[client] = deque()
        if client not in self.rotation:
            self.rotation.append(client)
        queue.append(fingerprint)

    def pop(self) -> str | None:
        """Next fingerprint, round-robin across clients (fair share)."""
        while self.rotation:
            client = self.rotation[0]
            queue = self.queues.get(client)
            if not queue:
                self.rotation.popleft()
                self.queues.pop(client, None)
                continue
            fingerprint = queue.popleft()
            # Rotate so this client's next job waits behind everyone
            # else's head-of-line job.
            self.rotation.rotate(-1)
            if not queue:
                self.rotation.remove(client)
                self.queues.pop(client, None)
            return fingerprint
        return None

    def __len__(self) -> int:
        return sum(len(queue) for queue in self.queues.values())


class JobScheduler:
    """Priority queue + single-flight dedup + ordered per-client delivery.

    The contract (enforced by ``tests/property/test_scheduler_properties``
    under arbitrary interleavings of submit/dispatch/complete):

    * a fingerprint is dispatched **at most once**, ever — concurrent
      submissions of the same job attach to the in-flight execution, and
      completed fingerprints are answered by the cache;
    * each client drains its results in exactly its submission order,
      regardless of priorities or completion order;
    * dispatch picks the highest priority band first and round-robins
      across clients inside a band, so one flood submitter cannot starve
      the rest.

    Args:
        cache: Result store consulted at submit time and fed at
            completion; defaults to a fresh in-memory cache.
    """

    def __init__(self, cache: ResultCache | None = None):
        self.cache = cache if cache is not None else ResultCache()
        self.stats = SchedulerStats()
        self._bands: dict[int, _PriorityBand] = {}
        self._waiters: dict[str, list[Ticket]] = {}
        self._queued: set[str] = set()
        self._inflight: dict[str, SimJob] = {}
        self._delivery: dict[str, deque[Ticket]] = {}
        self._next_seq: dict[str, int] = {}

    # -------------------------------------------------------------- submit

    def submit(self, client: str, job: SimJob, priority: int = 0) -> Ticket:
        """Accept one job instance from ``client``; returns its ticket.

        The ticket may already be ``done`` (cache hit); call
        :meth:`drain` to collect whatever became deliverable.
        """
        seq = self._next_seq.get(client, 0)
        self._next_seq[client] = seq + 1
        fingerprint = job.fingerprint()
        ticket = Ticket(client=client, seq=seq, job=job,
                        fingerprint=fingerprint, priority=priority)
        self._delivery.setdefault(client, deque()).append(ticket)
        self.stats.submitted += 1

        waiters = self._waiters.get(fingerprint)
        if waiters is not None:
            # Single-flight: the fingerprint is already queued or
            # executing; this ticket rides along.
            waiters.append(ticket)
            self.stats.coalesced += 1
            return ticket
        hit, value = self.cache.get(fingerprint)
        if hit:
            ticket.state = DONE
            ticket.result = value
            ticket.cached = True
            self.stats.cache_hits += 1
            return ticket
        self._waiters[fingerprint] = [ticket]
        self._queued.add(fingerprint)
        band = self._bands.get(priority)
        if band is None:
            band = self._bands[priority] = _PriorityBand()
        band.push(client, fingerprint)
        return ticket

    # ------------------------------------------------------------ dispatch

    def next_batch(self, limit: int) -> list[tuple[str, SimJob]]:
        """Pop up to ``limit`` unique jobs for execution, marking them
        in-flight.  Highest priority band first, fair-share within."""
        batch: list[tuple[str, SimJob]] = []
        while len(batch) < limit:
            entry = self._pop_ready()
            if entry is None:
                break
            batch.append(entry)
        return batch

    def _pop_ready(self) -> tuple[str, SimJob] | None:
        for priority in sorted(self._bands, reverse=True):
            band = self._bands[priority]
            while True:
                fingerprint = band.pop()
                if fingerprint is None:
                    del self._bands[priority]
                    break
                self._queued.discard(fingerprint)
                waiters = self._waiters.get(fingerprint)
                if not waiters:
                    # Every submitter disconnected while it was queued;
                    # nobody wants the result any more.
                    self._waiters.pop(fingerprint, None)
                    continue
                representative = waiters[0]
                representative.state = RUNNING
                self._inflight[fingerprint] = representative.job
                self.stats.dispatched += 1
                return fingerprint, representative.job
        return None

    # ---------------------------------------------------------- completion

    def complete(self, fingerprint: str, result: Any) -> list[str]:
        """Record a finished execution; returns the clients that may now
        have deliverable results (call :meth:`drain` per client)."""
        self.cache.put(fingerprint, result)
        self.stats.completed += 1
        return self._resolve(fingerprint, result=result)

    def requeue(self, fingerprint: str) -> bool:
        """Return an in-flight fingerprint to the queue (its worker died
        before producing a result).  Waiting tickets keep waiting; the
        representative goes back to ``pending`` and the fingerprint is
        re-queued under its original client and priority.  Returns
        ``False`` — and drops the fingerprint — when it is not in flight
        or no ticket still wants the result.
        """
        if fingerprint not in self._inflight:
            return False
        del self._inflight[fingerprint]
        waiters = self._waiters.get(fingerprint)
        if not waiters:
            self._waiters.pop(fingerprint, None)
            return False
        representative = waiters[0]
        representative.state = PENDING
        self._queued.add(fingerprint)
        band = self._bands.get(representative.priority)
        if band is None:
            band = self._bands[representative.priority] = _PriorityBand()
        band.push(representative.client, fingerprint)
        self.stats.requeued += 1
        return True

    def fail(self, fingerprint: str, error: str) -> list[str]:
        """Record a failed execution; every waiting ticket carries the
        error.  The fingerprint is *not* cached, so a later resubmission
        retries the job."""
        self.stats.failed += 1
        return self._resolve(fingerprint, error=error)

    def _resolve(self, fingerprint: str, result: Any = None,
                 error: str | None = None) -> list[str]:
        tickets = self._waiters.pop(fingerprint, [])
        self._inflight.pop(fingerprint, None)
        self._queued.discard(fingerprint)
        clients: list[str] = []
        for ticket in tickets:
            ticket.state = DONE
            ticket.result = result
            ticket.error = error
            if ticket.client not in clients:
                clients.append(ticket.client)
        return clients

    # ------------------------------------------------------------ delivery

    def drain(self, client: str) -> list[Ticket]:
        """Pop the client's deliverable prefix: every leading ticket whose
        result is ready, in submission order."""
        queue = self._delivery.get(client)
        if not queue:
            return []
        delivered: list[Ticket] = []
        while queue and queue[0].state == DONE:
            ticket = queue.popleft()
            ticket.state = DELIVERED
            delivered.append(ticket)
        if not queue:
            self._delivery.pop(client, None)
        self.stats.delivered += len(delivered)
        return delivered

    def forget_client(self, client: str) -> int:
        """Drop a disconnected client's undelivered tickets (their
        fingerprints keep executing for single-flight peers); returns how
        many tickets were dropped."""
        queue = self._delivery.pop(client, None)
        if not queue:
            return 0
        dropped = {id(ticket) for ticket in queue}
        for waiters in self._waiters.values():
            waiters[:] = [t for t in waiters if id(t) not in dropped]
        return len(dropped)

    # -------------------------------------------------------------- status

    @property
    def queued(self) -> int:
        """Unique fingerprints waiting for a worker."""
        return len(self._queued)

    @property
    def inflight(self) -> int:
        """Unique fingerprints currently executing."""
        return len(self._inflight)

    @property
    def idle(self) -> bool:
        """No work queued or executing (delivery buffers may be nonempty)."""
        return not self._queued and not self._inflight
