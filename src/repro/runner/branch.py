"""Checkpoint/fork branch execution: one shared prefix, many suffixes.

:class:`BranchRunner` executes a group of boot jobs that share a prefix
fingerprint (same workload/config, different fault plans) as **one**
recorded null boot plus cheap divergent suffixes, instead of ``N`` full
boots.  The pipeline (see :mod:`repro.sim.checkpoint` for why this is
byte-exact):

1. **Probe** — boot the group's null prefix job once with a recording
   :class:`~repro.sim.checkpoint.InjectorSlot`, capturing every fault
   query with its sim time plus the completed master report.  The probe
   is cached under ``probe:<prefix_fingerprint>`` in the shared
   :class:`~repro.runner.cache.ResultCache`, so later sweeps over the
   same prefix skip it entirely.
2. **Divergence** — replay the recorded queries through each cell's
   compiled injector (:func:`~repro.sim.checkpoint.first_divergence`);
   the first perturbed answer's timestamp is where the cell's run stops
   being the null run.  Cells that never diverge are answered from the
   master report directly (their runs *are* the null run, modulo the
   all-zero fault tally); the null cell gets the master report itself.
3. **Branch** — boot the null prefix a second time, pausing the event
   loop just before each distinct divergence time (ascending).  At each
   pause the ``fork`` backend ``os.fork()``\\ s one copy-on-write child
   per cell due there; the child swaps the cell's injector into the
   slot, runs the suffix to quiescence, and pipes the pickled report
   back.  The ``replay`` backend does the same swap in-process on a
   per-cell prefix replay — no speedup, same code path, for platforms
   without ``fork`` and for byte-identity cross-checks.

A child that dies or errors falls back to a from-scratch
:func:`~repro.runner.jobs.execute_job`, so branching can degrade but
never lose a cell.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import selectors
import traceback
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Callable

from repro.errors import SimulationError
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob, execute_job, make_boot_simulation
from repro.sim.checkpoint import InjectorSlot, first_divergence

#: Branch backends.  ``fork`` is the fast path (copy-on-write children);
#: ``replay`` re-runs the prefix per cell in-process and exists for
#: non-forkable platforms and identity cross-checks.
BACKEND_FORK = "fork"
BACKEND_REPLAY = "replay"

#: Cache-key namespace for prefix probes.  Job fingerprints are bare hex
#: digests, so the ``probe:`` prefix can never collide with a result key.
PROBE_KEY = "probe:"


def canonical_bytes(value: Any) -> bytes:
    """Canonical byte encoding of a result, for identity comparisons.

    ``pickle.dumps`` alone is *not* canonical for values containing sets:
    a frozenset's iteration order depends on its insertion history, so an
    otherwise equal report that crossed a process boundary (fork pipe,
    worker pool, disk cache) can re-pickle with its set elements permuted.
    This helper rewrites sets as sorted tuples (recursively, through
    dataclasses and containers) before pickling, making equal values
    encode to equal bytes regardless of how many round-trips they took.
    Dict order is preserved — it reflects deterministic event order and
    *should* participate in the comparison.
    """
    return pickle.dumps(_canonical(value), protocol=pickle.HIGHEST_PROTOCOL)


def _canonical(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted((_canonical(v) for v in value),
                                        key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__,
                tuple((f.name, _canonical(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("__dict__", tuple((_canonical(k), _canonical(v))
                                  for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    return value


def default_backend() -> str:
    """``fork`` where POSIX fork exists, ``replay`` elsewhere."""
    return BACKEND_FORK if hasattr(os, "fork") else BACKEND_REPLAY


@dataclass(slots=True)
class BranchStats:
    """What one :class:`BranchRunner` did across its lifetime.

    Attributes:
        groups: Prefix groups executed via branching.
        probe_boots: Full null boots run to record prefix queries.
        probe_cache_hits: Probes served from the result cache instead.
        prefix_boots: Partial null boots driven to pause points (one per
            group under ``fork``; one per cell under ``replay``).
        branched: Cells resolved by branching (forked + replayed +
            no-divergence).
        forked: Cells executed in copy-on-write fork children.
        replayed: Cells executed via in-process prefix replay.
        no_divergence: Cells answered from the master report because
            their plan never perturbs a prefix query.
        fallbacks: Cells that fell back to a from-scratch run (probe
            degraded, or a fork child failed).
    """

    groups: int = 0
    probe_boots: int = 0
    probe_cache_hits: int = 0
    prefix_boots: int = 0
    branched: int = 0
    forked: int = 0
    replayed: int = 0
    no_divergence: int = 0
    fallbacks: int = 0


class _ForkPool:
    """At most ``max_children`` concurrent forked branch children.

    Children write one pickle to a pipe and ``_exit``; the parent drains
    all pipes with a selector *while* children run, because a pickled
    boot report can exceed the kernel pipe buffer — a child blocked on a
    full pipe that the parent only reads after ``waitpid`` would deadlock.
    """

    def __init__(self, max_children: int):
        self.max_children = max(1, max_children)
        self._selector = selectors.DefaultSelector()
        self._buffers: dict[int, bytearray] = {}
        self._cells: dict[int, tuple[str, int]] = {}  # read fd -> (fp, pid)
        self.outcomes: dict[str, tuple[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._cells)

    def submit(self, fingerprint: str, suffix_fn: Callable[[], Any]) -> None:
        """Fork a child running ``suffix_fn``, waiting for a slot first."""
        while len(self._cells) >= self.max_children:
            self._drain(block=True)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: never touch parent state, never run atexit handlers.
            os.close(read_fd)
            try:
                payload = pickle.dumps(("ok", suffix_fn()),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:  # noqa: BLE001 - marshalled to the parent
                payload = pickle.dumps(("err", traceback.format_exc()),
                                       protocol=pickle.HIGHEST_PROTOCOL)
            try:
                with os.fdopen(write_fd, "wb") as sink:
                    sink.write(payload)
            finally:
                os._exit(0)
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        self._selector.register(read_fd, selectors.EVENT_READ)
        self._buffers[read_fd] = bytearray()
        self._cells[read_fd] = (fingerprint, pid)

    def drain(self) -> dict[str, tuple[str, Any]]:
        """Wait for every outstanding child; returns fp -> (status, value)."""
        while self._cells:
            self._drain(block=True)
        self._selector.close()
        return self.outcomes

    def _drain(self, block: bool) -> None:
        timeout = None if block else 0
        for key, _events in self._selector.select(timeout=timeout):
            fd = key.fd
            while True:
                try:
                    chunk = os.read(fd, 1 << 16)
                except BlockingIOError:
                    break
                if not chunk:
                    self._finish(fd)
                    break
                self._buffers[fd].extend(chunk)

    def _finish(self, fd: int) -> None:
        fingerprint, pid = self._cells.pop(fd)
        payload = bytes(self._buffers.pop(fd))
        self._selector.unregister(fd)
        os.close(fd)
        os.waitpid(pid, 0)
        try:
            self.outcomes[fingerprint] = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - truncated pipe = child died hard
            self.outcomes[fingerprint] = (
                "err", f"branch child for {fingerprint[:12]} returned "
                       f"{len(payload)} undecodable bytes")


def _run_suffix(prefix, fault_plan) -> Any:
    """Swap ``fault_plan`` into a paused prefix and run it to the end."""
    from repro.core.degraded import DegradedBootError

    prefix.install_plan(fault_plan)
    try:
        return prefix.complete()
    except DegradedBootError as exc:
        return exc.report


class BranchRunner:
    """Executes prefix-sharing job groups as one prefix + many branches.

    Args:
        cache: Shared result cache; prefix probes are stored under
            ``probe:<prefix_fingerprint>`` so they hit across sweeps.
            ``None`` disables probe caching.
        backend: ``"fork"`` or ``"replay"``; ``None`` picks
            :func:`default_backend`.
        jobs: Maximum concurrent fork children (the replay backend is
            always serial).
        min_group: Smallest group worth branching.  A branched group
            costs roughly one full probe boot plus a partial prefix boot
            before any cell is saved, so groups below this threshold run
            from scratch.
    """

    def __init__(self, cache: ResultCache | None = None,
                 backend: str | None = None, jobs: int = 1,
                 min_group: int = 3):
        backend = backend if backend is not None else default_backend()
        if backend not in (BACKEND_FORK, BACKEND_REPLAY):
            raise SimulationError(f"unknown branch backend {backend!r}")
        if backend == BACKEND_FORK and not hasattr(os, "fork"):
            raise SimulationError("fork backend unavailable on this platform")
        self.cache = cache
        self.backend = backend
        self.jobs = max(1, int(jobs))
        self.min_group = max(2, int(min_group))
        self.stats = BranchStats()

    # ------------------------------------------------------------ grouping

    def partition(self, entries: list[tuple[str, SimJob]],
                  ) -> tuple[list[list[tuple[str, SimJob]]],
                             list[tuple[str, SimJob]]]:
        """Split ``(fingerprint, job)`` pairs into branchable groups + rest.

        Jobs are grouped by :meth:`SimJob.prefix_fingerprint`; groups
        smaller than ``min_group``, and jobs that cannot branch at all
        (recovery/kernel kinds, path-fault plans), land in ``rest`` for
        ordinary from-scratch execution.
        """
        by_prefix: dict[str, list[tuple[str, SimJob]]] = {}
        rest: list[tuple[str, SimJob]] = []
        for fingerprint, job in entries:
            if job.branchable():
                by_prefix.setdefault(job.prefix_fingerprint(), []).append(
                    (fingerprint, job))
            else:
                rest.append((fingerprint, job))
        groups: list[list[tuple[str, SimJob]]] = []
        for cells in by_prefix.values():
            if len(cells) >= self.min_group:
                groups.append(cells)
            else:
                rest.extend(cells)
        return groups, rest

    # ----------------------------------------------------------- execution

    def run_group(self, group: list[tuple[str, SimJob]]) -> dict[str, Any]:
        """Execute one prefix-sharing group; returns fingerprint -> result."""
        if not group:
            return {}
        self.stats.groups += 1
        template = group[0][1]
        prefix_job = template.prefix_job()
        probe = self._probe(prefix_job)
        if probe is None:
            # The null prefix itself cannot complete (degraded without any
            # injected fault) — branching has no healthy trunk to share.
            self.stats.fallbacks += len(group)
            return {fp: execute_job(job) for fp, job in group}
        records, master_report = probe

        results: dict[str, Any] = {}
        pending: list[tuple[str, SimJob, int]] = []  # (fp, job, pause time)
        for fingerprint, job in group:
            plan = job.fault_plan
            divergence = (first_divergence(records, plan.compile())
                          if plan is not None else None)
            if plan is None:
                results[fingerprint] = master_report
                self.stats.no_divergence += 1
                self.stats.branched += 1
            elif divergence is None:
                # The plan perturbs nothing this boot asks: the cell's run
                # is the master run with its own (all-zero) fault tally.
                results[fingerprint] = dataclass_replace(
                    master_report,
                    injected_faults=plan.compile().stats.as_dict())
                self.stats.no_divergence += 1
                self.stats.branched += 1
            else:
                # Pause strictly before the first event at the divergence
                # time: every same-time event then runs inside the branch,
                # in the same seq order as from scratch.
                pending.append((fingerprint, job, divergence - 1))

        if pending:
            if self.backend == BACKEND_FORK:
                self._run_forked(prefix_job, pending, results)
            else:
                self._run_replayed(prefix_job, pending, results)
        return results

    def _run_forked(self, prefix_job: SimJob,
                    pending: list[tuple[str, SimJob, int]],
                    results: dict[str, Any]) -> None:
        """One rolling prefix boot; fork a CoW child per cell at its pause."""
        by_target: dict[int, list[tuple[str, SimJob]]] = {}
        for fingerprint, job, target in pending:
            by_target.setdefault(target, []).append((fingerprint, job))
        jobs_by_fp = {fp: job for fp, job, _ in pending}

        prefix = make_boot_simulation(prefix_job, injector_slot=InjectorSlot())
        prefix.start()
        self.stats.prefix_boots += 1
        pool = _ForkPool(self.jobs)
        for target in sorted(by_target):
            if target >= 0:
                assert prefix.sim is not None
                prefix.sim.run(until_ns=target)
            for fingerprint, job in by_target[target]:
                plan = job.fault_plan
                pool.submit(fingerprint,
                            lambda plan=plan: _run_suffix(prefix, plan))
        for fingerprint, (status, value) in pool.drain().items():
            if status == "ok":
                results[fingerprint] = value
                self.stats.forked += 1
                self.stats.branched += 1
            else:
                # A lost child costs one from-scratch run, never a cell.
                self.stats.fallbacks += 1
                results[fingerprint] = execute_job(jobs_by_fp[fingerprint])

    def _run_replayed(self, prefix_job: SimJob,
                      pending: list[tuple[str, SimJob, int]],
                      results: dict[str, Any]) -> None:
        """Per-cell prefix replay + in-process swap (the fallback backend)."""
        for fingerprint, job, target in pending:
            prefix = make_boot_simulation(prefix_job,
                                          injector_slot=InjectorSlot())
            prefix.start()
            self.stats.prefix_boots += 1
            if target >= 0:
                assert prefix.sim is not None
                prefix.sim.run(until_ns=target)
            assert job.fault_plan is not None
            results[fingerprint] = _run_suffix(prefix, job.fault_plan)
            self.stats.replayed += 1
            self.stats.branched += 1

    # --------------------------------------------------------------- probe

    def _probe(self, prefix_job: SimJob) -> tuple[list, Any] | None:
        """Record the group's null prefix; ``None`` = degraded prefix.

        Returns ``(records, master_report)``, served from the cache when a
        previous sweep already probed this prefix fingerprint.
        """
        from repro.core.degraded import DegradedBootError

        key = PROBE_KEY + prefix_job.prefix_fingerprint()
        if self.cache is not None:
            hit, value = self.cache.get(key)
            if hit:
                self.stats.probe_cache_hits += 1
                return value
        slot = InjectorSlot(record=True)
        simulation = make_boot_simulation(prefix_job, injector_slot=slot)
        self.stats.probe_boots += 1
        try:
            report = simulation.run()
        except DegradedBootError:
            value = None
        else:
            assert slot.records is not None
            value = (slot.records, report)
        if self.cache is not None:
            self.cache.put(key, value)
        return value
