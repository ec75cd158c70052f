"""Checkpoint/fork branch execution: one trunk boot, many branches.

:class:`BranchRunner` executes a group of boot jobs that share a prefix
fingerprint (same workload/config, different fault plans) as **one**
fault-free trunk boot plus cheap divergent branches, instead of ``N``
full boots.  The pipeline (see :mod:`repro.sim.checkpoint` for why this
is byte-exact):

1. **Trunk** — boot the group's null prefix job once through an
   :class:`~repro.sim.checkpoint.InjectorSlot` whose observer sees every
   fault query before the slot answers it.
2. **Divergence** — at each query, the observer checks every still
   pending cell's throwaway injector against that one query
   (:func:`~repro.sim.checkpoint.first_divergence`).
3. **Branch** — for each cell the query perturbs, the trunk
   ``os.fork()``\\ s a copy-on-write child on the spot.  The child
   installs the cell's plan, answers this query from the cell's own
   injector, runs to quiescence as that cell and pipes the pickled report
   back, while the parent trunk keeps answering null.  A checkpoint is a
   fork, so branching needs POSIX ``fork``; where it is missing,
   :class:`~repro.runner.sweep.SweepRunner` runs every cell from scratch.

The null cell gets the trunk's report; a cell whose plan never perturbs
a query gets that report with its own all-zero fault tally.  A child
that dies or errors falls back to a from-scratch
:func:`~repro.runner.jobs.execute_job`, and so do the cells still waiting
on a trunk that degrades, so branching can degrade but never lose a cell.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import selectors
import traceback
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, NoReturn

from repro.errors import SimulationError
from repro.runner.jobs import SimJob, execute_job, make_boot_simulation
from repro.sim.checkpoint import InjectorSlot, first_divergence


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


@dataclass(slots=True)
class BranchStats:
    """What one :class:`BranchRunner` did across its lifetime.

    Attributes:
        groups: Prefix groups executed via branching.
        prefix_boots: Trunk boots run, one per group.
        branched: Cells resolved by branching (forked + no-divergence).
        forked: Cells executed in copy-on-write fork children.
        no_divergence: Cells answered from a trunk's report because their
            plan perturbs no query the trunk asks.
        fallbacks: Cells that fell back to a from-scratch run (their trunk
            degraded before they diverged, or their fork child failed).
    """

    groups: int = 0
    prefix_boots: int = 0
    branched: int = 0
    forked: int = 0
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

    def fork(self, fingerprint: str) -> int | None:
        """Fork a child for ``fingerprint``, waiting for a free slot first.

        Returns ``None`` in the parent.  In the child it returns the write
        end of the pipe: the child must send its one outcome down it with
        :func:`_exit_child`, and must not touch this pool again.
        """
        while len(self._cells) >= self.max_children:
            self._drain()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            return write_fd
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        self._selector.register(read_fd, selectors.EVENT_READ)
        self._buffers[read_fd] = bytearray()
        self._cells[read_fd] = (fingerprint, pid)
        return None

    def drain(self) -> dict[str, tuple[str, Any]]:
        """Reap every outstanding child; returns fp -> (status, value)."""
        while self._cells:
            self._drain()
        self._selector.close()
        return self.outcomes

    def _drain(self) -> None:
        for key, _events in self._selector.select():
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


def _exit_child(pipe: int, outcome: tuple[str, Any]) -> NoReturn:
    """Send a fork child's one outcome down its pipe, then ``_exit``."""
    try:
        try:
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:  # noqa: BLE001 - marshalled to the parent
            payload = pickle.dumps(("err", traceback.format_exc()),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(pipe, "wb") as sink:
            sink.write(payload)
    finally:
        # Never run the parent's atexit handlers or unwind into its caller.
        os._exit(0)


class _Trunk:
    """One fault-free trunk boot and the observer that branches its cells.

    The observer sees every fault query the trunk asks.  A cell whose
    throwaway injector perturbs the query branches there: the parent
    forks a child that becomes the cell and keeps answering null itself.
    """

    def __init__(self, prefix_job: SimJob, cells: list[tuple[str, SimJob]],
                 pool: _ForkPool):
        self.pool = pool
        self.slot = InjectorSlot(observer=self._observe)
        self.simulation = make_boot_simulation(prefix_job,
                                               injector_slot=self.slot)
        #: (fingerprint, job, throwaway injector; None for the null cell)
        self.pending = [(fp, job, job.fault_plan.compile()
                         if job.fault_plan is not None else None)
                        for fp, job in cells]
        #: In a fork child: the write end of its pipe.
        self.pipe: int | None = None

    def _observe(self, record: tuple[Any, ...]) -> None:
        pending, diverged = [], []
        for cell in self.pending:
            probe = cell[2]
            if (probe is not None
                    and first_divergence((record,), probe) is not None):
                diverged.append(cell)
            else:
                pending.append(cell)
        self.pending = pending
        for fingerprint, job, _probe in diverged:
            pipe = self.pool.fork(fingerprint)
            if pipe is None:
                continue  # the parent trunk keeps answering null
            self.pipe = pipe
            self.simulation.install_plan(job.fault_plan)
            return

    def run(self) -> Any:
        """Boot to the end: a report or post-mortem, or ``None`` for a
        trunk that degraded in the parent, before it became a cell."""
        from repro.core.degraded import DegradedBootError

        try:
            return self.simulation.run()
        except DegradedBootError as exc:
            return exc.report if self.pipe is not None else None
        finally:
            # slot -> observer -> trunk is a cycle holding every outcome.
            self.slot.observer = None


class BranchRunner:
    """Executes prefix-sharing job groups as one trunk + many branches.

    Args:
        jobs: Maximum concurrent fork children.
        min_group: Smallest group worth branching.  A branched group
            costs one full trunk boot plus a fork per diverging cell, so
            groups below this threshold run from scratch.

    Raises:
        SimulationError: On a platform without ``os.fork``.
    """

    def __init__(self, jobs: int = 1, min_group: int = 3):
        if not hasattr(os, "fork"):
            raise SimulationError("branching needs os.fork, which this "
                                  "platform lacks")
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
        """Execute one prefix-sharing group as one trunk boot; returns
        fingerprint -> result.

        A fork child never returns from here: it leaves through
        :func:`_exit_child` in the ``finally`` below, whatever its run did.
        """
        if not group:
            return {}
        self.stats.groups += 1
        pool = _ForkPool(self.jobs)
        trunk = _Trunk(group[0][1].prefix_job(), group, pool)
        self.stats.prefix_boots += 1
        outcome: tuple[str, Any] = ("err", "branch child left its trunk")
        try:
            outcome = ("ok", trunk.run())
        except BaseException:
            if trunk.pipe is None:
                pool.drain()  # leave no child unreaped
                raise
            outcome = ("err", traceback.format_exc())
        finally:
            if trunk.pipe is not None:
                _exit_child(trunk.pipe, outcome)
        report = outcome[1]

        results: dict[str, Any] = {}
        jobs = dict(group)
        for fingerprint, (status, value) in pool.drain().items():
            if status == "ok":
                results[fingerprint] = value
                self.stats.forked += 1
                self.stats.branched += 1
            else:
                # A lost child costs one from-scratch run, never a cell.
                self._fall_back(fingerprint, jobs[fingerprint], results)
        for fingerprint, job, _probe in trunk.pending:
            if report is None:
                # The trunk degraded before this cell diverged.
                self._fall_back(fingerprint, job, results)
                continue
            # The cell's run is the trunk's run, with the cell's own
            # (all-zero) fault tally when it has a plan.
            results[fingerprint] = (
                report if job.fault_plan is None else dataclass_replace(
                    report,
                    injected_faults=job.fault_plan.compile().stats.as_dict()))
            self.stats.no_divergence += 1
            self.stats.branched += 1
        return results

    def _fall_back(self, fingerprint: str, job: SimJob,
                   results: dict[str, Any]) -> None:
        self.stats.fallbacks += 1
        results[fingerprint] = execute_job(job)
