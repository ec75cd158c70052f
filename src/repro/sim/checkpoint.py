"""Checkpoint/fork support: branch each cell off one null boot at its
first perturbed fault query.

Matrix sweeps re-simulate the same boot prefix for every cell even though
cells only start to differ at their first injected fault.  This module is
the seam that lets a sweep boot that prefix *once*, as a fault-free
**trunk**, and branch each cell off it where the cell diverges -- rr's
checkpoint taken by forking the process at the moment one is needed,
applied to a deterministic DES (see ``docs/performance.md``).  It rests
on two properties:

1. **A null slot is invisible.**  Until a plan is swapped in, an
   :class:`InjectorSlot` answers every fault query with the null answer,
   which is control-flow and event-stream identical to running with no
   injector at all: a trunk boot *is* the fault-free boot, byte for byte.
2. **Injector answers are pure.**  Every :class:`~repro.faults.injector.
   BootFaultInjector` decision is a function of ``(seed, stream, stable
   identity)``, never of draw order (the storage request counter aside,
   which the slot carries), so a throwaway injector decides at the query
   itself whether the cell would answer it differently
   (:func:`first_divergence`).

So up to its first perturbed answer a cell asks the same questions as the
null run, in the same order, and gets the same answers: its run *is* the
trunk's run up to that query.  The slot offers every query to an
observer before answering it; at a cell's first perturbed query the
observer forks a copy-on-write child, and the child installs the cell's
injector, which answers this very query.
From there the branch is the cell's own from-scratch run, continued on
the same stack: byte-identical by construction, with no pause and no
replay.  :class:`~repro.runner.branch.BranchRunner` drives this.

Plans with ``paths`` specs are *structural*: missing/late device paths
are blocked at init-manager construction and their lift events are
scheduled at init start, which changes the prefix itself.  Such cells
cannot branch and must run from scratch (see ``SimJob.branchable``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError
from repro.faults.injector import InjectedStats, ServiceDecision

if TYPE_CHECKING:
    from repro.faults.injector import BootFaultInjector
    from repro.sim.engine import Simulator

#: Query record kinds an :class:`InjectorSlot` offers its observer.  Each
#: record is a plain tuple whose last element is the sim time of the query.
STORAGE = "storage"      # (STORAGE, index, nbytes, is_write, time_ns)
SERVICE = "service"      # (SERVICE, unit, attempt, time_ns)
MODULE = "module"        # (MODULE, module, time_ns)
SETTLE = "settle"        # (SETTLE, unit, attempt, base_ns, time_ns)
DEFERRED = "deferred"    # (DEFERRED, task, attempt, time_ns)

_NULL_DECISION = ServiceDecision(fail=False, hang_ns=0)


class InjectorSlot:
    """A swappable fault-injector seam for checkpoint/fork branching.

    Installed wherever a boot would wire a real injector (storage fault
    hook, module-loader hook, init manager, job executor).  Until
    :meth:`swap` is called it answers every query with the *null* answer —
    no extra latency, no failure, base settle time — which is control-flow
    and event-stream identical to running with no injector at all.  After
    ``swap`` every query (and the ``stats`` tally the manager writes into)
    forwards to the real injector, so the run continues exactly as if that
    injector had been present from the start.

    While un-swapped the slot offers each query, as a record (see the
    record-kind constants), to its ``observer`` before answering it; an
    injector the observer swaps in answers that query already.

    The one piece of per-run injector state that is *not* a pure function
    of the query identity is the storage request counter; the slot counts
    every storage query from t=0 and seeds the real injector's counter at
    swap time, so the swapped injector addresses the request it was
    swapped in at, and every later one, by a from-scratch run's index.

    Args:
        record: Append every query record to :attr:`records`; the
            observer is then ``records.append`` and ``observer`` is unused.
        observer: Called with every query record while un-swapped.
    """

    def __init__(self, record: bool = False,
                 observer: Callable[[tuple[Any, ...]], None] | None = None):
        self.delegate: "BootFaultInjector | None" = None
        self.records: list[tuple[Any, ...]] | None = [] if record else None
        self.observer = self.records.append if record else observer
        self._sim: "Simulator | None" = None
        self._storage_requests = 0
        self._null_stats = InjectedStats()

    # ------------------------------------------------------------ lifecycle

    def attach(self, sim: "Simulator") -> None:
        """Bind the simulator whose clock timestamps query records."""
        self._sim = sim

    def swap(self, injector: "BootFaultInjector") -> None:
        """Install the real injector; all later queries forward to it."""
        if self.delegate is not None:
            raise SimulationError("InjectorSlot.swap() called twice")
        injector._storage_requests = self._storage_requests
        self.delegate = injector

    @property
    def swapped(self) -> bool:
        """True once a real injector has been installed."""
        return self.delegate is not None

    def _now(self) -> int:
        assert self._sim is not None, "InjectorSlot used before attach()"
        return self._sim.now

    # ----------------------------------------------- the injector surface

    @property
    def stats(self) -> InjectedStats:
        """Tally the manager/executor write into (forwards after swap)."""
        return (self.delegate.stats if self.delegate is not None
                else self._null_stats)

    @property
    def blocked_paths(self) -> frozenset[str]:
        # Branchable plans never block paths; pre-swap the answer is the
        # null one and the manager reads this exactly once, at construction.
        return (self.delegate.blocked_paths if self.delegate is not None
                else frozenset())

    def late_paths(self) -> tuple[tuple[str, int], ...]:
        return (self.delegate.late_paths() if self.delegate is not None
                else ())

    def path_blocked(self, path: str) -> bool:
        return (self.delegate.path_blocked(path)
                if self.delegate is not None else False)

    def _null(self, *query: Any) -> bool:
        """Offer an un-swapped query to the observer; True if it is to be
        answered null, False if a real injector (maybe just swapped in by
        the observer) answers it."""
        if self.delegate is None and self.observer is not None:
            self.observer((*query, self._now()))
        return self.delegate is None

    def storage_extra_ns(self, nbytes: int, is_write: bool) -> int:
        index = self._storage_requests
        if self._null(STORAGE, index, nbytes, is_write):
            self._storage_requests = index + 1
            return 0
        return self.delegate.storage_extra_ns(nbytes, is_write)

    def service_decision(self, unit: str, attempt: int) -> ServiceDecision:
        if self._null(SERVICE, unit, attempt):
            return _NULL_DECISION
        return self.delegate.service_decision(unit, attempt)

    def module_decision(self, module: str) -> tuple[bool, int]:
        if self._null(MODULE, module):
            return False, 0
        return self.delegate.module_decision(module)

    def settle_ns(self, unit: str, attempt: int, base_ns: int) -> int:
        if self._null(SETTLE, unit, attempt, base_ns):
            return base_ns
        return self.delegate.settle_ns(unit, attempt, base_ns)

    def deferred_fails(self, task: str, attempt: int) -> bool:
        if self._null(DEFERRED, task, attempt):
            return False
        return self.delegate.deferred_fails(task, attempt)

    def __repr__(self) -> str:
        state = (f"swapped:{self.delegate!r}" if self.delegate is not None
                 else ("recording" if self.records is not None
                       else "observed" if self.observer is not None
                       else "null"))
        return f"InjectorSlot({state}, storage_requests={self._storage_requests})"


def first_divergence(records: Iterable[tuple[Any, ...]],
                     injector: "BootFaultInjector") -> int | None:
    """Sim time of the first query record ``injector`` perturbs.

    Evaluates a throwaway compiled injector over query records of a null
    (fault-free) boot, in query order, and returns the timestamp of the
    first query whose answer differs from the null answer — the cell's
    divergence time.  ``None`` means the injector perturbs none of them.
    The branch runner calls it with one record at a time, as the trunk
    asks each query; over a whole recording, ``None`` means the cell's run
    *is* the null run (modulo the all-zero fault tally in its report).

    This is sound because injector answers are pure functions of
    ``(seed, stream, identity)``: a from-scratch run of the cell asks the
    exact same questions in the exact same order up to its first
    perturbing answer, so the null boot's queries cover everything that
    can diverge.  The injector's storage counter is force-aligned to each
    record's request index, and the per-query ``stats`` writes land on
    this throwaway instance, so evaluation has no side effects on the
    caller.

    Args:
        records: Query records of a null boot of the cell's prefix job
            (what an :class:`InjectorSlot` offers its observer).
        injector: A freshly compiled injector for the cell's plan, fed
            the records in query order.  Do not reuse it for a live run.
    """
    for record in records:
        kind = record[0]
        if kind == STORAGE:
            _, index, nbytes, is_write, time_ns = record
            injector._storage_requests = index
            if injector.storage_extra_ns(nbytes, is_write):
                return time_ns
        elif kind == SERVICE:
            _, unit, attempt, time_ns = record
            decision = injector.service_decision(unit, attempt)
            if decision.fail or decision.hang_ns:
                return time_ns
        elif kind == MODULE:
            _, module, time_ns = record
            fail, extra_ns = injector.module_decision(module)
            if fail or extra_ns:
                return time_ns
        elif kind == SETTLE:
            _, unit, attempt, base_ns, time_ns = record
            if injector.settle_ns(unit, attempt, base_ns) != base_ns:
                return time_ns
        elif kind == DEFERRED:
            _, task, attempt, time_ns = record
            if injector.deferred_fails(task, attempt):
                return time_ns
        else:
            raise SimulationError(f"unknown query record kind {kind!r}")
    return None
