"""Job transactions: dependency closure, ordering edges, cycle breaking.

Building a start transaction for a goal unit (normally
``multi-user.target``) follows systemd's model:

1. pull in the transitive closure of ``Requires`` and ``Wants``,
2. derive ordering edges — strong edges (wait until the predecessor is
   *ready*) from ``Requires``/``After``/``Before``, weak edges (wait until
   the predecessor has been *launched*) from ``Wants``,
3. verify no two units in the transaction conflict,
4. detect ordering cycles; a cycle is broken by deleting a job that is
   only weakly pulled (``Wants``), mirroring systemd's behaviour of
   dropping non-essential jobs; an all-strong cycle is a hard error —
   exactly the situation the paper's Fig. 3 warns about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import DependencyCycleError, TransactionError, UnitNotFoundError
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import Unit

if TYPE_CHECKING:
    from repro.sim.sync import Completion


class JobState(enum.Enum):
    """Lifecycle of a start job."""

    WAITING = "waiting"  # ordering predecessors not yet satisfied
    RUNNING = "running"  # start work in progress
    READY = "ready"  # unit active (dependents may proceed)
    DONE = "done"  # start work fully finished
    FAILED = "failed"
    SKIPPED = "skipped"  # condition (ConditionPathExists) not met


class EdgeKind(enum.Enum):
    """Ordering edge strength (the red/green split of Fig. 2)."""

    STRONG = "strong"  # successor waits for predecessor readiness
    WEAK = "weak"  # successor waits for predecessor launch


@dataclass(frozen=True, slots=True)
class OrderingEdge:
    """``successor`` must wait for ``predecessor`` (per ``kind``)."""

    predecessor: str
    successor: str
    kind: EdgeKind


@dataclass(slots=True)
class Job:
    """A start job for one unit within a transaction.

    The two completions implement the two ordering strengths: ``started``
    fires when the unit's main process has been launched, ``ready`` when
    the unit counts as active for its service type.
    """

    unit: Unit
    state: JobState = JobState.WAITING
    pulled_strongly: bool = True
    started: "Completion | None" = None
    ready: "Completion | None" = None
    settled: "Completion | None" = None  # fires on ready OR permanent failure
    started_at_ns: int | None = None
    ready_at_ns: int | None = None
    done_at_ns: int | None = None
    attempts: int = 0
    # Launch time of every attempt, in order; ``started_at_ns`` tracks the
    # most recent one (the attempt that eventually succeeded, for a unit
    # that was restarted), while the ``started`` completion keeps
    # first-fire semantics for dependents.
    attempt_started_ns: list[int] = field(default_factory=list)
    # Launch instants of *every* attempt including ones that crashed
    # before the unit counted as started (start-rate limiting counts
    # those too), and the backoff delay slept before each restart —
    # the §2.5.2 restart/backoff history the recovery report exports.
    attempt_began_ns: list[int] = field(default_factory=list)
    restart_delays_ns: list[int] = field(default_factory=list)
    failure_reason: str | None = None

    @property
    def name(self) -> str:
        """Unit name this job starts."""
        return self.unit.name


class Transaction:
    """A validated set of start jobs plus their ordering edges."""

    def __init__(self, registry: UnitRegistry, goals: Iterable[str]):
        self.registry = registry
        self.goals = list(goals)
        self.jobs: dict[str, Job] = {}
        self.edges: list[OrderingEdge] = []
        self.dropped_jobs: list[str] = []
        self._incoming: dict[str, list[OrderingEdge]] = {}
        self._build()

    # ------------------------------------------------------------- building

    def _build(self) -> None:
        self._pull_closure()
        self._derive_edges()
        self._check_conflicts()
        self._break_cycles()
        # Edges are final from here on: jobs added later (``OnFailure=``
        # handlers) come without edges.
        for edge in self.edges:
            self._incoming.setdefault(edge.successor, []).append(edge)

    def _pull_closure(self) -> None:
        """Closure over Requires (strong pull) and Wants (weak pull)."""
        queue: list[tuple[str, bool]] = [(goal, True) for goal in self.goals]
        while queue:
            name, strong = queue.pop(0)
            if name in self.jobs:
                if strong and not self.jobs[name].pulled_strongly:
                    self.jobs[name].pulled_strongly = True
                    # Re-walk so its requires become strongly pulled too.
                    unit = self.jobs[name].unit
                    queue.extend((dep, True) for dep in unit.requires)
                continue
            try:
                unit = self.registry.get(name)
            except UnitNotFoundError:
                if strong:
                    raise
                continue  # missing Wants are ignored, like systemd
            job = Job(unit=unit, pulled_strongly=strong)
            self.jobs[name] = job
            queue.extend((dep, strong) for dep in unit.requires)
            queue.extend((dep, False) for dep in unit.wants)

    def _derive_edges(self) -> None:
        seen: set[tuple[str, str, EdgeKind]] = set()

        def add(pred: str, succ: str, kind: EdgeKind) -> None:
            if pred not in self.jobs or succ not in self.jobs or pred == succ:
                return
            key = (pred, succ, kind)
            if key not in seen:
                seen.add(key)
                self.edges.append(OrderingEdge(pred, succ, kind))

        for job in self.jobs.values():
            unit = job.unit
            for dep in unit.requires:
                add(dep, unit.name, EdgeKind.STRONG)
            for dep in unit.wants:
                add(dep, unit.name, EdgeKind.WEAK)
            for dep in unit.after:
                add(dep, unit.name, EdgeKind.STRONG)
            for succ in unit.before:
                add(unit.name, succ, EdgeKind.STRONG)

    def _check_conflicts(self) -> None:
        for job in self.jobs.values():
            for enemy in job.unit.conflicts:
                if enemy in self.jobs:
                    raise TransactionError(
                        f"units {job.name!r} and {enemy!r} conflict but are "
                        f"both pulled into the transaction")

    def _break_cycles(self) -> None:
        """Delete weakly pulled jobs until the ordering graph is acyclic."""
        while True:
            cycle = self._find_cycle()
            if cycle is None:
                return
            victim = next((name for name in cycle
                           if not self.jobs[name].pulled_strongly
                           and name not in self.goals), None)
            if victim is None:
                raise DependencyCycleError(cycle)
            self._drop_job(victim)

    def _drop_job(self, name: str) -> None:
        del self.jobs[name]
        self.edges = [e for e in self.edges
                      if e.predecessor != name and e.successor != name]
        self.dropped_jobs.append(name)

    def _find_cycle(self) -> list[str] | None:
        """Iterative DFS cycle search over the ordering graph."""
        successors: dict[str, list[str]] = {name: [] for name in self.jobs}
        for edge in self.edges:
            successors[edge.predecessor].append(edge.successor)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.jobs}
        parent: dict[str, str] = {}
        for root in self.jobs:
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                node, index = stack[-1]
                if index < len(successors[node]):
                    stack[-1] = (node, index + 1)
                    child = successors[node][index]
                    if color[child] == GRAY:
                        # Reconstruct the cycle child -> ... -> node -> child.
                        cycle = [node]
                        walker = node
                        while walker != child:
                            walker = parent[walker]
                            cycle.append(walker)
                        cycle.reverse()
                        return cycle
                    if color[child] == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, 0))
                else:
                    color[node] = BLACK
                    stack.pop()
        return None

    # -------------------------------------------------------------- queries

    def predecessors(self, name: str) -> list[OrderingEdge]:
        """Ordering edges pointing into ``name``, in edge order (a fresh
        list, served from the index built at the end of construction)."""
        return list(self._incoming.get(name, ()))

    def job(self, name: str) -> Job:
        """The job for ``name``.

        Raises:
            TransactionError: If the unit is not part of the transaction.
        """
        try:
            return self.jobs[name]
        except KeyError:
            raise TransactionError(f"unit {name!r} not in transaction") from None

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, name: str) -> bool:
        return name in self.jobs
