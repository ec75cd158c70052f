"""A typed dependency graph over a unit registry."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.initsys.registry import UnitRegistry


class DependencyKind(enum.Enum):
    """Declared relationship kinds (the edge colours of Fig. 2)."""

    REQUIRES = "requires"  # strong: launch B after A is ready (red)
    WANTS = "wants"  # weak: launch B not before launching A (green)
    BEFORE = "before"  # ordering declared by the predecessor
    AFTER = "after"  # ordering declared by the successor
    CONFLICTS = "conflicts"

    @property
    def is_ordering(self) -> bool:
        """Whether the kind constrains launch order."""
        return self is not DependencyKind.CONFLICTS

    @property
    def is_strong(self) -> bool:
        """Whether the successor must wait for predecessor readiness."""
        return self in (DependencyKind.REQUIRES, DependencyKind.BEFORE,
                        DependencyKind.AFTER)


@dataclass(frozen=True, slots=True)
class GraphEdge:
    """``successor`` declared a ``kind`` relationship on ``predecessor``.

    For every kind the edge is normalized so that ``predecessor`` is the
    unit that must act first (for CONFLICTS the orientation is the
    declaring unit first).
    """

    predecessor: str
    successor: str
    kind: DependencyKind
    declared_by: str


class DependencyGraph:
    """All declared relationships of a registry, with adjacency queries."""

    _EMPTY: tuple[GraphEdge, ...] = ()

    def __init__(self, registry: UnitRegistry):
        self.registry = registry
        self.edges: list[GraphEdge] = []
        out: dict[str, list[GraphEdge]] = {}
        inc: dict[str, list[GraphEdge]] = {}
        for unit in registry:
            for dep in unit.requires:
                self._add(out, inc,
                          GraphEdge(dep, unit.name, DependencyKind.REQUIRES,
                                    declared_by=unit.name))
            for dep in unit.wants:
                self._add(out, inc,
                          GraphEdge(dep, unit.name, DependencyKind.WANTS,
                                    declared_by=unit.name))
            for dep in unit.after:
                self._add(out, inc,
                          GraphEdge(dep, unit.name, DependencyKind.AFTER,
                                    declared_by=unit.name))
            for succ in unit.before:
                self._add(out, inc,
                          GraphEdge(unit.name, succ, DependencyKind.BEFORE,
                                    declared_by=unit.name))
            for enemy in unit.conflicts:
                self._add(out, inc,
                          GraphEdge(unit.name, enemy, DependencyKind.CONFLICTS,
                                    declared_by=unit.name))
        # The edge set is fixed after construction; freeze the adjacency
        # lists into tuples so lookups can hand them out without copying.
        self._out: dict[str, tuple[GraphEdge, ...]] = {
            name: tuple(edges) for name, edges in out.items()}
        self._in: dict[str, tuple[GraphEdge, ...]] = {
            name: tuple(edges) for name, edges in inc.items()}

    def _add(self, out: dict[str, list[GraphEdge]],
             inc: dict[str, list[GraphEdge]], edge: GraphEdge) -> None:
        self.edges.append(edge)
        out.setdefault(edge.predecessor, []).append(edge)
        inc.setdefault(edge.successor, []).append(edge)

    @property
    def node_names(self) -> list[str]:
        """All unit names in the underlying registry."""
        return self.registry.names

    def outgoing(self, name: str) -> tuple[GraphEdge, ...]:
        """Edges whose predecessor is ``name`` (cached, immutable)."""
        return self._out.get(name, self._EMPTY)

    def incoming(self, name: str) -> tuple[GraphEdge, ...]:
        """Edges whose successor is ``name`` (cached, immutable)."""
        return self._in.get(name, self._EMPTY)

    def edges_of_kind(self, *kinds: DependencyKind) -> list[GraphEdge]:
        """Edges filtered by kind."""
        wanted = set(kinds)
        return [e for e in self.edges if e.kind in wanted]

    def ordering_predecessors(self, name: str) -> list[str]:
        """Units ``name`` waits for (in some way)."""
        return [e.predecessor for e in self.incoming(name) if e.kind.is_ordering]

    def strong_closure(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure of REQUIRES predecessors from ``roots``.

        This is exactly how the BB Group Isolator grows the BB Group from
        the boot-completion definition: the services a critical unit
        *requires*, recursively — ordering declared by outsiders is
        ignored.
        """
        closure: set[str] = set()
        stack = [r for r in roots]
        while stack:
            name = stack.pop()
            if name in closure:
                continue
            closure.add(name)
            if name in self.registry:
                stack.extend(self.registry.get(name).requires)
        return closure

    def __len__(self) -> int:
        return len(self.edges)
