"""Booting Booster Group Isolator (§3.3).

Identifies the *BB Group*: "OS services required for a user to recognize
that the system is ready to use", found "by analyzing relations spanning
from the dependencies of the definition of boot completion".  The isolated
group then "ignore[s] services not in the group and dependencies or
priority requirements defined as out of the group".

Concretely:

* the group is the transitive ``Requires`` closure of the boot-completion
  units (only what a critical service *itself* declares it needs — the
  abusive orderings other developers pile onto ``var.mount`` never enter),
* the executor edge filter drops any ordering edge whose successor is in
  the group but whose predecessor is not.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.depgraph import DependencyGraph
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import OrderingEdge


class BBGroupIsolator:
    """Computes and enforces the BB Group for one workload."""

    def __init__(self, registry: UnitRegistry, completion_units: Iterable[str]):
        self.registry = registry
        self.completion_units = tuple(completion_units)
        graph = DependencyGraph(registry)
        closure = graph.strong_closure(self.completion_units)
        # Only units that actually exist make it into the group.
        self.group: frozenset[str] = frozenset(n for n in closure
                                               if n in registry)
        self.ignored_edge_count = 0

    def __contains__(self, name: str) -> bool:
        return name in self.group

    def edge_filter(self, edge: OrderingEdge) -> bool:
        """Executor hook: keep an ordering edge?

        Edges from outside the group into the group are ignored — this is
        the Fig. 7 mechanism that advances ``dbus.service`` by isolating
        ``var.mount`` from the dozen abusive orderings hung onto it.
        """
        if edge.successor in self.group and edge.predecessor not in self.group:
            self.ignored_edge_count += 1
            return False
        return True

    def members_sorted(self) -> list[str]:
        """Group members in deterministic order (for reports)."""
        return sorted(self.group)
