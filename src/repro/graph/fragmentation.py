"""The Fig. 3 group-fragmentation model.

Services are organized in groups aligned to developer teams; a group's
services are meant to launch together.  A cross-group ordering edge can
force a group to be *split*: part of it must launch, then another group's
services, then the rest.  Fig. 3 shows a single new service introducing a
cross-group cycle that partitions group b.

The metric implemented here: produce a deterministic topological order of
the ordering graph that *greedily prefers to stay in the current group*,
then count, per group, the number of contiguous runs its members occupy.
A group that can launch together scores 1; every additional fragment
signals lost batching (and, in the limit, lost parallelism inside the
launch window).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.graph.depgraph import DependencyGraph
from repro.initsys.registry import UnitRegistry


@dataclass(frozen=True, slots=True)
class FragmentationReport:
    """Fragmentation of each group under the current dependency set.

    Attributes:
        order: The group-preferring topological order used.
        fragments: Group name to number of contiguous runs (1 = intact).
    """

    order: tuple[str, ...]
    fragments: dict[str, int]


def group_fragmentation(registry: UnitRegistry,
                        groups: dict[str, str]) -> FragmentationReport:
    """Compute group fragmentation for a unit set.

    Args:
        registry: The unit set.
        groups: Mapping of unit name to group label; unmapped units form
            the implicit group ``"<ungrouped>"``.

    Raises:
        AnalysisError: If the ordering graph is cyclic (fragmentation is
            then undefined; fix the cycle first — see the Service
            Analyzer).
    """
    graph = DependencyGraph(registry)
    names = registry.names
    group_of = {name: groups.get(name, "<ungrouped>") for name in names}

    indegree = {name: 0 for name in names}
    successors: dict[str, list[str]] = {name: [] for name in names}
    for edge in graph.edges:
        if not edge.kind.is_ordering:
            continue
        if edge.predecessor in indegree and edge.successor in indegree:
            successors[edge.predecessor].append(edge.successor)
            indegree[edge.successor] += 1

    # Kahn's algorithm with group-affine tie-breaking: among ready units,
    # prefer ones in the group of the most recently emitted unit, then
    # registry order (deterministic).
    ready = [name for name in names if indegree[name] == 0]
    order: list[str] = []
    current_group: str | None = None
    position = {name: i for i, name in enumerate(names)}
    while ready:
        same_group = [n for n in ready if group_of[n] == current_group]
        pool = same_group if same_group else ready
        chosen = min(pool, key=lambda n: position[n])
        ready.remove(chosen)
        order.append(chosen)
        current_group = group_of[chosen]
        for succ in successors[chosen]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(names):
        raise AnalysisError("ordering graph is cyclic; run ServiceAnalyzer")

    fragments: dict[str, int] = {}
    previous_group: str | None = None
    for name in order:
        group = group_of[name]
        if group != previous_group:
            fragments[group] = fragments.get(group, 0) + 1
        previous_group = group
    return FragmentationReport(order=tuple(order), fragments=fragments)
