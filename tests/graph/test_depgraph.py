"""Tests for the typed dependency graph."""

from repro.graph.depgraph import DependencyGraph, DependencyKind
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import Unit


def make_graph():
    registry = UnitRegistry([
        Unit(name="a.service", before=["b.service"]),
        Unit(name="b.service", requires=["c.service"], wants=["d.service"]),
        Unit(name="c.service", conflicts=["d.service"]),
        Unit(name="d.service", after=["c.service"]),
    ])
    return registry, DependencyGraph(registry)


def test_edges_normalized_to_predecessor_first():
    _, graph = make_graph()
    kinds = {(e.predecessor, e.successor, e.kind) for e in graph.edges}
    assert ("a.service", "b.service", DependencyKind.BEFORE) in kinds
    assert ("c.service", "b.service", DependencyKind.REQUIRES) in kinds
    assert ("d.service", "b.service", DependencyKind.WANTS) in kinds
    assert ("c.service", "d.service", DependencyKind.AFTER) in kinds


def test_declared_by_tracks_origin():
    _, graph = make_graph()
    before_edge = graph.edges_of_kind(DependencyKind.BEFORE)[0]
    assert before_edge.declared_by == "a.service"
    after_edge = graph.edges_of_kind(DependencyKind.AFTER)[0]
    assert after_edge.declared_by == "d.service"


def test_adjacency_queries():
    _, graph = make_graph()
    assert {e.successor for e in graph.outgoing("c.service")} == {"b.service",
                                                                  "d.service"}
    assert {e.predecessor for e in graph.incoming("b.service")} == {
        "a.service", "c.service", "d.service"}


def test_ordering_excludes_conflicts():
    _, graph = make_graph()
    successors = [e.successor for e in graph.outgoing("c.service")
                  if e.kind.is_ordering]
    assert successors.count("d.service") <= 1
    # The conflicts edge is not an ordering edge.
    conflict_edges = graph.edges_of_kind(DependencyKind.CONFLICTS)
    assert len(conflict_edges) == 1
    assert not conflict_edges[0].kind.is_ordering


def test_strong_closure_follows_requires_only():
    registry = UnitRegistry([
        Unit(name="app.service", requires=["mid.service"], wants=["extra.service"]),
        Unit(name="mid.service", requires=["base.service"]),
        Unit(name="base.service"),
        Unit(name="extra.service"),
        Unit(name="noise.service", before=["app.service"]),
    ])
    graph = DependencyGraph(registry)
    closure = graph.strong_closure(["app.service"])
    assert closure == {"app.service", "mid.service", "base.service"}


def test_strong_closure_tolerates_missing_units():
    registry = UnitRegistry([Unit(name="a.service", requires=["ghost.service"])])
    graph = DependencyGraph(registry)
    assert graph.strong_closure(["a.service"]) == {"a.service", "ghost.service"}


def test_len_counts_edges():
    _, graph = make_graph()
    assert len(graph) == 5
