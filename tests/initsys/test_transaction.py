"""Tests for transaction building: closure, edges, conflicts, cycles."""

import pytest

from repro.errors import (DependencyCycleError, TransactionError,
                          UnitNotFoundError)
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import EdgeKind, Transaction
from repro.initsys.units import Unit
from repro.workloads import WORKLOAD_FACTORIES


def test_closure_pulls_requires_and_wants():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["a.service"], wants=["b.service"]),
        Unit(name="a.service", requires=["c.service"]),
        Unit(name="b.service"),
        Unit(name="c.service"),
        Unit(name="unrelated.service"),
    ])
    txn = Transaction(registry, ["goal.target"])
    assert set(txn.jobs) == {"goal.target", "a.service", "b.service", "c.service"}
    assert "unrelated.service" not in txn


def test_weak_pull_marks_jobs():
    registry = UnitRegistry([
        Unit(name="goal.target", wants=["w.service"], requires=["r.service"]),
        Unit(name="w.service"),
        Unit(name="r.service"),
    ])
    txn = Transaction(registry, ["goal.target"])
    assert not txn.job("w.service").pulled_strongly
    assert txn.job("r.service").pulled_strongly


def test_strong_pull_upgrades_weak():
    registry = UnitRegistry([
        Unit(name="goal.target", wants=["x.service"], requires=["y.service"]),
        Unit(name="x.service"),
        Unit(name="y.service", requires=["x.service"]),
    ])
    txn = Transaction(registry, ["goal.target"])
    assert txn.job("x.service").pulled_strongly


def test_missing_required_unit_raises():
    registry = UnitRegistry([Unit(name="goal.target", requires=["ghost.service"])])
    with pytest.raises(UnitNotFoundError):
        Transaction(registry, ["goal.target"])


def test_missing_wanted_unit_ignored():
    registry = UnitRegistry([Unit(name="goal.target", wants=["ghost.service"])])
    txn = Transaction(registry, ["goal.target"])
    assert set(txn.jobs) == {"goal.target"}


def test_edges_from_all_dependency_kinds():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["b.service"]),
        Unit(name="b.service", requires=["a.service"], wants=["w.service"],
             after=["ord.service"]),
        Unit(name="a.service", before=["b.service"]),
        Unit(name="w.service"),
        Unit(name="ord.service"),
    ])
    # Pull ord.service in via the goal so the After edge materializes.
    registry.get("goal.target").wants.append("ord.service")
    txn = Transaction(registry, ["goal.target"])
    kinds = {(e.predecessor, e.successor): e.kind for e in txn.edges}
    assert kinds[("a.service", "b.service")] is EdgeKind.STRONG  # Requires+Before
    assert kinds[("w.service", "b.service")] is EdgeKind.WEAK  # Wants
    assert kinds[("ord.service", "b.service")] is EdgeKind.STRONG  # After
    assert kinds[("b.service", "goal.target")] is EdgeKind.STRONG


def test_ordering_to_units_outside_transaction_dropped():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["a.service"]),
        Unit(name="a.service", after=["outsider.service"]),
        Unit(name="outsider.service"),
    ])
    txn = Transaction(registry, ["goal.target"])
    assert all(e.predecessor != "outsider.service" for e in txn.edges)


def test_conflicting_jobs_rejected():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["a.service", "b.service"]),
        Unit(name="a.service", conflicts=["b.service"]),
        Unit(name="b.service"),
    ])
    with pytest.raises(TransactionError, match="conflict"):
        Transaction(registry, ["goal.target"])


def test_strong_cycle_is_fatal():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["a.service"]),
        Unit(name="a.service", requires=["b.service"]),
        Unit(name="b.service", requires=["a.service"]),
    ])
    with pytest.raises(DependencyCycleError):
        Transaction(registry, ["goal.target"])


def test_weak_cycle_broken_by_dropping_wanted_job():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["a.service"], wants=["b.service"]),
        Unit(name="a.service", after=["b.service"]),
        Unit(name="b.service", after=["a.service"]),
    ])
    txn = Transaction(registry, ["goal.target"])
    assert "b.service" not in txn
    assert txn.dropped_jobs == ["b.service"]
    assert "a.service" in txn


def test_fig3_scenario_new_service_creates_cycle_between_groups():
    """The paper's Fig. 3: adding service c (group a) required by service a
    (group b) while group b's tail orders before group a's head closes a
    cycle across the groups."""
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["svc-a.service", "svc-b.service",
                                           "svc-c.service"]),
        # group b: a -> b chain
        Unit(name="svc-a.service", requires=["svc-c.service"]),
        Unit(name="svc-b.service", after=["svc-a.service"]),
        # group a: new service c must run after group b's tail
        Unit(name="svc-c.service", after=["svc-b.service"]),
    ])
    with pytest.raises(DependencyCycleError):
        Transaction(registry, ["goal.target"])


def test_predecessors_query():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["b.service"]),
        Unit(name="b.service", requires=["a.service"]),
        Unit(name="a.service"),
    ])
    txn = Transaction(registry, ["goal.target"])
    preds = txn.predecessors("b.service")
    assert [(e.predecessor, e.kind) for e in preds] == [("a.service", EdgeKind.STRONG)]


def test_predecessors_index_matches_an_edge_scan():
    workload = WORKLOAD_FACTORIES["tv-commercial"]()
    registry = workload.fresh_registry()
    registry.apply_install_sections()
    txn = Transaction(registry, [workload.goal])
    assert txn.edges
    for name in txn.jobs:
        preds = txn.predecessors(name)
        assert preds == [e for e in txn.edges if e.successor == name]
        preds.clear()  # a fresh list: the index is not handed out
        assert txn.predecessors(name) == [e for e in txn.edges
                                          if e.successor == name]
    assert txn.predecessors("not-in-transaction.service") == []


def test_job_lookup_outside_transaction_rejected():
    registry = UnitRegistry([Unit(name="goal.target")])
    txn = Transaction(registry, ["goal.target"])
    with pytest.raises(TransactionError):
        txn.job("nope.service")


def test_duplicate_edges_deduplicated():
    registry = UnitRegistry([
        Unit(name="goal.target", requires=["b.service"]),
        Unit(name="b.service", requires=["a.service"], after=["a.service"]),
        Unit(name="a.service"),
    ])
    txn = Transaction(registry, ["goal.target"])
    strong_ab = [e for e in txn.edges
                 if e.predecessor == "a.service" and e.successor == "b.service"]
    assert len(strong_ab) == 1
