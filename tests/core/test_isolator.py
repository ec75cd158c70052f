"""Tests for the BB Group Isolator."""

from repro.core.isolator import BBGroupIsolator
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import EdgeKind, OrderingEdge
from repro.initsys.units import Unit
from repro.workloads.tizen_tv import (PAPER_BB_GROUP, TV_COMPLETION_UNITS,
                                      build_tv_registry)
from tests.fixtures import mini_tv_registry


def test_tv_workload_group_is_the_papers_seven():
    """§3.3: 'there were seven services (i.e., mount, socket, dbus, tuner,
    hdmi, demux, and fasttv) in the BB group.'"""
    registry = build_tv_registry()
    isolator = BBGroupIsolator(registry, TV_COMPLETION_UNITS)
    assert isolator.group == PAPER_BB_GROUP
    assert len(isolator.group) == 7


def test_group_is_requires_closure_only():
    """Wants and orderings declared by others never grow the group."""
    registry = mini_tv_registry()
    isolator = BBGroupIsolator(registry, ("fasttv.service",))
    # messenger/store are only wanted by the target: not in the group.
    assert "messenger.service" not in isolator.group
    assert "store.service" not in isolator.group
    assert "fasttv.service" in isolator.group
    assert "dbus.service" in isolator.group


def test_edge_filter_drops_outside_in_edges_only():
    registry = build_tv_registry()
    isolator = BBGroupIsolator(registry, TV_COMPLETION_UNITS)

    outside_in = OrderingEdge("vendor-early-00.service", "var.mount",
                              EdgeKind.STRONG)
    inside_inside = OrderingEdge("dbus.service", "tuner.service",
                                 EdgeKind.STRONG)
    inside_out = OrderingEdge("dbus.service", "app-00.service", EdgeKind.STRONG)
    outside_outside = OrderingEdge("app-00.service", "app-01.service",
                                   EdgeKind.WEAK)

    assert not isolator.edge_filter(outside_in)
    assert isolator.edge_filter(inside_inside)
    assert isolator.edge_filter(inside_out)
    assert isolator.edge_filter(outside_outside)
    assert isolator.ignored_edge_count == 1


def test_contains_and_sorted_members():
    registry = build_tv_registry()
    isolator = BBGroupIsolator(registry, TV_COMPLETION_UNITS)
    assert "dbus.service" in isolator
    assert "app-00.service" not in isolator
    members = isolator.members_sorted()
    assert members == sorted(members)
    assert set(members) == PAPER_BB_GROUP
