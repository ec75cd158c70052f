"""Tests for the Fig. 3 group-fragmentation model."""

import pytest

from repro.errors import AnalysisError
from repro.graph.fragmentation import group_fragmentation
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import Unit


def test_independent_groups_stay_intact():
    registry = UnitRegistry([
        Unit(name="a1.service"), Unit(name="a2.service"),
        Unit(name="b1.service"), Unit(name="b2.service"),
    ])
    groups = {"a1.service": "a", "a2.service": "a",
              "b1.service": "b", "b2.service": "b"}
    report = group_fragmentation(registry, groups)
    assert report.fragments == {"a": 1, "b": 1}


def test_fig3_cross_group_dependency_splits_a_group():
    """Fig. 3: new service c in group a is required by service a in group
    b, while group b's earlier member must precede group a's head — group
    b is forced apart."""
    registry = UnitRegistry([
        # group b: b-head must come before c (group a), b-tail requires c.
        Unit(name="b-head.service", before=["c.service"]),
        Unit(name="b-tail.service", requires=["c.service"]),
        # group a
        Unit(name="c.service"),
        Unit(name="a-other.service"),
    ])
    groups = {"b-head.service": "b", "b-tail.service": "b",
              "c.service": "a", "a-other.service": "a"}
    report = group_fragmentation(registry, groups)
    assert report.fragments["b"] == 2


def test_intra_group_dependencies_do_not_split():
    registry = UnitRegistry([
        Unit(name="a1.service"),
        Unit(name="a2.service", requires=["a1.service"]),
        Unit(name="a3.service", requires=["a2.service"]),
    ])
    report = group_fragmentation(registry, {n: "a" for n in
                                            ("a1.service", "a2.service",
                                             "a3.service")})
    assert report.fragments == {"a": 1}


def test_ungrouped_units_form_implicit_group():
    registry = UnitRegistry([Unit(name="x.service"), Unit(name="y.service")])
    report = group_fragmentation(registry, {})
    assert report.fragments == {"<ungrouped>": 1}


def test_order_is_a_valid_topological_order():
    registry = UnitRegistry([
        Unit(name="a.service"),
        Unit(name="b.service", requires=["a.service"]),
        Unit(name="c.service", after=["b.service"]),
    ])
    report = group_fragmentation(registry, {})
    order = list(report.order)
    assert order.index("a.service") < order.index("b.service")
    assert order.index("b.service") < order.index("c.service")


def test_cycle_raises():
    registry = UnitRegistry([
        Unit(name="a.service", requires=["b.service"]),
        Unit(name="b.service", requires=["a.service"]),
    ])
    with pytest.raises(AnalysisError, match="cyclic"):
        group_fragmentation(registry, {})


def test_deterministic():
    registry = UnitRegistry([
        Unit(name="a1.service"), Unit(name="b1.service"),
        Unit(name="a2.service", requires=["b1.service"]),
    ])
    groups = {"a1.service": "a", "a2.service": "a", "b1.service": "b"}
    assert group_fragmentation(registry, groups) == group_fragmentation(registry,
                                                                        groups)
