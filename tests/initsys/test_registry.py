"""Tests for the unit registry."""

import pytest

from repro.errors import UnitError, UnitNotFoundError
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import Unit


def make_registry():
    return UnitRegistry([
        Unit(name="a.service"),
        Unit(name="b.service", requires=["a.service"]),
        Unit(name="multi-user.target"),
    ])


def test_add_get_contains_len():
    registry = make_registry()
    assert len(registry) == 3
    assert "a.service" in registry
    assert registry.get("b.service").requires == ["a.service"]


def test_duplicate_add_rejected():
    registry = make_registry()
    with pytest.raises(UnitError, match="duplicate"):
        registry.add(Unit(name="a.service"))


def test_replace_overwrites():
    registry = make_registry()
    registry.replace(Unit(name="a.service", description="updated"))
    assert registry.get("a.service").description == "updated"


def test_remove():
    registry = make_registry()
    registry.remove("a.service")
    assert "a.service" not in registry
    with pytest.raises(UnitNotFoundError):
        registry.remove("a.service")


def test_get_missing_raises():
    with pytest.raises(UnitNotFoundError, match="nope.service"):
        make_registry().get("nope.service")


def test_load_unit_text():
    registry = UnitRegistry()
    unit = registry.load_unit_text("[Service]\nType=oneshot\n", name="x.service")
    assert unit.name == "x.service"
    assert "x.service" in registry


def test_dump_unit_text_round_trips():
    registry = make_registry()
    text = registry.dump_unit_text("b.service")
    fresh = UnitRegistry()
    unit = fresh.load_unit_text(text, name="b.service")
    assert unit.requires == ["a.service"]


def test_apply_install_sections_builds_reverse_wants():
    registry = UnitRegistry([
        Unit(name="multi-user.target"),
        Unit(name="app.service", wanted_by=["multi-user.target"]),
        Unit(name="core.service", required_by=["multi-user.target"]),
        Unit(name="orphan.service", wanted_by=["missing.target"]),
    ])
    registry.apply_install_sections()
    target = registry.get("multi-user.target")
    assert "app.service" in target.wants
    assert "core.service" in target.requires


def test_apply_install_sections_is_idempotent():
    registry = UnitRegistry([
        Unit(name="multi-user.target"),
        Unit(name="app.service", wanted_by=["multi-user.target"]),
    ])
    registry.apply_install_sections()
    registry.apply_install_sections()
    assert registry.get("multi-user.target").wants.count("app.service") == 1


def test_dangling_references_reported():
    registry = UnitRegistry([
        Unit(name="a.service", requires=["ghost.service"], wants=["spirit.service"]),
        Unit(name="b.service", before=["ghost.service"]),  # ordering: legal
    ])
    dangling = registry.dangling_references()
    assert dangling == {"a.service": ["ghost.service", "spirit.service"]}


def test_total_text_bytes_positive():
    from repro.initsys.preparser import registry_text_stats

    registry = make_registry()
    stats = registry_text_stats(registry)
    assert stats.total_text_bytes == sum(
        len(registry.dump_unit_text(name).encode()) for name in registry.names)
    assert stats.total_text_bytes > 0


def test_registry_round_trips_through_a_directory(tmp_path):
    """Dump the mini-TV registry to disk and load it back intact."""
    from tests.fixtures import mini_tv_registry

    source = mini_tv_registry()
    for name in source.names:
        (tmp_path / name).write_text(source.dump_unit_text(name))
    loaded = UnitRegistry()
    for path in sorted(tmp_path.iterdir()):
        loaded.load_unit_text(path.read_text(), name=path.name)
    assert set(loaded.names) == set(source.names)
    for name in source.names:
        assert loaded.get(name).requires == source.get(name).requires
        assert loaded.get(name).cost == source.get(name).cost
