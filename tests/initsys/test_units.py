"""Tests for the semantic unit model."""

import pytest

from repro.errors import UnitError, UnitParseError
from repro.initsys.unitfile import parse_unit_file
from repro.initsys.units import ServiceType, SimCost, Unit, UnitType


def test_unit_type_from_name():
    assert UnitType.from_name("dbus.service") is UnitType.SERVICE
    assert UnitType.from_name("var.mount") is UnitType.MOUNT
    assert UnitType.from_name("multi-user.target") is UnitType.TARGET
    assert UnitType.from_name("dbus.socket") is UnitType.SOCKET


def test_unknown_suffix_rejected():
    with pytest.raises(UnitError, match="unknown unit type"):
        Unit(name="foo.banana")


def test_self_dependency_rejected():
    with pytest.raises(UnitError, match="depends on itself"):
        Unit(name="a.service", requires=["a.service"])


def test_daemon_detection():
    # A daemon is a service whose main process outlives start-up: any
    # service type but oneshot.
    daemon = Unit(name="d.service", service_type=ServiceType.SIMPLE)
    assert daemon.unit_type is UnitType.SERVICE
    assert daemon.service_type is not ServiceType.ONESHOT
    oneshot = Unit(name="o.service", service_type=ServiceType.ONESHOT)
    assert oneshot.service_type is ServiceType.ONESHOT
    assert Unit(name="v.mount").unit_type is UnitType.MOUNT


def test_from_parsed_reads_dependencies_and_simulation_section():
    text = """\
[Unit]
Description=IPC daemon
Requires=var.mount
After=var.mount
Wants=log.service
Before=app.service

[Service]
Type=notify

[Install]
WantedBy=multi-user.target

[X-Simulation]
InitCpuNs=5000000
RcuSyncs=2
Processes=3
StaticBuild=yes
ProvidesPaths=/run/dbus
"""
    unit = Unit.from_parsed(parse_unit_file(text, name="dbus.service"))
    assert unit.requires == ["var.mount"]
    assert unit.after == ["var.mount"]
    assert unit.wants == ["log.service"]
    assert unit.before == ["app.service"]
    assert unit.service_type is ServiceType.NOTIFY
    assert unit.cost.init_cpu_ns == 5_000_000
    assert unit.cost.rcu_syncs == 2
    assert unit.cost.processes == 3
    assert unit.static_build
    assert unit.provides_paths == ["/run/dbus"]
    assert unit.wanted_by == ["multi-user.target"]


def test_from_parsed_invalid_type_rejected():
    text = "[Service]\nType=bogus\n"
    with pytest.raises(UnitParseError, match="invalid Type"):
        Unit.from_parsed(parse_unit_file(text, name="x.service"))


def test_from_parsed_invalid_simulation_value_rejected():
    text = "[X-Simulation]\nInitCpuNs=soon\n"
    with pytest.raises(UnitParseError, match="must be an integer"):
        Unit.from_parsed(parse_unit_file(text, name="x.service"))


def test_condition_path_extracted():
    text = "[Unit]\nConditionPathExists=/var/lib/flag\n"
    unit = Unit.from_parsed(parse_unit_file(text, name="x.service"))
    assert unit.condition_paths == ["/var/lib/flag"]


def test_to_parsed_round_trips():
    unit = Unit(name="tuner.service", description="Tuner",
                service_type=ServiceType.FORKING,
                requires=["dbus.service"], after=["dbus.service"],
                cost=SimCost(init_cpu_ns=7_000_000, rcu_syncs=1),
                provides_paths=["/dev/tuner0"], static_build=True)
    round_tripped = Unit.from_parsed(unit.to_parsed())
    assert round_tripped.name == unit.name
    assert round_tripped.requires == unit.requires
    assert round_tripped.service_type is unit.service_type
    assert round_tripped.cost == unit.cost
    assert round_tripped.static_build == unit.static_build
    assert round_tripped.provides_paths == unit.provides_paths


def test_with_cost_replaces_fields():
    unit = Unit(name="a.service")
    tweaked = unit.with_cost(init_cpu_ns=123, rcu_syncs=9)
    assert tweaked.cost.init_cpu_ns == 123
    assert tweaked.cost.rcu_syncs == 9
    assert unit.cost.rcu_syncs == 0  # original untouched


def test_simcost_validation():
    with pytest.raises(UnitError):
        SimCost(init_cpu_ns=-1)
    with pytest.raises(UnitError):
        SimCost(processes=0)
