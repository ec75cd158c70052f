"""Tests for the span tracer."""

import pytest

from repro.errors import SimulationError
from repro.quantities import msec
from repro.sim import Simulator, Timeout


def test_span_records_start_and_end():
    sim = Simulator()

    def activity():
        span = sim.tracer.begin("dbus.service", "service")
        yield Timeout(msec(7))
        sim.tracer.end(span)

    sim.spawn(activity(), name="a")
    sim.run()
    span = sim.tracer.find("dbus.service")
    assert span.start_ns == 0
    assert span.end_ns == msec(7)
    assert span.duration_ns == msec(7)


def test_span_attrs_are_kept():
    sim = Simulator()
    span = sim.tracer.begin("x", "service", deferred=True)
    assert span.attrs == {"deferred": True}


def test_open_span_duration_raises():
    sim = Simulator()
    span = sim.tracer.begin("x", "service")
    with pytest.raises(SimulationError):
        _ = span.duration_ns
    assert not span.closed


def test_double_end_rejected():
    sim = Simulator()
    span = sim.tracer.begin("x", "service")
    sim.tracer.end(span)
    with pytest.raises(SimulationError):
        sim.tracer.end(span)


def test_instant_records_current_time():
    sim = Simulator()
    sim.call_after(msec(3), lambda: sim.tracer.instant("boot.complete"))
    sim.run()
    assert [(record.name, record.time_ns) for record in sim.tracer.instants
            ] == [("boot.complete", msec(3))]


def test_find_missing_raises_keyerror():
    sim = Simulator()
    with pytest.raises(KeyError):
        sim.tracer.find("nope")


def test_spans_in_filters_by_category():
    sim = Simulator()
    sim.tracer.begin("a", "service")
    sim.tracer.begin("b", "kernel")
    sim.tracer.begin("c", "service")
    names = [s.name for s in sim.tracer.spans_in("service")]
    assert names == ["a", "c"]


def test_iter_closed_excludes_open_spans():
    sim = Simulator()
    closed = sim.tracer.begin("closed", "x")
    sim.tracer.end(closed)
    sim.tracer.begin("open", "x")
    assert [s.name for s in sim.tracer.iter_closed()] == ["closed"]
