"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_everything_derives_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError


def test_unit_parse_error_location():
    exc = errors.UnitParseError("bad key", filename="x.service", lineno=7)
    assert "x.service:7" in str(exc)
    no_line = errors.UnitParseError("bad file", filename="x.service")
    assert str(no_line).startswith("x.service:")


def test_unit_not_found_error():
    exc = errors.UnitNotFoundError("ghost.service")
    assert exc.name == "ghost.service"
    assert "ghost.service" in str(exc)


def test_dependency_cycle_error_renders_cycle():
    exc = errors.DependencyCycleError(["a.service", "b.service"])
    assert "a.service -> b.service -> a.service" in str(exc)
    assert exc.cycle == ["a.service", "b.service"]


def test_service_failure_error():
    exc = errors.ServiceFailureError("fasttv.service", "tuner driver missing")
    assert exc.unit == "fasttv.service"
    assert "tuner driver missing" in str(exc)


def test_catching_the_base_class_catches_subsystem_errors():
    with pytest.raises(errors.ReproError):
        raise errors.KernelError("boom")
    with pytest.raises(errors.ReproError):
        raise errors.WorkloadError("boom")
