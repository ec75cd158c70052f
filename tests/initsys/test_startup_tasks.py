"""Tests for the Fig. 6(b)/(c) manager task lists."""

import pytest

from repro.errors import UnitError
from repro.initsys.startup_tasks import (STARTUP_TASKS, SUBMODULE_TASKS,
                                         StartupTask)
from repro.quantities import msec
from repro.sim import Simulator


def test_fig6b_deferrable_costs_match_paper():
    """Fig. 6(b): logging 28, kernel module 28, hostname 13, machine ID 9,
    loopback 17, test directory 29 — 124 ms deferred in total."""
    expected = {
        "enable-logging-scheme": msec(28),
        "setup-kernel-module": msec(28),
        "setup-hostname": msec(13),
        "setup-machine-id": msec(9),
        "setup-loopback-device": msec(17),
        "test-directory": msec(29),
    }
    deferrable = {t.name: t.cpu_ns for t in STARTUP_TASKS if t.deferrable}
    assert deferrable == expected
    assert sum(deferrable.values()) == msec(124)


def test_fig6b_core_cost_is_71ms():
    """195 ms (no BB) - 124 ms deferred = 71 ms that BB still pays."""
    assert sum(t.cpu_ns for t in STARTUP_TASKS if not t.deferrable) == msec(71)
    assert sum(t.cpu_ns for t in STARTUP_TASKS) == msec(195)


def test_fig6c_submodules_total_496ms():
    """Deferred Executor's Fig. 6(c) saving."""
    assert sum(t.cpu_ns for t in SUBMODULE_TASKS) == msec(496)
    assert all(t.deferrable for t in SUBMODULE_TASKS)


def test_task_run_consumes_cpu():
    sim = Simulator(cores=1, switch_cost_ns=0)
    task = StartupTask("t", cpu_ns=msec(5), deferrable=False)
    sim.spawn(task.run(sim), name="t")
    sim.run()
    assert sim.now == msec(5)
    assert sim.tracer.find("init.t").duration_ns == msec(5)


def test_negative_cost_rejected():
    with pytest.raises(UnitError):
        StartupTask("bad", cpu_ns=-1, deferrable=False)
