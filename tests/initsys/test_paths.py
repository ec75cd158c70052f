"""Direct tests for the simulated path registry."""

import pytest

from repro.initsys.executor import PathRegistry
from repro.quantities import msec
from repro.sim import Simulator


def test_preexisting_and_provide():
    sim = Simulator()
    paths = PathRegistry(sim, preexisting={"/", "/run"})
    assert paths.exists("/run")
    assert not paths.exists("/var")
    paths.provide("/var")
    assert paths.exists("/var")
    assert {"/", "/run", "/var"} <= set(paths.paths)


def test_provide_is_idempotent():
    sim = Simulator()
    paths = PathRegistry(sim)
    paths.provide("/x")
    paths.provide("/x")
    assert paths.exists("/x")


def test_wait_for_wakes_on_provide():
    sim = Simulator()
    paths = PathRegistry(sim)
    woke_at = []

    def waiter():
        yield from paths.wait_for("/dev/tuner0")
        woke_at.append(sim.now)

    sim.spawn(waiter(), name="w")
    sim.call_after(msec(7), lambda: paths.provide("/dev/tuner0"))
    sim.run()
    assert woke_at == [msec(7)]


def test_wait_for_existing_path_returns_immediately():
    sim = Simulator()
    paths = PathRegistry(sim, preexisting={"/var"})
    done = []

    def waiter():
        yield from paths.wait_for("/var")
        done.append(sim.now)

    sim.spawn(waiter(), name="w")
    sim.run()
    assert done == [0]


def test_poll_for_quantizes_discovery_and_costs_cpu():
    # The out-of-order scheme's path check (§2.5.1) polls instead of
    # waiting on the registry.
    from types import SimpleNamespace

    from repro.hw.presets import emmc_ue48h6200
    from repro.initsys.outoforder import (POLL_CPU_NS, POLL_INTERVAL_NS,
                                          OutOfOrderInitScheme)
    from repro.initsys.registry import UnitRegistry
    from repro.kernel.rcu import RCUSubsystem

    sim = Simulator(cores=1, switch_cost_ns=0)
    scheme = OutOfOrderInitScheme(sim, UnitRegistry(),
                                  emmc_ue48h6200().attach(sim),
                                  RCUSubsystem(sim), goal="goal.target",
                                  completion_units=())
    result = {}

    def poller():
        polls = yield from scheme._poll_for("/flag",
                                            SimpleNamespace(ready=None))
        result["polls"] = polls
        result["at"] = sim.now

    process = sim.spawn(poller(), name="p")
    sim.call_after(msec(25), lambda: scheme.paths.provide("/flag"))
    sim.run()
    # Provided at 25 ms; discovered at the next poll boundary.
    assert result["polls"] >= 2
    assert result["at"] == result["polls"] * (POLL_CPU_NS + POLL_INTERVAL_NS)
    assert result["at"] - msec(25) < POLL_CPU_NS + POLL_INTERVAL_NS
    assert process.cpu_time_ns == result["polls"] * POLL_CPU_NS


def test_multiple_waiters_all_wake():
    sim = Simulator()
    paths = PathRegistry(sim)
    woke = []

    def waiter(n):
        yield from paths.wait_for("/shared")
        woke.append(n)

    for n in range(3):
        sim.spawn(waiter(n), name=f"w{n}")
    sim.call_after(1, lambda: paths.provide("/shared"))
    sim.run()
    assert sorted(woke) == [0, 1, 2]
