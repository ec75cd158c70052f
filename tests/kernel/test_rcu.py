"""Tests for the RCU subsystem — the Algorithm 1 vs Algorithm 2 behaviour."""

import pytest

from repro.errors import KernelError
from repro.kernel.rcu import RCUMode, RCUSubsystem
from repro.quantities import msec
from repro.sim import Compute, Simulator


def run_boot_like_workload(mode, cores=4, syncers=6, innocents=4):
    """N processes each doing RCU syncs, plus innocent compute-bound tasks
    that model the rest of the boot work competing for cores."""
    sim = Simulator(cores=cores, switch_cost_ns=0)
    rcu = RCUSubsystem(sim)
    rcu.set_mode(mode)

    def syncer():
        for _ in range(3):
            yield Compute(msec(1))
            yield from rcu.synchronize_rcu()

    def innocent():
        yield Compute(msec(30))

    finish = {}

    def tracked_innocent(n):
        yield from innocent()
        finish[n] = sim.now

    for n in range(syncers):
        sim.spawn(syncer(), name=f"sync{n}")
    for n in range(innocents):
        sim.spawn(tracked_innocent(n), name=f"innocent{n}")
    sim.run()
    return sim, rcu, max(finish.values(), default=0)


def test_sysfs_interface_round_trips():
    sim = Simulator()
    rcu = RCUSubsystem(sim)
    assert rcu.mode is RCUMode.CONVENTIONAL
    rcu.write_sysfs("1")
    assert rcu.mode is RCUMode.BOOSTED
    rcu.write_sysfs("0")
    assert rcu.mode is RCUMode.CONVENTIONAL


def test_sysfs_rejects_garbage():
    sim = Simulator()
    rcu = RCUSubsystem(sim)
    with pytest.raises(KernelError, match="invalid write"):
        rcu.write_sysfs("maybe")


def test_mode_switch_counting():
    sim = Simulator()
    rcu = RCUSubsystem(sim)
    rcu.set_mode(RCUMode.BOOSTED)
    rcu.set_mode(RCUMode.BOOSTED)  # no-op
    rcu.set_mode(RCUMode.CONVENTIONAL)
    assert rcu.mode_switches == 2


def test_single_sync_durations():
    """Uncontended: conventional is a normal grace period, boosted an
    expedited one."""

    def single(mode):
        sim = Simulator(cores=1, switch_cost_ns=0)
        rcu = RCUSubsystem(sim)
        rcu.set_mode(mode)

        def caller():
            yield from rcu.synchronize_rcu()

        sim.spawn(caller(), name="c")
        sim.run()
        return sim.now

    conventional = single(RCUMode.CONVENTIONAL)
    boosted = single(RCUMode.BOOSTED)
    assert conventional >= msec(12)
    assert boosted < conventional


def test_conventional_spins_burn_cpu_boosted_do_not():
    _, rcu_conv, _ = run_boot_like_workload(RCUMode.CONVENTIONAL)
    assert rcu_conv.spin_time_ns > 0
    _, rcu_boost, _ = run_boot_like_workload(RCUMode.BOOSTED)
    assert rcu_boost.spin_time_ns == 0


def test_boosted_mode_lets_other_boot_work_finish_earlier():
    """The Fig. 5(a) effect: with RCU Booster, non-RCU boot tasks get cores
    earlier and finish sooner."""
    _, _, conv_finish = run_boot_like_workload(RCUMode.CONVENTIONAL)
    _, _, boost_finish = run_boot_like_workload(RCUMode.BOOSTED)
    assert boost_finish < conv_finish


def test_boosted_costs_more_cpu_per_uncontended_op():
    """§4.3 trade-off: without contention the boosted path consumes more
    CPU per call (barriers, forced quiescent states, wake costs)."""

    def cpu_for_one(mode):
        sim = Simulator(cores=1, switch_cost_ns=0)
        rcu = RCUSubsystem(sim)
        rcu.set_mode(mode)

        def caller():
            yield from rcu.synchronize_rcu()

        process = sim.spawn(caller(), name="c")
        sim.run()
        return process.cpu_time_ns

    assert cpu_for_one(RCUMode.BOOSTED) > cpu_for_one(RCUMode.CONVENTIONAL)


def test_sync_statistics_accumulate():
    sim, rcu, _ = run_boot_like_workload(RCUMode.CONVENTIONAL, syncers=2, innocents=0)
    assert rcu.sync_count == 6
    assert rcu.total_sync_wall_ns >= 6 * msec(12)


def test_mode_sampled_at_call_entry():
    """A mode switch mid-boot affects only later synchronize_rcu calls."""
    sim = Simulator(cores=2, switch_cost_ns=0)
    rcu = RCUSubsystem(sim)
    rcu.set_mode(RCUMode.BOOSTED)
    durations = []

    def caller():
        start = sim.now
        yield from rcu.synchronize_rcu()
        durations.append(sim.now - start)
        rcu.write_sysfs("0")  # boot complete: disable boosting
        start = sim.now
        yield from rcu.synchronize_rcu()
        durations.append(sim.now - start)

    sim.spawn(caller(), name="c")
    sim.run()
    assert durations[0] < durations[1]
