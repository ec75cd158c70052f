"""Tests for the multicore CPU model: parallelism limits, priorities, slicing."""

import pytest

from repro.errors import SimulationError
from repro.quantities import msec
from repro.sim import CPU, Compute, Simulator


def make_sim(cores, **kwargs):
    kwargs.setdefault("switch_cost_ns", 0)
    return Simulator(cores=cores, **kwargs)


def compute_worker(ns):
    yield Compute(ns)


def test_parallelism_is_bounded_by_core_count():
    # 4 tasks x 10 ms on 2 cores must take 20 ms, not 10.
    sim = make_sim(cores=2)
    for n in range(4):
        sim.spawn(compute_worker(msec(10)), name=f"w{n}")
    sim.run()
    assert sim.now == msec(20)


def test_enough_cores_run_fully_parallel():
    sim = make_sim(cores=4)
    for n in range(4):
        sim.spawn(compute_worker(msec(10)), name=f"w{n}")
    sim.run()
    assert sim.now == msec(10)


def test_single_core_serializes():
    sim = make_sim(cores=1)
    for n in range(3):
        sim.spawn(compute_worker(msec(5)), name=f"w{n}")
    sim.run()
    assert sim.now == msec(15)


def test_priority_order_wins_the_core():
    # With one core, the high-priority (lower number) task finishes first
    # even though it was spawned last.
    sim = make_sim(cores=1, quantum_ns=msec(1))
    finish_order = []

    def tracked(name, ns):
        yield Compute(ns)
        finish_order.append(name)

    sim.spawn(tracked("low", msec(5)), name="low", priority=200)
    sim.spawn(tracked("high", msec(5)), name="high", priority=10)
    sim.run()
    assert finish_order == ["high", "low"]


def test_priority_change_takes_effect_within_a_quantum():
    sim = make_sim(cores=1, quantum_ns=msec(1))
    finish_order = []

    def tracked(name, ns):
        yield Compute(ns)
        finish_order.append(name)

    background = sim.spawn(tracked("bg", msec(10)), name="bg", priority=100)
    sim.spawn(tracked("boosted", msec(3)), name="boosted", priority=100)
    # After 1 ms, demote the background task; the other should then finish first.
    sim.call_after(msec(1), lambda: setattr(background, "priority", 500))
    sim.run()
    assert finish_order == ["boosted", "bg"]


def test_switch_cost_is_charged_per_dispatch():
    sim = Simulator(cores=1, quantum_ns=msec(1), switch_cost_ns=1000)
    sim.spawn(compute_worker(msec(3)), name="w")
    sim.run()
    # 3 quanta, each with 1000 ns of dispatch overhead.
    assert sim.now == msec(3) + 3 * 1000
    assert sim.cpu.stats.switch_ns == 3 * 1000


def test_cpu_time_accounting_per_process():
    sim = make_sim(cores=2)
    p1 = sim.spawn(compute_worker(msec(7)), name="p1")
    p2 = sim.spawn(compute_worker(msec(3)), name="p2")
    sim.run()
    assert p1.cpu_time_ns == msec(7)
    assert p2.cpu_time_ns == msec(3)
    assert sim.cpu.stats.busy_ns == msec(10)


def test_utilization_reflects_busy_fraction():
    sim = make_sim(cores=2)
    sim.spawn(compute_worker(msec(10)), name="only")
    sim.run()
    # One of two cores busy for the whole run: 50% utilization.
    assert sim.cpu.stats.utilization(2, sim.now) == pytest.approx(0.5)


def test_utilization_zero_elapsed_is_zero():
    sim = make_sim(cores=2)
    assert sim.cpu.stats.utilization(2, 0) == 0.0


def test_peak_runnable_tracks_queue_depth():
    sim = make_sim(cores=1)
    for n in range(5):
        sim.spawn(compute_worker(msec(1)), name=f"w{n}")
    sim.run()
    assert sim.cpu.stats.peak_runnable >= 4


def test_cpu_rejects_invalid_configuration():
    sim = Simulator()
    with pytest.raises(SimulationError):
        CPU(sim, cores=0)
    with pytest.raises(SimulationError):
        CPU(sim, cores=1, quantum_ns=0)
    with pytest.raises(SimulationError):
        CPU(sim, cores=1, switch_cost_ns=-1)


def test_fifo_within_same_priority():
    sim = make_sim(cores=1, quantum_ns=msec(100))  # no slicing
    finish_order = []

    def tracked(name):
        yield Compute(msec(1))
        finish_order.append(name)

    for name in ["first", "second", "third"]:
        sim.spawn(tracked(name), name=name)
    sim.run()
    assert finish_order == ["first", "second", "third"]


def test_equal_priorities_rotate_at_every_quantum():
    sim = make_sim(cores=1, quantum_ns=msec(1))
    first = sim.spawn(compute_worker(msec(3)), name="first")
    second = sim.spawn(compute_worker(msec(3)), name="second")
    sim.run()
    # The queued process takes the core at every boundary: A B A B A B.
    assert first.finished_at_ns == msec(5)
    assert second.finished_at_ns == msec(6)
    assert sim.cpu.stats.dispatches == 6
    assert sim.cpu.stats.peak_runnable == 2


def test_boosted_process_keeps_its_core_at_each_quantum():
    sim = make_sim(cores=1, quantum_ns=msec(1))
    background = sim.spawn(compute_worker(msec(3)), name="bg", priority=100)
    foreground = sim.spawn(compute_worker(msec(3)), name="fg", priority=100)
    # Boosted mid-slice while fg is queued: from the first boundary on,
    # nothing queued beats bg, so it runs to completion before fg starts.
    sim.call_after(msec(0.5), lambda: setattr(background, "priority", 10))
    sim.run()
    assert background.finished_at_ns == msec(3)
    assert foreground.finished_at_ns == msec(6)
    assert sim.cpu.stats.dispatches == 6
    # bg's rotations count the queue depth a push would reach (fg + bg).
    assert sim.cpu.stats.peak_runnable == 2
