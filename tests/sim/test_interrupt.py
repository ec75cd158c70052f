"""Tests for process interruption: delivery points, lock safety."""

import pytest

from repro.quantities import msec
from repro.sim import (Compute, Interrupted, Mutex, Semaphore, Simulator,
                       SpinLock, Timeout, Wait)
from repro.sim.sync import PriorityMutex


def test_interrupt_during_timeout_is_immediate():
    sim = Simulator()
    caught = []

    def sleeper():
        try:
            yield Timeout(msec(100))
        except Interrupted:
            caught.append(sim.now)

    process = sim.spawn(sleeper(), name="sleeper")
    sim.call_after(msec(10), lambda: sim.interrupt(process))
    sim.run()
    assert caught == [msec(10)]
    assert not process.alive


def test_interrupt_during_wait_removes_waiter():
    sim = Simulator()
    gate = sim.completion("never")
    caught = []

    def waiter():
        try:
            yield Wait(gate)
        except Interrupted:
            caught.append(True)

    process = sim.spawn(waiter(), name="waiter")
    sim.call_after(msec(5), lambda: sim.interrupt(process))
    sim.run()
    assert caught == [True]
    assert gate._waiters == []


def test_interrupt_during_compute_lands_at_slice_boundary():
    sim = Simulator(cores=1, quantum_ns=msec(1), switch_cost_ns=0)
    caught_at = []

    def cruncher():
        try:
            yield Compute(msec(100))
        except Interrupted:
            caught_at.append(sim.now)

    process = sim.spawn(cruncher(), name="cruncher")
    sim.call_after(msec(10), lambda: sim.interrupt(process))
    sim.run()
    # Delivered at the end of the slice running at t=10ms: within 1 quantum.
    assert caught_at and msec(10) <= caught_at[0] <= msec(11)
    # The remaining 90 ms of work was abandoned.
    assert sim.now < msec(15)


def test_interrupt_during_compute_is_delivered_at_the_next_boundary():
    sim = Simulator(cores=1, quantum_ns=msec(1), switch_cost_ns=0)
    caught_at = []

    def cruncher():
        try:
            yield Compute(msec(100))
        except Interrupted:
            caught_at.append(sim.now)

    process = sim.spawn(cruncher(), name="cruncher")
    sim.call_after(msec(10.5), lambda: sim.interrupt(process))
    sim.run()
    # Alone on the core, the process still stops at the first boundary
    # after the interrupt: the slice running at 10.5 ms ends at 11 ms.
    assert caught_at == [msec(11)]
    assert sim.cpu.stats.dispatches == 11
    assert process.cpu_time_ns == msec(11)


def test_uncaught_interrupt_ends_process_quietly():
    sim = Simulator()

    def oblivious():
        yield Timeout(msec(100))
        return "never reached"

    process = sim.spawn(oblivious(), name="oblivious")
    sim.call_after(msec(1), lambda: sim.interrupt(process))
    sim.run()  # must not raise
    assert not process.alive
    assert process.result is None
    assert process.done.fired


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield Timeout(1)

    process = sim.spawn(quick(), name="quick")
    sim.run()
    sim.interrupt(process)  # no effect, no error
    sim.run()


def test_finally_releases_mutex_on_interrupt():
    sim = Simulator(cores=2, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    second_got_lock = []

    def holder():
        yield from mutex.acquire()
        try:
            yield Timeout(msec(100))
        finally:
            mutex.release()

    def contender():
        yield Timeout(msec(1))
        yield from mutex.acquire()
        second_got_lock.append(sim.now)
        mutex.release()

    holder_process = sim.spawn(holder(), name="holder")
    sim.spawn(contender(), name="contender")
    sim.call_after(msec(10), lambda: sim.interrupt(holder_process))
    sim.run()
    assert second_got_lock and second_got_lock[0] <= msec(11)


def test_interrupted_mutex_waiter_does_not_wedge_queue():
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    order = []

    def worker(name, delay):
        yield Timeout(delay)
        yield from mutex.acquire()
        order.append(name)
        yield Timeout(msec(10))
        mutex.release()

    sim.spawn(worker("first", 0), name="first")
    victim = sim.spawn(worker("victim", 1), name="victim")
    sim.spawn(worker("third", 2), name="third")
    sim.call_after(msec(5), lambda: sim.interrupt(victim))
    sim.run()
    assert order == ["first", "third"]


def test_interrupted_priority_mutex_waiter_skipped():
    sim = Simulator(cores=4, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def worker(name, delay):
        yield Timeout(delay)
        yield from lock.acquire()
        order.append(name)
        yield Timeout(msec(10))
        lock.release()

    sim.spawn(worker("first", 0), name="first")
    victim = sim.spawn(worker("victim", 1), name="victim", priority=1)
    sim.spawn(worker("third", 2), name="third")
    sim.call_after(msec(5), lambda: sim.interrupt(victim))
    sim.run()
    assert order == ["first", "third"]


def test_priority_mutex_release_drops_every_interrupted_waiter():
    """Dead tickets anywhere in the queue are dropped in one release; the
    live ones are served by priority, then arrival."""
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def holder():
        yield from lock.acquire()
        yield Timeout(msec(10))
        lock.release()

    def worker(name):
        yield Timeout(1)
        yield from lock.acquire()
        order.append((name, repr(lock)))
        lock.release()

    sim.spawn(holder(), name="holder")
    victims = []
    for name, priority in (("a", 5), ("dead1", 1), ("b", 5), ("dead2", 1),
                           ("c", 3), ("d", 3)):
        process = sim.spawn(worker(name), name=name, priority=priority)
        if name.startswith("dead"):
            victims.append(process)
    for victim in victims:
        sim.call_after(msec(5), sim.interrupt, victim)
    sim.run()
    assert order == [
        (name, f"PriorityMutex('priority-mutex', owner='{name}', "
               f"queued={queued})")
        for name, queued in (("c", 3), ("d", 2), ("a", 1), ("b", 0))]


def test_interrupted_spinlock_waiter_does_not_wedge_tickets():
    sim = Simulator(cores=4, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
    order = []

    def worker(name, delay):
        yield Timeout(delay)
        yield from lock.acquire()
        order.append(name)
        yield Timeout(msec(10))
        lock.release()

    sim.spawn(worker("first", 0), name="first")
    victim = sim.spawn(worker("victim", 1), name="victim")
    sim.spawn(worker("third", 2), name="third")
    sim.call_after(msec(5), lambda: sim.interrupt(victim))
    sim.run()
    assert order == ["first", "third"]


def test_interrupted_spinlock_waiter_behind_the_head_keeps_ticket_order():
    sim = Simulator(cores=4, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
    order = []

    def worker(name, delay):
        yield Timeout(delay)
        yield from lock.acquire()
        order.append(name)
        yield Timeout(msec(10))
        lock.release()

    sim.spawn(worker("holder", 0), name="holder")
    spinners = [sim.spawn(worker(f"spinner{n}", msec(n)), name=f"spinner{n}")
                for n in range(1, 5)]
    # spinner3 holds the third outstanding ticket: two ahead, one behind.
    sim.call_after(msec(5), lambda: sim.interrupt(spinners[2]))
    sim.run()
    assert order == ["holder", "spinner1", "spinner2", "spinner4"]
    assert lock._tickets == {}


def test_interrupted_semaphore_waiter_does_not_lose_permit():
    sim = Simulator(cores=4, switch_cost_ns=0)
    sem = Semaphore(sim, count=1)
    acquired = []

    def worker(name, delay):
        yield Timeout(delay)
        yield from sem.acquire()
        acquired.append(name)
        yield Timeout(msec(10))
        sem.release()

    sim.spawn(worker("first", 0), name="first")
    victim = sim.spawn(worker("victim", 1), name="victim")
    sim.spawn(worker("third", 2), name="third")
    sim.call_after(msec(5), lambda: sim.interrupt(victim))
    sim.run()
    assert acquired == ["first", "third"]
    assert sem.count == 1


def test_catch_and_continue_after_interrupt():
    """A process may catch the interrupt and keep running."""
    sim = Simulator()
    phases = []

    def resilient():
        try:
            yield Timeout(msec(100))
        except Interrupted:
            phases.append("interrupted")
        yield Timeout(msec(5))
        phases.append("recovered")
        return "done"

    process = sim.spawn(resilient(), name="resilient")
    sim.call_after(msec(10), lambda: sim.interrupt(process))
    sim.run()
    assert phases == ["interrupted", "recovered"]
    assert process.result == "done"
    assert sim.now == msec(15)
