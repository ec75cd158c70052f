"""Tests for sync primitives — especially the spin-vs-sleep core behaviour
that underlies the paper's RCU Booster result."""

import pytest

from repro.errors import SimulationError
from repro.quantities import msec
from repro.sim import Completion, Compute, Mutex, Simulator, SpinLock, Timeout, Wait
from repro.sim.sync import PriorityMutex, wait_all


# ---------------------------------------------------------------- Completion

def test_completion_wakes_all_waiters_with_value():
    sim = Simulator()
    completion = sim.completion("gate")
    results = []

    def waiter(n):
        value = yield Wait(completion)
        results.append((n, value))

    for n in range(3):
        sim.spawn(waiter(n), name=f"waiter{n}")
    sim.call_after(msec(5), lambda: completion.fire("go"))
    sim.run()
    assert results == [(0, "go"), (1, "go"), (2, "go")]


def test_completion_double_fire_rejected():
    sim = Simulator()
    completion = sim.completion()
    completion.fire()
    with pytest.raises(SimulationError):
        completion.fire()


def test_completion_wait_helper_returns_value():
    sim = Simulator()
    completion = sim.completion()

    def waiter():
        value = yield from completion.wait()
        return value

    process = sim.spawn(waiter(), name="w")
    sim.call_after(1, lambda: completion.fire(123))
    sim.run()
    assert process.result == 123


def test_wait_all_waits_for_every_completion():
    sim = Simulator()
    gates = [sim.completion(f"g{n}") for n in range(3)]
    done_at = []

    def waiter():
        yield from wait_all(sim, gates)
        done_at.append(sim.now)

    sim.spawn(waiter(), name="w")
    sim.call_after(msec(1), lambda: gates[2].fire())
    sim.call_after(msec(3), lambda: gates[0].fire())
    sim.call_after(msec(2), lambda: gates[1].fire())
    sim.run()
    assert done_at == [msec(3)]


# --------------------------------------------------------------------- Mutex

def test_mutex_serializes_critical_sections():
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    in_section = [0]
    max_in_section = [0]

    def worker():
        yield from mutex.acquire()
        in_section[0] += 1
        max_in_section[0] = max(max_in_section[0], in_section[0])
        yield Timeout(msec(2))
        in_section[0] -= 1
        mutex.release()

    for n in range(5):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert max_in_section[0] == 1
    assert sim.now == msec(10)


def test_mutex_waiters_do_not_burn_cpu():
    # 4 cores, 1 holder sleeping 10 ms, 3 waiters: CPU stays idle while
    # they sleep on the mutex.
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)

    def worker():
        yield from mutex.acquire()
        yield Timeout(msec(10))
        mutex.release()

    for n in range(4):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert sim.cpu.stats.busy_ns == 0


def test_mutex_is_fifo():
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    order = []

    def worker(n):
        yield Timeout(n)  # stagger arrival: 0, 1, 2, ...
        yield from mutex.acquire()
        order.append(n)
        yield Timeout(msec(1))
        mutex.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}")
    sim.run()
    assert order == [0, 1, 2, 3]


def test_mutex_wake_cost_is_charged_to_waiter():
    sim = Simulator(cores=1, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=5_000)

    def holder():
        yield from mutex.acquire()
        yield Timeout(msec(1))
        mutex.release()

    def waiter():
        yield from mutex.acquire()
        mutex.release()

    sim.spawn(holder(), name="holder")
    waiter_process = sim.spawn(waiter(), name="waiter")
    sim.run()
    assert waiter_process.cpu_time_ns == 5_000
    assert mutex.contended_acquires == 1
    assert mutex.total_acquires == 2


def test_mutex_release_unlocked_rejected():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        mutex.release()


def test_mutex_acquire_outside_process_rejected():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        # Drive the generator by hand outside any process context.
        list(mutex.acquire())


# ------------------------------------------------------------------ SpinLock

def test_spinlock_serializes():
    sim = Simulator(cores=4, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0)
    concurrent = [0]
    worst = [0]

    def worker():
        yield from lock.acquire()
        concurrent[0] += 1
        worst[0] = max(worst[0], concurrent[0])
        yield Timeout(msec(1))
        concurrent[0] -= 1
        lock.release()

    for n in range(4):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert worst[0] == 1


def test_spinlock_waiters_burn_cpu_while_mutex_waiters_sleep():
    """The core claim behind RCU Booster, as a property of the primitives:
    under contention, spin waiters consume core time that mutex waiters
    leave free for other work."""

    def run(lock_kind):
        sim = Simulator(cores=4, switch_cost_ns=0)
        if lock_kind == "spin":
            lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=50_000)
        else:
            lock = Mutex(sim, wake_cost_ns=0)

        def worker():
            yield from lock.acquire()
            yield Timeout(msec(5))  # critical section is a pure wait
            lock.release()

        for n in range(4):
            sim.spawn(worker(), name=f"w{n}")
        sim.run()
        return sim.cpu.stats.busy_ns

    spin_busy = run("spin")
    mutex_busy = run("mutex")
    assert mutex_busy == 0
    # Three waiters spin for ~5/10/15 ms: the burn is macroscopic.
    assert spin_busy >= msec(25)


def test_spinlock_burn_delays_other_runnable_work():
    """On a single core, a spinning waiter starves an innocent task;
    a sleeping waiter does not."""

    def innocent_finish_time(lock_kind):
        sim = Simulator(cores=1, switch_cost_ns=0, quantum_ns=msec(1))
        if lock_kind == "spin":
            lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
        else:
            lock = Mutex(sim, wake_cost_ns=0)
        finish = {}

        def holder():
            yield from lock.acquire()
            yield Timeout(msec(20))
            lock.release()

        def contender():
            yield Timeout(1)
            yield from lock.acquire()
            lock.release()

        def innocent():
            yield Timeout(2)
            yield Compute(msec(10))
            finish["innocent"] = sim.now

        sim.spawn(holder(), name="holder")
        sim.spawn(contender(), name="contender")
        sim.spawn(innocent(), name="innocent")
        sim.run()
        return finish["innocent"]

    fast = innocent_finish_time("mutex")
    slow = innocent_finish_time("spin")
    # Under the mutex the innocent task has the core to itself (~10 ms);
    # under the spinlock it time-shares with the spinner (~19-20 ms).
    assert fast < slow
    assert slow >= msec(18)


def test_spinlock_is_fifo_by_ticket():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=10_000)
    order = []

    def worker(n):
        yield Timeout(n)
        yield from lock.acquire()
        order.append(n)
        yield Timeout(msec(1))
        lock.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}")
    sim.run()
    assert order == [0, 1, 2, 3]


def test_spinlock_release_unlocked_rejected():
    sim = Simulator()
    lock = SpinLock(sim)
    with pytest.raises(SimulationError):
        lock.release()


def test_spinlock_invalid_slice_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        SpinLock(sim, spin_slice_ns=0)


# ------------------------------------------------------------- PriorityMutex

def test_priority_mutex_serves_highest_priority_waiter_first():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def worker(name, priority_delay):
        yield Timeout(priority_delay)
        yield from lock.acquire()
        order.append(name)
        yield Timeout(msec(5))
        lock.release()

    # Holder takes the lock at t=0; low/high queue behind it.
    sim.spawn(worker("holder", 0), name="holder", priority=100)
    sim.spawn(worker("low", 1), name="low", priority=200)
    sim.spawn(worker("high", 2), name="high", priority=10)
    sim.run()
    assert order == ["holder", "high", "low"]


def test_priority_mutex_fifo_within_priority():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def worker(n):
        yield Timeout(n)
        yield from lock.acquire()
        order.append(n)
        yield Timeout(msec(1))
        lock.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}", priority=100)
    sim.run()
    assert order == [0, 1, 2, 3]


def test_priority_mutex_keys_a_waiter_when_it_queues():
    """A waiter keeps the place it queued at: raising its priority while
    it waits does not move it ahead of an earlier waiter."""
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def holder():
        yield from lock.acquire()
        yield Timeout(msec(10))
        lock.release()

    def waiter(name):
        yield Timeout(1)
        yield from lock.acquire()
        order.append(name)
        lock.release()

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter("first"), name="first", priority=100)
    late = sim.spawn(waiter("second"), name="second", priority=100)
    # Raise the second waiter's priority while it is queued.
    sim.call_after(msec(5), lambda: setattr(late, "priority", 1))
    sim.run()
    assert order == ["first", "second"]


def test_priority_mutex_release_unlocked_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PriorityMutex(sim).release()


def test_priority_mutex_acquire_outside_process_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        list(PriorityMutex(sim).acquire())

