"""Tests for process interruption: delivery points, lock safety."""

import pytest

from repro.quantities import msec, usec
from repro.sim import (Compute, CpuStats, Interrupted, Mutex, Simulator,
                       SpinLock, Timeout, Wait)
from repro.sim.sync import PriorityMutex
from repro.verify.monitor import InvariantMonitor


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


class ResumeCounter:
    """A generator wrapper that counts the engine's resumes of it."""

    def __init__(self, gen):
        self._gen = gen
        self.resumes = 0

    def send(self, value):
        self.resumes += 1
        return self._gen.send(value)

    def throw(self, exc):
        self.resumes += 1
        return self._gen.throw(exc)


def _queued_spinners_scenario(cores, spin_slice_ns):
    """A holder keeps a ticket lock for 7 ms while four spinners queue up
    behind it and busy hogs keep them waiting for a core.  Spinners b and
    c are interrupted while they sit in the run queue, catch it and
    compute 3 ms + 123 ns instead.  Returns the simulator, the lock, the
    log of ``(who, what, when)``, each spinner's generator resumes during
    its acquire, and the attached monitor."""
    sim = Simulator(cores=cores)
    monitor = InvariantMonitor()
    monitor.attach(sim)
    lock = SpinLock(sim, spin_slice_ns=spin_slice_ns)
    log = []
    counters = {}
    acquire_resumes = {}

    def holder():
        yield from lock.acquire()
        log.append(("holder", "locked", sim.now))
        yield Timeout(msec(7))
        lock.release()

    def spinner(name, delay):
        yield Timeout(delay)
        before = counters[name].resumes
        try:
            yield from lock.acquire()
        except Interrupted:
            acquire_resumes[name] = counters[name].resumes - before
            log.append((name, "interrupted", sim.now))
            yield Compute(msec(3) + 123)
            log.append((name, "computed", sim.now))
            return
        acquire_resumes[name] = counters[name].resumes - before
        log.append((name, "locked", sim.now))
        yield Compute(usec(300))
        lock.release()

    def hog(name):
        for _ in range(6):
            yield Compute(msec(2))
            yield Timeout(usec(50))
        log.append((name, "done", sim.now))

    def spawn(gen, name):
        counters[name] = ResumeCounter(gen)
        return sim.spawn(counters[name], name=name)

    spawn(holder(), "holder")
    for n in range(cores):
        spawn(hog(f"hog{n}"), f"hog{n}")
    spinners = {name: spawn(spinner(name, usec(delay)), name)
                for name, delay in (("a", 100), ("b", 200), ("c", 300),
                                    ("d", 400))}

    def interrupt(name):
        # Only while the victim waits in the run queue: retry 100 us later
        # while it holds a core.
        victim = spinners[name]
        if any(entry[2] is victim for entry in sim.cpu._run_queue):
            log.append((name, "interrupt", sim.now))
            sim.interrupt(victim)
        else:
            sim.call_after(usec(100), interrupt, name)

    sim.call_at(msec(4) + 250_000, interrupt, "b")
    sim.call_at(msec(4) + 670_000, interrupt, "c")
    sim.run()
    return sim, lock, log, acquire_resumes, monitor


# (cores, spin_slice_ns) -> (log, CpuStats, spin_time_ns,
# contended_acquires, monitor (events_checked, cpu_checks)).  Together
# the cases deliver the interrupts to the queued spinners from
# CPU.submit, CPU._dispatch and as a quantum rotation's head, and split
# the 2.5 ms spin slice into quanta.
QUEUED_SPINNER_CASES = {
    (1, usec(500)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4250000),
         ("c", "interrupt", 4670000), ("b", "interrupted", 5527000),
         ("c", "interrupted", 5527000), ("a", "locked", 7533000),
         ("d", "locked", 13849000), ("b", "computed", 18161123),
         ("c", "computed", 18163246), ("hog0", "done", 23323246)],
        CpuStats(busy_ns=23101246, switch_ns=72000, dispatches=36,
                 peak_runnable=5),
        4500000, 4, (55, 62)),
    (1, msec(1)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4250000),
         ("c", "interrupt", 5070000), ("a", "locked", 8027000),
         ("b", "interrupted", 8027000), ("c", "interrupted", 8027000),
         ("d", "locked", 13339000), ("b", "computed", 20657123),
         ("c", "computed", 20659246), ("hog0", "done", 25819246)],
        CpuStats(busy_ns=25601246, switch_ns=68000, dispatches=34,
                 peak_runnable=5),
        7000000, 4, (57, 58)),
    (1, usec(2500)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4250000),
         ("c", "interrupt", 5070000), ("b", "interrupted", 8027000),
         ("c", "interrupted", 8027000), ("a", "locked", 10533000),
         ("b", "computed", 22361123), ("c", "computed", 22363246),
         ("d", "locked", 22865246), ("hog0", "done", 28277246)],
        CpuStats(busy_ns=28101246, switch_ns=76000, dispatches=38,
                 peak_runnable=5),
        7500000, 4, (61, 58)),
    (2, usec(500)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4550000),
         ("c", "interrupt", 5070000), ("b", "interrupted", 6022600),
         ("c", "interrupted", 6022600), ("a", "locked", 9028400),
         ("d", "locked", 11536600), ("b", "computed", 13542723),
         ("c", "computed", 13544846), ("hog0", "done", 18704846),
         ("hog1", "done", 18800400)],
        CpuStats(busy_ns=37101246, switch_ns=104000, dispatches=52,
                 peak_runnable=5),
        6500000, 4, (85, 88)),
    (2, msec(1)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4250000),
         ("c", "interrupt", 4670000), ("b", "interrupted", 5016600),
         ("c", "interrupted", 5016600), ("a", "locked", 9022400),
         ("d", "locked", 12030600), ("b", "computed", 14638523),
         ("c", "computed", 14640646), ("hog0", "done", 19800646),
         ("hog1", "done", 20196600)],
        CpuStats(busy_ns=39601246, switch_ns=96000, dispatches=48,
                 peak_runnable=5),
        9000000, 4, (74, 80)),
    (2, usec(2500)): (
        [("holder", "locked", 2200), ("b", "interrupt", 4250000),
         ("c", "interrupt", 4670000), ("b", "interrupted", 5016600),
         ("c", "interrupted", 5016600), ("a", "locked", 8522400),
         ("b", "computed", 14538723), ("c", "computed", 14540846),
         ("d", "locked", 15042846), ("hog0", "done", 20152846),
         ("hog1", "done", 20248400)],
        CpuStats(busy_ns=40101246, switch_ns=100000, dispatches=50,
                 peak_runnable=5),
        7500000, 4, (76, 76)),
}


@pytest.mark.parametrize("cores,spin_slice_ns", list(QUEUED_SPINNER_CASES),
                         ids=lambda value: str(value))
def test_spinners_interrupted_while_queued_are_pinned(cores, spin_slice_ns):
    log, stats, spin_ns, contended, checks = QUEUED_SPINNER_CASES[
        (cores, spin_slice_ns)]
    sim, lock, got, _resumes, monitor = _queued_spinners_scenario(
        cores, spin_slice_ns)
    assert got == log
    assert sim.cpu.stats == stats
    assert lock.spin_time_ns == spin_ns
    assert lock.contended_acquires == contended
    assert (monitor.stats.events_checked, monitor.stats.cpu_checks) == checks
    assert lock._tickets == {} and not lock.locked


@pytest.mark.parametrize("cores,spin_slice_ns", list(QUEUED_SPINNER_CASES),
                         ids=lambda value: str(value))
def test_spinner_generator_resumes_at_most_twice_per_acquire(
        cores, spin_slice_ns):
    """Once when the acquire cost is paid, once when the ticket may take
    the lock (or to deliver the interrupt): the CPU model runs every
    retry in between."""
    *_, resumes, _monitor = _queued_spinners_scenario(cores, spin_slice_ns)
    assert sorted(resumes) == ["a", "b", "c", "d"]
    assert max(resumes.values()) <= 2


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
