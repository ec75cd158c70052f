"""Tests for the simulation engine: process lifecycle, requests, determinism."""

import pytest

from repro.errors import SimulationError
from repro.quantities import msec
from repro.sim import Compute, Simulator, Timeout, Wait
from repro.sim.events import EventQueue


class CallCountingQueue(EventQueue):
    """An event queue that counts the loop's calls into it."""

    def __init__(self):
        super().__init__()
        self.pops = 0
        self.peeks = 0

    def pop(self):
        self.pops += 1
        return super().pop()

    def peek_time(self):
        self.peeks += 1
        return super().peek_time()


def test_timeout_advances_time_without_cpu():
    sim = Simulator(cores=1)

    def sleeper():
        yield Timeout(msec(10))

    sim.spawn(sleeper(), name="sleeper")
    sim.run()
    assert sim.now == msec(10)
    assert sim.cpu.stats.busy_ns == 0


def test_compute_uses_cpu_time():
    sim = Simulator(cores=1, switch_cost_ns=0)

    def worker():
        yield Compute(msec(3))

    process = sim.spawn(worker(), name="worker")
    sim.run()
    assert sim.now == msec(3)
    assert process.cpu_time_ns == msec(3)


def test_process_result_propagates():
    sim = Simulator()

    def producer():
        yield Timeout(1)
        return "value"

    process = sim.spawn(producer(), name="producer")
    sim.run()
    assert process.result == "value"
    assert not process.alive


def test_zero_compute_resumes_immediately():
    sim = Simulator(cores=1, switch_cost_ns=0)

    def worker():
        yield Compute(0)
        return "done"

    process = sim.spawn(worker(), name="worker")
    sim.run()
    assert sim.now == 0
    assert process.result == "done"


def test_long_chain_of_zero_computes_keeps_the_stack_flat():
    # A zero-length compute resumes the process in place, so a chain of
    # them must not nest one set of stack frames per link.
    sim = Simulator(cores=1, switch_cost_ns=0)

    def worker():
        for _ in range(10_000):
            yield Compute(0)
        yield Compute(1)
        return "done"

    process = sim.spawn(worker(), name="worker")
    sim.run()
    assert process.result == "done"
    assert sim.now == 1
    assert sim.cpu.stats.dispatches == 1


def test_wait_on_done_joins_processes():
    sim = Simulator()
    order = []

    def child():
        yield Timeout(msec(5))
        order.append("child")
        return 7

    def parent(child_process):
        value = yield Wait(child_process.done)
        order.append("parent")
        return value

    child_process = sim.spawn(child(), name="child")
    parent_process = sim.spawn(parent(child_process), name="parent")
    sim.run()
    assert order == ["child", "parent"]
    assert parent_process.result == 7


def test_wait_on_already_fired_completion_resumes():
    sim = Simulator()
    completion = sim.completion("early")

    def late_waiter():
        yield Timeout(msec(1))
        value = yield Wait(completion)
        return value

    completion.fire("payload")
    process = sim.spawn(late_waiter(), name="late")
    sim.run()
    assert process.result == "payload"


def test_process_exception_surfaces_in_run():
    sim = Simulator()

    def broken():
        yield Timeout(1)
        raise ValueError("model bug")

    sim.spawn(broken(), name="broken")
    with pytest.raises(ValueError, match="model bug"):
        sim.run()


def test_unknown_request_is_rejected():
    sim = Simulator()

    def confused():
        yield "not a request"

    sim.spawn(confused(), name="confused")
    with pytest.raises(SimulationError, match="unknown request"):
        sim.run()


def test_run_until_stops_early():
    sim = Simulator()

    def sleeper():
        yield Timeout(msec(100))

    process = sim.spawn(sleeper(), name="sleeper")
    stopped_at = sim.run(until_ns=msec(10))
    assert stopped_at == msec(10)
    assert process.alive
    sim.run()
    assert not process.alive


def test_run_pops_once_per_event_and_peeks_only_to_a_time_limit():
    queue = CallCountingQueue()
    sim = Simulator(cores=1, quantum_ns=msec(1), event_queue=queue)

    def worker():
        yield Compute(msec(3))  # three slices
        yield Timeout(msec(1))

    sim.spawn(worker(), name="worker")
    sim.spawn(worker(), name="other")
    sim.run(until_ns=msec(2))
    assert queue.peeks == queue.pops + 1  # the last peek finds the limit
    popped_to_limit = queue.pops
    sim.run()
    assert queue.peeks == popped_to_limit + 1
    assert queue.pops == queue._seq  # every scheduled event, once
    assert sim.now == msec(7) + 6 * sim.cpu.switch_cost_ns


def test_event_before_the_clock_is_rejected():
    sim = Simulator()
    sim.call_at(msec(5), lambda: None)
    sim.run()
    sim.events.push(msec(1), lambda: None)
    with pytest.raises(SimulationError, match="backwards"):
        sim.run()


def test_current_process_is_restored_after_a_nested_resume():
    sim = Simulator()
    gate = sim.completion("gate")
    seen = []

    def waiter():
        yield Wait(gate)
        seen.append(("waiter", sim.current_process.name))

    def firer():
        yield Timeout(1)
        gate.fire()  # steps the waiter inside this step
        seen.append(("firer", sim.current_process.name))

    sim.spawn(waiter(), name="waiter")
    sim.spawn(firer(), name="firer")
    assert sim.current_process is None
    sim.run()
    assert seen == [("waiter", "waiter"), ("firer", "firer")]
    assert sim.current_process is None


def test_call_after_runs_plain_callback():
    sim = Simulator()
    fired = []
    sim.call_after(msec(2), lambda: fired.append(sim.now))
    sim.run()
    assert fired == [msec(2)]


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.call_after(msec(2), lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(msec(1), lambda: None)


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1)


def test_negative_compute_rejected():
    with pytest.raises(SimulationError):
        Compute(-5)


def test_identical_runs_are_bit_for_bit_deterministic():
    def build_and_run():
        sim = Simulator(cores=2)
        log = []

        def worker(n):
            yield Compute(msec(2 + n))
            log.append((sim.now, n))
            yield Timeout(msec(n))
            log.append((sim.now, n))

        for n in range(6):
            sim.spawn(worker(n), name=f"w{n}")
        sim.run()
        return sim.now, tuple(log)

    assert build_and_run() == build_and_run()


def test_yield_from_composes_subactivities():
    sim = Simulator(cores=1, switch_cost_ns=0)

    def sub():
        yield Compute(msec(1))
        return 10

    def main():
        a = yield from sub()
        b = yield from sub()
        return a + b

    process = sim.spawn(main(), name="main")
    sim.run()
    assert process.result == 20
    assert sim.now == msec(2)
