"""Pinned scheduler counters of real boots.

The simulated results of a boot are pinned elsewhere (report bytes, the
paper's numbers); these pin what the CPU model did to get there: busy and
dispatch time, the number of scheduling decisions, the deepest run queue,
how many events the loop popped, a digest of the popped event stream, the
final clock, and the RCU wait lock's spin time and contended acquires.  A
scheduler change that keeps every result but takes a different path (an
extra dispatch, a skipped event, two same-time events swapped, a spin
slice counted twice) fails here.
"""

import hashlib

import pytest

from repro.core import BBConfig, BootSimulation
from repro.faults import build_preset
from repro.sim import CpuStats, Process
from repro.sim.events import EventQueue
from repro.workloads import WORKLOAD_FACTORIES


class CountingQueue(EventQueue):
    """An event queue that counts the events the run loop pops and folds
    each one's ``(time_ns, seq, process name)`` into a sha256.

    The process is the one the event resumes or slices (its first
    argument); events about no process fold an empty name.
    """

    def __init__(self):
        super().__init__()
        self.popped = 0
        self._digest = hashlib.sha256()

    def pop(self):
        event = super().pop()
        self.popped += 1
        args = event.args
        name = args[0].name if args and isinstance(args[0], Process) else ""
        self._digest.update(f"{event.time_ns},{event.seq},{name};".encode())
        return event

    def hexdigest(self):
        return self._digest.hexdigest()


# (workload, BB, cores, fault preset) ->
# (busy_ns, switch_ns, dispatches, peak_runnable, events, now,
#  RCU spin_time_ns, RCU contended_acquires)
CASES = {
    ("tv-commercial", "none", 2, None):
        (30050946151, 83660000, 41830, 91, 43184, 17616645767,
         9409000000, 520),
    ("phone", "full", 2, None):
        (6918778200, 14302000, 7151, 58, 7359, 4216942691, 3500000, 7),
    ("tv", "full", None, "flaky-services"):
        (10943185390, 23270000, 11635, 35, 12141, 3952985008, 0, 0),
}

# The sha256 of each case's popped event stream (see CountingQueue).
EVENT_DIGESTS = {
    ("tv-commercial", "none", 2, None):
        "27ea53b55e92cfe4533993f6a27de050a5a773b59e57e5f6c576e36c2eada998",
    ("phone", "full", 2, None):
        "800b8472c644e65ce6990d26b278eeba67dceecc95da247590ae212f096c0895",
    ("tv", "full", None, "flaky-services"):
        "38a5e581ed1995a41df1da13eb530f8d76bfacf9d87ee6fb9168d770be9f37c2",
}


def _case_id(case):
    workload, bb, cores, preset = case
    name = f"{workload}/{bb}/c{cores or 'default'}"
    return f"{name}+{preset}" if preset else name


@pytest.mark.parametrize("case", list(CASES), ids=_case_id)
def test_boot_scheduler_counters_are_pinned(case):
    workload, bb, cores, preset = case
    busy, switch, dispatches, peak, events, now, spin, contended = CASES[case]
    queue = CountingQueue()
    simulation = BootSimulation(
        WORKLOAD_FACTORIES[workload](),
        BBConfig.full() if bb == "full" else BBConfig.none(),
        cores=cores,
        fault_plan=build_preset(preset, 1) if preset else None,
        event_queue=queue)
    simulation.run()
    assert simulation.sim.cpu.stats == CpuStats(
        busy_ns=busy, switch_ns=switch, dispatches=dispatches,
        peak_runnable=peak)
    assert queue.popped == events
    assert simulation.sim.now == now
    assert queue.hexdigest() == EVENT_DIGESTS[case]
    wait_lock = simulation.booster.core_engine.rcu._wait_lock
    assert (wait_lock.spin_time_ns, wait_lock.contended_acquires) == (
        spin, contended)
