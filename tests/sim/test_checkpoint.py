"""The checkpoint seam: InjectorSlot transparency and divergence search.

The whole checkpoint/fork design rests on two properties tested here:
a slot's null answers are indistinguishable from having no injector at
all, and :func:`first_divergence` finds exactly the first recorded query
a real injector would answer differently.
"""

import pickle

import pytest

from repro.core import BBConfig, BootSimulation
from repro.errors import SimulationError
from repro.faults import (DeferredFault, FaultPlan, ServiceFault,
                          SettleFault, StorageFault)
from repro.sim.checkpoint import (DEFERRED, SERVICE, SETTLE, STORAGE,
                                  InjectorSlot, first_divergence)
from repro.workloads import opensource_tv_workload


def _null_boot(record=False):
    slot = InjectorSlot(record=record)
    simulation = BootSimulation(opensource_tv_workload(), BBConfig.full(),
                                injector_slot=slot)
    simulation.start()
    return slot, simulation.complete()


class TestSlotTransparency:
    def test_slot_boot_identical_to_plain_boot(self):
        plain = BootSimulation(opensource_tv_workload(),
                               BBConfig.full()).run()
        _, slotted = _null_boot()
        assert pickle.dumps(plain) == pickle.dumps(slotted)

    def test_recording_does_not_perturb(self):
        _, silent = _null_boot(record=False)
        slot, recorded = _null_boot(record=True)
        assert pickle.dumps(silent) == pickle.dumps(recorded)
        assert slot.records  # the probe actually captured queries

    def test_null_answers(self):
        slot = InjectorSlot()
        assert slot.storage_extra_ns(4096, False) == 0
        decision = slot.service_decision("a.service", 1)
        assert not decision.fail and decision.hang_ns == 0
        assert slot.module_decision("mod") == (False, 0)
        assert slot.settle_ns("a.service", 1, 777) == 777
        assert slot.deferred_fails("task", 1) is False
        assert slot.path_blocked("/dev/x") is False
        assert slot.blocked_paths == frozenset()
        assert slot.late_paths() == ()

    def test_record_kinds_and_times(self):
        slot, report = _null_boot(record=True)
        kinds = {record[0] for record in slot.records}
        assert {STORAGE, SERVICE, DEFERRED} <= kinds
        times = [record[-1] for record in slot.records]
        assert times == sorted(times)  # recorded in sim-time order
        assert all(t <= report.all_done_ns for t in times)


class TestSwap:
    def test_swap_seeds_storage_counter(self):
        slot = InjectorSlot()
        for _ in range(5):
            slot.storage_extra_ns(512, False)
        injector = FaultPlan(seed=1).compile()
        slot.swap(injector)
        assert injector._storage_requests == 5
        assert slot.swapped

    def test_double_swap_rejected(self):
        slot = InjectorSlot()
        slot.swap(FaultPlan(seed=1).compile())
        with pytest.raises(SimulationError):
            slot.swap(FaultPlan(seed=2).compile())

    def test_observer_swap_answers_the_offered_query(self):
        # The branch point: an injector the observer swaps in answers the
        # very query it was offered, a storage query by that request's
        # index, and later queries are no longer offered.
        from types import SimpleNamespace

        plan = FaultPlan(seed=9, storage=(
            StorageFault(spike_rate=1.0, spike_ns=1_000),))
        injector = plan.compile()
        offered = []

        def observer(record):
            offered.append(record)
            if len(offered) == 3:
                slot.swap(injector)

        slot = InjectorSlot(observer=observer)
        slot.attach(SimpleNamespace(now=7))
        answers = [slot.storage_extra_ns(512, False) for _ in range(4)]
        assert answers == [0, 0, 1_000, 1_000]
        assert offered == [(STORAGE, index, 512, False, 7)
                           for index in range(3)]
        assert injector._storage_requests == 4

    def test_swapped_slot_forwards(self):
        plan = FaultPlan(seed=3, services=(
            ServiceFault(unit="x.service", fail_attempts=1),))
        slot = InjectorSlot()
        slot.swap(plan.compile())
        assert slot.service_decision("x.service", 1).fail
        assert not slot.service_decision("y.service", 1).fail


class TestFirstDivergence:
    @pytest.fixture(scope="class")
    def records(self):
        slot, _ = _null_boot(record=True)
        return slot.records

    def test_empty_plan_never_diverges(self, records):
        assert first_divergence(records, FaultPlan(seed=9).compile()) is None

    def test_service_fault_diverges_at_first_attempt_query(self, records):
        unit = next(r[1] for r in records if r[0] == SERVICE)
        when = next(r[3] for r in records
                    if r[0] == SERVICE and r[1] == unit and r[2] == 1)
        plan = FaultPlan(seed=9, services=(
            ServiceFault(unit=unit, fail_attempts=1),))
        assert first_divergence(records, plan.compile()) == when

    def test_deferred_fault_diverges_post_completion(self, records):
        task = next(r[1] for r in records if r[0] == DEFERRED)
        when = next(r[3] for r in records
                    if r[0] == DEFERRED and r[1] == task)
        plan = FaultPlan(seed=9, deferred=(
            DeferredFault(task=task, fail_attempts=1),))
        assert first_divergence(records, plan.compile()) == when
        service_times = [r[3] for r in records if r[0] == SERVICE]
        assert when > max(service_times)

    def test_settle_jitter_on_settle_free_unit_never_diverges(self, records):
        settle_units = {r[1] for r in records if r[0] == SETTLE}
        service_units = {r[1] for r in records if r[0] == SERVICE}
        unit = sorted(service_units - settle_units)[0]
        plan = FaultPlan(seed=9, settles=(
            SettleFault(unit=unit, jitter=0.9),))
        assert first_divergence(records, plan.compile()) is None

    def test_storage_fault_respects_request_index(self, records):
        plan = FaultPlan(seed=9, storage=(
            StorageFault(spike_rate=1.0, spike_ns=1_000),))
        when = first_divergence(records, plan.compile())
        first_storage = next(r[-1] for r in records if r[0] == STORAGE)
        assert when == first_storage

    def test_unknown_record_kind_raises(self):
        with pytest.raises(SimulationError):
            first_divergence([("martian", 0)], FaultPlan(seed=1).compile())


class TestConstructionGuards:
    def test_slot_and_plan_are_mutually_exclusive(self):
        with pytest.raises(SimulationError):
            BootSimulation(opensource_tv_workload(), BBConfig.full(),
                           fault_plan=FaultPlan(seed=1),
                           injector_slot=InjectorSlot())

    def test_install_plan_requires_slot(self):
        simulation = BootSimulation(opensource_tv_workload(),
                                    BBConfig.full())
        simulation.start()
        with pytest.raises(SimulationError):
            simulation.install_plan(FaultPlan(seed=1))

    def test_complete_requires_start(self):
        simulation = BootSimulation(opensource_tv_workload(),
                                    BBConfig.full())
        with pytest.raises(SimulationError):
            simulation.complete()
