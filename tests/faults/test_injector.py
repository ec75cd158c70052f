"""Injector determinism: same plan, same answers, no shared RNG."""

from repro.faults import (BootFaultInjector, DeferredFault, FaultPlan,
                          ModuleFault, PathFault, ServiceFault, SettleFault,
                          StorageFault)


def _plan(**kwargs):
    kwargs.setdefault("seed", 42)
    return FaultPlan(**kwargs)


class TestDeterminism:
    def test_two_injectors_agree_on_every_stream(self):
        plan = _plan(
            storage=(StorageFault(spike_rate=0.5, error_rate=0.2),),
            services=(ServiceFault(unit="app-*.service", fail_rate=0.5),),
            modules=(ModuleFault(module="drv_*", fail_rate=0.5),),
            settles=(SettleFault(unit="*", multiplier=1.2, jitter=0.5),),
            deferred=(DeferredFault(task="*", fail_rate=0.5),))
        a, b = BootFaultInjector(plan), BootFaultInjector(plan)
        for index in range(50):
            assert (a.storage_extra_ns(4096, False)
                    == b.storage_extra_ns(4096, False)), index
        for attempt in range(1, 6):
            assert (a.service_decision("app-03.service", attempt)
                    == b.service_decision("app-03.service", attempt))
            assert a.deferred_fails("task-x", attempt) == b.deferred_fails(
                "task-x", attempt)
            assert (a.settle_ns("cam.service", attempt, 1_000_000)
                    == b.settle_ns("cam.service", attempt, 1_000_000))
        for module in ("drv_001", "drv_002", "tuner_drv"):
            assert a.module_decision(module) == b.module_decision(module)

    def test_draws_are_independent_of_order(self):
        plan = _plan(services=(ServiceFault(unit="*", fail_rate=0.5),))
        forward = BootFaultInjector(plan)
        backward = BootFaultInjector(plan)
        units = [f"u{i}.service" for i in range(10)]
        answers_fwd = {u: forward.service_decision(u, 1) for u in units}
        answers_bwd = {u: backward.service_decision(u, 1)
                       for u in reversed(units)}
        assert answers_fwd == answers_bwd

    def test_seed_changes_the_draws(self):
        spec = ServiceFault(unit="*", fail_rate=0.5)
        verdicts = set()
        for seed in range(20):
            injector = BootFaultInjector(_plan(seed=seed, services=(spec,)))
            verdicts.add(injector.service_decision("x.service", 1).fail)
        assert verdicts == {True, False}  # 20 seeds see both outcomes


class TestDecisions:
    def test_fail_attempts_is_deterministic_then_clean(self):
        plan = _plan(services=(ServiceFault(unit="a.service",
                                            fail_attempts=2),))
        injector = BootFaultInjector(plan)
        assert injector.service_decision("a.service", 1).fail
        assert injector.service_decision("a.service", 2).fail
        assert not injector.service_decision("a.service", 3).fail
        assert not injector.service_decision("other.service", 1).fail
        assert injector.stats.service_failures == 2

    def test_hang_applies_with_rate_one(self):
        plan = _plan(services=(ServiceFault(unit="slow.service",
                                            hang_ns=5_000_000),))
        injector = BootFaultInjector(plan)
        assert injector.service_decision("slow.service", 1).hang_ns == 5_000_000
        assert injector.service_decision("fast.service", 1).hang_ns == 0

    def test_storage_writes_excluded_by_default(self):
        plan = _plan(storage=(StorageFault(spike_rate=1.0, spike_ns=100),))
        injector = BootFaultInjector(plan)
        assert injector.storage_extra_ns(1024, is_write=False) == 100
        assert injector.storage_extra_ns(1024, is_write=True) == 0
        assert injector.stats.storage_spikes == 1

    def test_module_glob_and_latency(self):
        plan = _plan(modules=(ModuleFault(module="drv_*", fail_rate=1.0),
                              ModuleFault(module="*", fail_rate=0.0,
                                          extra_latency_ns=1_000)))
        injector = BootFaultInjector(plan)
        fail, extra = injector.module_decision("drv_007")
        assert fail and extra == 1_000
        fail, extra = injector.module_decision("tuner_drv")
        assert not fail and extra == 1_000
        assert injector.stats.module_failures == 1

    def test_blocked_and_late_paths(self):
        plan = _plan(paths=(PathFault(path="/dev/gone", missing=True),
                            PathFault(path="/dev/slow", delay_ns=7),
                            PathFault(path="/dev/noop")))
        injector = BootFaultInjector(plan)
        assert injector.path_blocked("/dev/gone")
        assert not injector.path_blocked("/dev/slow")
        assert injector.late_paths() == (("/dev/slow", 7),)

    def test_settle_never_negative_and_untouched_without_match(self):
        plan = _plan(settles=(SettleFault(unit="cam.*", multiplier=0.0),))
        injector = BootFaultInjector(plan)
        assert injector.settle_ns("cam.service", 1, 1_000_000) == 0
        assert injector.settle_ns("net.service", 1, 1_000_000) == 1_000_000

    def test_stats_as_dict_matches_fields(self):
        injector = BootFaultInjector(_plan())
        tally = injector.stats.as_dict()
        assert not any(tally.values())
        injector.stats.service_failures = 3
        assert injector.stats.as_dict()["service_failures"] == 3
