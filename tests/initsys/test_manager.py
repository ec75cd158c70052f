"""Tests for the init manager's full user-space boot."""

import pytest

from repro.errors import ConfigurationError
from repro.initsys.manager import BootCompletion, InitManager, ManagerConfig
from repro.initsys.startup_tasks import STARTUP_TASKS
from repro.kernel.modules import KernelModule
from repro.quantities import KiB, msec
from tests.fixtures import COMPLETION_UNITS, boot_mini_tv, mini_tv_registry


def test_boot_completes_and_reports_time():
    sim, manager = boot_mini_tv()
    assert manager.completion is not None
    assert manager.boot_complete_ns > 0
    assert set(manager.completion.unit_ready_ns) == set(COMPLETION_UNITS)
    assert [record.time_ns for record in sim.tracer.instants
            if record.name == "boot.complete"] == [manager.boot_complete_ns]


def test_boot_completion_before_everything_done():
    """Weakly wanted apps (messenger, store) may still be launching when
    the TV counts as booted."""
    sim, manager = boot_mini_tv()
    assert manager.boot_complete_ns < manager.all_done_ns


def test_completion_requires_units_in_transaction():
    config = ManagerConfig(completion_units=("ghost.service",))
    with pytest.raises(ConfigurationError, match="completion units"):
        boot_mini_tv(config)


def test_config_requires_completion_units():
    with pytest.raises(ConfigurationError):
        ManagerConfig(completion_units=())


def test_deferring_startup_tasks_shortens_init_phase():
    sim_plain, _ = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS))
    sim_bb, _ = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS,
                                           defer_startup_tasks=True))
    plain = sim_plain.tracer.find("init.initialization").duration_ns
    bb = sim_bb.tracer.find("init.initialization").duration_ns
    core = sum(t.cpu_ns for t in STARTUP_TASKS if not t.deferrable)
    assert plain == pytest.approx(sum(t.cpu_ns for t in STARTUP_TASKS),
                                  rel=0.05)
    assert bb == pytest.approx(core, rel=0.05)


def test_deferred_startup_tasks_still_run_after_completion():
    sim, manager = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS,
                                              defer_startup_tasks=True))
    span = sim.tracer.find("init.enable-logging-scheme")
    assert span.start_ns >= manager.boot_complete_ns


def test_preparser_accelerates_boot():
    plain_sim, plain = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS))
    bb_sim, bb = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS,
                                            use_preparser=True))
    assert bb.boot_complete_ns < plain.boot_complete_ns


def test_deferred_submodules_speed_up_completion():
    plain_sim, plain = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS))
    bb_sim, bb = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS,
                                            defer_submodules=True))
    assert bb.boot_complete_ns < plain.boot_complete_ns
    # Deferred submodules run after completion.
    span = bb_sim.tracer.find("init.journal-flush-and-rotate")
    assert span.start_ns >= bb.boot_complete_ns


def test_kmod_worker_loads_boot_modules():
    modules = tuple(KernelModule(f"drv{n}", size_bytes=KiB(64)) for n in range(20))
    sim, manager = boot_mini_tv(boot_modules=modules)
    assert len(manager.module_loader.loaded) == 20


def test_ondemand_modularizer_skips_kmod_work():
    modules = tuple(KernelModule(f"drv{n}", size_bytes=KiB(64)) for n in range(20))
    _, plain = boot_mini_tv(boot_modules=modules)
    _, bb = boot_mini_tv(ManagerConfig(completion_units=COMPLETION_UNITS,
                                       ondemand_modules=True),
                         boot_modules=modules)
    assert len(bb.module_loader.loaded) == 0
    assert bb.boot_complete_ns < plain.boot_complete_ns


def test_on_boot_complete_hook_fires_at_completion():
    times = []

    def hook():
        times.append(True)

    sim, manager = boot_mini_tv(on_boot_complete=hook)
    assert times == [True]


def test_boot_complete_ns_before_completion_raises():
    from repro.hw.presets import ue48h6200
    from repro.kernel.rcu import RCUSubsystem
    from repro.sim import Simulator

    sim = Simulator()
    platform = ue48h6200().attach(sim)
    manager = InitManager(sim, mini_tv_registry(), platform.storage,
                          RCUSubsystem(sim),
                          ManagerConfig(completion_units=COMPLETION_UNITS))
    with pytest.raises(ConfigurationError, match="not completed"):
        _ = manager.boot_complete_ns


def test_boot_is_deterministic():
    _, a = boot_mini_tv()
    _, b = boot_mini_tv()
    assert a.boot_complete_ns == b.boot_complete_ns
    assert a.all_done_ns == b.all_done_ns


def test_edge_filter_and_priority_hooks_are_applied():
    """Isolating fasttv's ordering on the slow store app + boosting it
    completes boot earlier."""
    registry = mini_tv_registry()
    # Abusive ordering: store insists on running before fasttv.
    registry.get("store.service").before.append("fasttv.service")

    _, plain = boot_mini_tv(registry=registry)

    registry2 = mini_tv_registry()
    registry2.get("store.service").before.append("fasttv.service")
    bb_group = {"fasttv.service", "tuner.service", "demux.service",
                "remote-input.service", "dbus.service", "dbus.socket", "var.mount"}

    def edge_filter(edge):
        return not (edge.successor in bb_group and edge.predecessor not in bb_group)

    def priority_fn(unit):
        return 20 if unit.name in bb_group else 100

    _, bb = boot_mini_tv(registry=registry2, edge_filter=edge_filter,
                         priority_fn=priority_fn)
    assert bb.boot_complete_ns < plain.boot_complete_ns


def test_completion_dataclass():
    completion = BootCompletion(time_ns=msec(3500),
                                unit_ready_ns={"fasttv.service": msec(3400)})
    assert completion.time_ns == msec(3500)
