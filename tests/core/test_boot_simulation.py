"""End-to-end tests of BootSimulation — the paper's headline numbers."""

import pytest

from repro.analysis.metrics import speedup
from repro.core import BBConfig, BootSimulation
from repro.quantities import msec, sec
from repro.workloads import opensource_tv_workload
from repro.workloads.tizen_tv import PAPER_BB_GROUP


def run(bb, workload=None):
    return BootSimulation(workload or opensource_tv_workload(), bb).run()


class TestHeadlineNumbers:
    """§4.1: BB reduced booting latency by ~57%, from 8.1 s to 3.5 s."""

    def test_no_bb_boots_in_about_8_1_seconds(self):
        report = run(BBConfig.none())
        assert report.boot_complete_ns == pytest.approx(sec(8.1), rel=0.05)

    def test_full_bb_boots_in_about_3_5_seconds(self):
        report = run(BBConfig.full())
        assert report.boot_complete_ns == pytest.approx(sec(3.5), rel=0.05)

    def test_speedup_is_about_57_percent(self):
        baseline = run(BBConfig.none())
        improved = run(BBConfig.full())
        gain = speedup(baseline.boot_complete_ns, improved.boot_complete_ns)
        assert gain == pytest.approx(0.57, abs=0.03)


class TestStageBreakdown:
    """Fig. 6's three major steps."""

    def test_kernel_stage_698_to_403(self):
        assert run(BBConfig.none()).stages.kernel_ns == pytest.approx(msec(698),
                                                                      rel=0.02)
        assert run(BBConfig.full()).stages.kernel_ns == pytest.approx(msec(403),
                                                                      rel=0.02)

    def test_init_stage_195_to_71(self):
        assert run(BBConfig.none()).stages.init_init_ns == pytest.approx(
            msec(195), rel=0.02)
        assert run(BBConfig.full()).stages.init_init_ns == pytest.approx(
            msec(71), rel=0.02)

    def test_stages_sum_to_completion(self):
        report = run(BBConfig.full())
        assert report.stages.total_ns == report.boot_complete_ns


class TestReportContents:
    def test_bb_group_is_the_papers_seven(self):
        report = run(BBConfig.full())
        assert report.bb_group == PAPER_BB_GROUP

    def test_no_bb_reports_empty_group(self):
        assert run(BBConfig.none()).bb_group == frozenset()

    def test_features_recorded(self):
        report = run(BBConfig.none().with_feature("rcu_booster", True))
        assert report.features == ["rcu_booster"]

    def test_unit_timings_cover_the_transaction(self):
        report = run(BBConfig.full())
        assert "fasttv.service" in report.unit_ready_ns
        assert "dbus.service" in report.unit_ready_ns
        assert report.unit_started_ns["fasttv.service"] <= \
            report.unit_ready_ns["fasttv.service"]

    def test_isolation_drops_edges(self):
        report = run(BBConfig.full())
        assert report.ignored_edges > 0
        assert run(BBConfig.none()).ignored_edges == 0

    def test_deferred_work_recorded_and_completes(self):
        report = run(BBConfig.full())
        assert any("deferred" in name for name in report.deferred_task_names)
        assert report.all_done_ns >= report.boot_complete_ns

    def test_rcu_stats_differ_between_modes(self):
        conventional = run(BBConfig.none())
        boosted = run(BBConfig.full())
        assert conventional.rcu_spin_ns > 0
        assert boosted.rcu_spin_ns == 0
        assert boosted.rcu_wall_ns < conventional.rcu_wall_ns

    def test_completion_is_fasttv_readiness(self):
        report = run(BBConfig.full())
        assert report.boot_complete_ns == report.ready_ns("fasttv.service")


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        a = run(BBConfig.full())
        b = run(BBConfig.full())
        assert a.boot_complete_ns == b.boot_complete_ns
        assert a.unit_ready_ns == b.unit_ready_ns
        assert a.rcu_sync_count == b.rcu_sync_count


class TestFeatureMonotonicity:
    """Each feature, enabled on top of everything before it in the paper's
    deployment order, must not slow the boot down."""

    ORDER = ["deferred_meminit", "deferred_journal", "defer_startup_tasks",
             "rcu_booster", "deferred_executor", "preparser",
             "group_isolation", "group_priority_boost",
             "ondemand_modularizer"]

    def test_cumulative_deltas_non_negative(self):
        config = BBConfig.none()
        previous = run(config).boot_complete_ns
        for feature in self.ORDER:
            config = config.with_feature(feature, True)
            current = run(config).boot_complete_ns
            assert current <= previous + msec(20), (
                f"enabling {feature} slowed the boot: "
                f"{previous / 1e6:.1f} -> {current / 1e6:.1f} ms")
            previous = current


def test_run_is_single_shot():
    from repro.errors import SimulationError

    simulation = BootSimulation(opensource_tv_workload(), BBConfig.full())
    simulation.run()
    with pytest.raises(SimulationError, match="single-shot"):
        simulation.run()


def test_core_count_override():
    eight = BootSimulation(opensource_tv_workload(), BBConfig.full(), cores=8).run()
    four = BootSimulation(opensource_tv_workload(), BBConfig.full(), cores=4).run()
    one = BootSimulation(opensource_tv_workload(), BBConfig.full(), cores=1).run()
    assert eight.boot_complete_ns <= four.boot_complete_ns
    assert four.boot_complete_ns < one.boot_complete_ns


def test_preparser_boot_renders_each_unit_text_once(monkeypatch):
    """The manager builds the Pre-parser cache from the registry it loads,
    so the boot renders each unit file once, for that build, and never
    again to check the cache it just built."""
    from collections import Counter

    from repro.initsys.registry import UnitRegistry

    renders = Counter()
    dump_unit_text = UnitRegistry.dump_unit_text

    def counting(self, name):
        renders[name] += 1
        return dump_unit_text(self, name)

    monkeypatch.setattr(UnitRegistry, "dump_unit_text", counting)
    simulation = BootSimulation(opensource_tv_workload(), BBConfig.full())
    simulation.run()
    assert renders
    assert set(renders.values()) == {1}
    assert len(renders) == len(simulation.manager.registry)


@pytest.mark.parametrize("preset", ["broken-tuner", "transient-storage-burst"])
def test_degraded_boot_closes_its_parked_processes(preset, monkeypatch):
    """A degraded boot leaves most processes suspended in generators.  The
    boot closes them itself, without waking anything, so no clean-up of
    theirs runs later, under the garbage collector, in another boot."""
    import gc
    from collections import Counter

    from repro.core.degraded import DegradedBootError
    from repro.faults import build_preset
    from repro.sim import Simulator
    from repro.sim.events import EventQueue
    from repro.sim.sync import Mutex

    calls = Counter()
    phase = ["boot"]

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[phase[0], name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Simulator, "_resume")
    counting(EventQueue, "push")
    counting(Mutex, "release")
    close = BootSimulation._close_parked_processes

    def closing(simulation):
        phase[0] = "close"
        try:
            close(simulation)
        finally:
            phase[0] = "boot"

    monkeypatch.setattr(BootSimulation, "_close_parked_processes", closing)

    gc.collect()
    simulation = BootSimulation(opensource_tv_workload(), BBConfig.full(),
                                fault_plan=build_preset(preset, 1))
    with pytest.raises(DegradedBootError):
        simulation.run()
    processes = simulation.sim.processes
    assert sum(process.alive for process in processes) > 100
    assert all(process._gen.gi_frame is None for process in processes)
    assert calls["close", "_resume"] == calls["close", "push"] == 0
    del simulation, processes
    phase[0] = "gc"
    gc.collect()
    assert calls["gc", "release"] == calls["gc", "_resume"] == 0
