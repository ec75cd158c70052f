"""Acceptance criterion: same seed + same FaultPlan => bit-identical
results serially, in parallel, and through a warm cache."""

from repro.analysis.export import report_to_json
from repro.core import BBConfig
from repro.core.degraded import DegradedBootReport
from repro.faults import build_preset
from repro.runner import ResultCache, SimJob, SweepRunner
from repro.workloads import opensource_tv_workload


def _fault_jobs():
    return [
        SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                    fault_plan=build_preset("flaky-services", 1)),
        SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                    fault_plan=build_preset("broken-tuner", 1)),
        SimJob.boot(opensource_tv_workload, bb=BBConfig.none(),
                    fault_plan=build_preset("storage-storm", 1)),
        SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                    fault_plan=build_preset("flaky-services", 1)),  # dup
    ]


def test_parallel_equals_serial_with_fault_plans():
    jobs = _fault_jobs()
    serial = SweepRunner(jobs=1).run(jobs)
    with SweepRunner(jobs=2) as runner:
        parallel = runner.run(jobs)
    assert parallel == serial
    # Degraded outcomes travel across process boundaries as results.
    assert isinstance(serial[1], DegradedBootReport)
    assert serial[0] == serial[3]


def test_warm_cache_equals_fresh_run(tmp_path):
    jobs = _fault_jobs()
    cold = SweepRunner(cache=ResultCache(tmp_path)).run(jobs)
    warm_runner = SweepRunner(cache=ResultCache(tmp_path))
    warm = warm_runner.run(jobs)
    assert warm == cold
    assert warm_runner.stats.executed == 0  # everything served from disk
    assert warm_runner.cache.stats.disk_hits > 0


def test_same_plan_same_report_bytes():
    job = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                      fault_plan=build_preset("flaky-services", 3))
    first = SweepRunner().run([job])[0]
    second = SweepRunner().run([job])[0]
    assert report_to_json(first) == report_to_json(second)


def test_different_seed_changes_the_outcome():
    reports = [
        SweepRunner().run([SimJob.boot(
            opensource_tv_workload, bb=BBConfig.full(),
            fault_plan=build_preset("flaky-services", seed))])[0]
        for seed in (1, 2)]
    assert reports[0].failed_units != reports[1].failed_units
