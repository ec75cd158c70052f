"""Runner determinism and cache soundness.

The contract under test: a parallel run is bit-identical to the serial
path, and a cache hit is indistinguishable from a fresh simulation.
"""

import pytest

from repro.core import BBConfig
from repro.experiments import scaling, variance
from repro.runner import ResultCache, SimJob, SweepRunner, execute_job
from repro.workloads import opensource_tv_workload
from repro.workloads.tizen_tv import perturbed_tv_workload


def _sample_jobs():
    return [
        SimJob.boot(opensource_tv_workload, bb=BBConfig.full()),
        SimJob.boot(opensource_tv_workload, bb=BBConfig.none()),
        SimJob.boot(perturbed_tv_workload, 0, 0.3, bb=BBConfig.full()),
        SimJob.boot(opensource_tv_workload, bb=BBConfig.full()),  # duplicate
    ]


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self):
        jobs = _sample_jobs()
        serial = SweepRunner(jobs=1).run(jobs)
        with SweepRunner(jobs=2) as runner:
            parallel = runner.run(jobs)
        assert parallel == serial

    def test_parallel_experiment_renders_identically(self):
        factors = (0.5, 1.0)
        serial = scaling.render(scaling.run(factors, runner=SweepRunner()))
        with SweepRunner(jobs=2) as runner:
            parallel = scaling.render(scaling.run(factors, runner=runner))
        assert parallel == serial

    def test_results_return_in_submission_order(self):
        jobs = _sample_jobs()
        results = SweepRunner().run(jobs)
        assert results[0] == results[3]
        assert results[0].features and not results[1].features


class TestChunkedPool:
    def test_chunked_map_is_order_and_result_identical(self):
        # Enough distinct jobs that the computed chunksize exceeds 1
        # (len // (jobs * 4) = 24 // 8 = 3): batching per worker
        # round-trip must not reorder or alter results.
        jobs = [SimJob.boot(perturbed_tv_workload, seed, 0.3,
                            bb=BBConfig.full()) for seed in range(24)]
        serial = SweepRunner(jobs=1).run(jobs)
        with SweepRunner(jobs=2) as runner:
            chunked = runner.run(jobs)
        assert runner.stats.executed == 24
        assert chunked == serial


class TestDedupAndCache:
    def test_duplicate_jobs_simulated_once(self):
        runner = SweepRunner()
        runner.run(_sample_jobs())
        assert runner.stats.submitted == 4
        assert runner.stats.deduplicated == 1
        assert runner.stats.executed == 3

    def test_cache_hit_equals_fresh_run(self):
        job = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        runner = SweepRunner()
        first = runner.run([job])[0]
        second = runner.run([job])[0]
        assert runner.stats.executed == 1
        assert runner.stats.cache_hits == 1
        assert second == first == execute_job(job)

    def test_cache_hit_is_isolated_from_mutation(self):
        job = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        runner = SweepRunner()
        first = runner.run([job])[0]
        first.unit_ready_ns.clear()
        second = runner.run([job])[0]
        assert second.unit_ready_ns

    def test_changed_config_misses_cache(self):
        runner = SweepRunner()
        runner.run([SimJob.boot(opensource_tv_workload, bb=BBConfig.full())])
        runner.run([SimJob.boot(
            opensource_tv_workload,
            bb=BBConfig.full().with_feature("preparser", False))])
        assert runner.stats.executed == 2
        assert runner.stats.cache_hits == 0

    def test_changed_seed_misses_cache(self):
        runner = SweepRunner()
        runner.run([SimJob.boot(perturbed_tv_workload, 0, 0.3)])
        runner.run([SimJob.boot(perturbed_tv_workload, 1, 0.3)])
        assert runner.stats.executed == 2
        assert runner.stats.cache_hits == 0

    def test_variance_experiment_shares_runner_cache(self):
        runner = SweepRunner()
        variance.run(instances=2, runner=runner)
        before = runner.stats.executed
        variance.run(instances=2, runner=runner)
        assert runner.stats.executed == before


class TestDiskCache:
    def test_disk_cache_survives_processes(self, tmp_path):
        job = SimJob.boot(opensource_tv_workload, bb=BBConfig.none())
        first_runner = SweepRunner(cache=ResultCache(tmp_path))
        first = first_runner.run([job])[0]
        assert first_runner.stats.executed == 1

        # A brand-new runner (fresh memory) must hit the disk layer.
        second_runner = SweepRunner(cache=ResultCache(tmp_path))
        second = second_runner.run([job])[0]
        assert second_runner.stats.executed == 0
        assert second_runner.cache.stats.disk_hits == 1
        assert second == first

    def test_torn_disk_entry_is_ignored(self, tmp_path):
        job = SimJob.boot(opensource_tv_workload, bb=BBConfig.none())
        (tmp_path / f"{job.fingerprint()}.pkl").write_bytes(b"not a pickle")
        runner = SweepRunner(cache=ResultCache(tmp_path))
        report = runner.run([job])[0]
        assert runner.stats.executed == 1
        assert report.boot_complete_ms > 0


class TestStats:
    def test_savings_rate(self):
        runner = SweepRunner()
        runner.run(_sample_jobs())
        assert runner.stats.savings_rate == pytest.approx(0.25)

    def test_empty_run(self):
        runner = SweepRunner()
        assert runner.run([]) == []
        assert runner.stats.savings_rate == 0.0


class TestPrefilteredSweep:
    def _matrix(self):
        jobs = []
        for feature in ("rcu_booster", "preparser", "deferred_executor"):
            for enabled in (False, True):
                bb = BBConfig.none().with_feature(feature, enabled)
                jobs.append(SimJob.boot(opensource_tv_workload, bb=bb,
                                        cores=4))
        return jobs

    def test_frontier_des_matches_predictions_exactly(self):
        jobs = self._matrix()
        with SweepRunner() as runner:
            outcome = runner.run_prefiltered(jobs, top_k=2)
        assert len(outcome.predictions) == len(jobs)
        assert len(outcome.selected) == 2
        for index in outcome.selected:
            assert (outcome.results[index].boot_complete_ns
                    == outcome.predictions[index].boot_complete_ns)

    def test_frontier_is_the_predicted_minimum(self):
        jobs = self._matrix()
        with SweepRunner() as runner:
            outcome = runner.run_prefiltered(jobs, top_k=2)
        ranked = sorted(range(len(jobs)),
                        key=lambda i: (outcome.predictions[i]
                                       .boot_complete_ns, i))
        assert outcome.selected == ranked[:2]

    def test_stats_count_predictions_and_skips(self):
        jobs = self._matrix()
        with SweepRunner() as runner:
            outcome = runner.run_prefiltered(jobs, top_k=2)
            assert runner.stats.predicted == len(jobs)
            assert runner.stats.prefilter_skipped == len(jobs) - 2
            assert runner.stats.submitted == 2  # only the frontier ran
        assert outcome.log and "ranked analytically" in outcome.log[0]

    def test_faulted_jobs_are_rejected(self):
        from repro.errors import AnalysisError
        from repro.faults.plan import FaultPlan

        import dataclasses
        job = dataclasses.replace(
            SimJob.boot(opensource_tv_workload, bb=BBConfig.none()),
            fault_plan=FaultPlan())
        with SweepRunner() as runner, pytest.raises(AnalysisError):
            runner.run_prefiltered([job], top_k=1)
