"""Checkpoint/fork branch runner: grouping, identity and caching.

The branch engine is only allowed to exist because it is invisible:
every branched cell must be canonically byte-identical to a from-scratch
run of the same job.  These tests pin that contract at one and two fork
children, plus the fingerprint factoring and partitioning rules that
route jobs into it.
"""

import os
import pickle
import threading

import pytest

from repro.core import BBConfig, BootSimulation
from repro.core.degraded import DegradedBootReport
from repro.errors import SimulationError
from repro.faults import (DeferredFault, FaultPlan, PathFault, ServiceFault,
                          SettleFault, StorageFault)
from repro.runner import (BranchRunner, SimJob, SweepRunner,
                          canonical_bytes, execute_job)
from repro.workloads import opensource_tv_workload
from repro.workloads.tizen_tv import perturbed_tv_workload


def _boot(plan=None, **kwargs):
    return SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                       fault_plan=plan, **kwargs)


def _matrix_jobs():
    """A small mixed matrix exercising every branch code path."""
    return [
        _boot(),  # null cell -> trunk report verbatim
        _boot(FaultPlan(seed=21, services=(
            ServiceFault(unit="logger.service", fail_attempts=1),))),
        _boot(FaultPlan(seed=22, services=(
            ServiceFault(unit="dbus.service", fail_attempts=99),))),  # degraded
        _boot(FaultPlan(seed=23, settles=(
            SettleFault(unit="fasttv.service", jitter=0.6),))),
        _boot(FaultPlan(seed=24, settles=(
            SettleFault(unit="logger.service", jitter=0.6),))),  # no divergence
        _boot(FaultPlan(seed=25, deferred=(
            DeferredFault(task="*", fail_attempts=1),))),
        # First perturbed query is a storage request: the branch's
        # injector must answer it by that request's index.
        _boot(FaultPlan(seed=26, storage=(
            StorageFault(spike_rate=0.05, spike_ns=400_000),))),
        # Diverges at the same query as the logger failure above, so two
        # branches leave the trunk at one query.
        _boot(FaultPlan(seed=27, services=(
            ServiceFault(unit="logger.service", hang_ns=30_000_000,
                         hang_rate=1.0),))),
    ]


class TestFingerprintFactoring:
    def test_plans_share_prefix_fingerprint(self):
        jobs = _matrix_jobs()
        assert len({job.prefix_fingerprint() for job in jobs}) == 1
        assert len({job.fingerprint() for job in jobs}) == len(jobs)

    def test_prefix_fingerprint_tracks_prefix_inputs(self):
        base = _boot()
        assert (SimJob.boot(opensource_tv_workload, bb=BBConfig.none())
                .prefix_fingerprint() != base.prefix_fingerprint())
        assert (SimJob.boot(perturbed_tv_workload, 0, 0.3,
                            bb=BBConfig.full())
                .prefix_fingerprint() != base.prefix_fingerprint())
        assert (SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                            cores=2)
                .prefix_fingerprint() != base.prefix_fingerprint())

    def test_strategy_fields_outside_fingerprint(self):
        plan = FaultPlan(seed=1, deferred=(
            DeferredFault(task="*", fail_attempts=1),))
        plain = _boot(plan)
        tuned = _boot(plan, label="tuned")
        assert plain.fingerprint() == tuned.fingerprint()
        assert plain.prefix_fingerprint() == tuned.prefix_fingerprint()


class TestBranchability:
    def test_boot_jobs_branch_by_default(self):
        assert _boot().branchable()
        assert _boot(FaultPlan(seed=1)).branchable()

    def test_path_plans_are_structural(self):
        plan = FaultPlan(seed=1, paths=(
            PathFault(path="/dev/x", delay_ns=1_000),))
        assert not _boot(plan).branchable()

    def test_non_boot_kinds_do_not_branch(self):
        assert not SimJob.recover(opensource_tv_workload).branchable()
        assert not SimJob.kernel(None).branchable()

    def test_prefix_job_strips_divergent_inputs(self):
        job = _boot(FaultPlan(seed=5, deferred=(
            DeferredFault(task="*", fail_attempts=1),)), label="cell")
        prefix = job.prefix_job()
        assert prefix.fault_plan is None
        assert prefix.prefix_fingerprint() == job.prefix_fingerprint()

    def test_partition_routes_small_groups_to_rest(self):
        runner = BranchRunner(min_group=3)
        entries = [(job.fingerprint(), job) for job in _matrix_jobs()[:2]]
        entries.append((SimJob.recover(opensource_tv_workload).fingerprint(),
                        SimJob.recover(opensource_tv_workload)))
        groups, rest = runner.partition(entries)
        assert groups == []
        assert len(rest) == 3

    def test_partition_groups_by_prefix(self):
        jobs = _matrix_jobs() + [
            SimJob.boot(opensource_tv_workload, bb=BBConfig.none()),
            SimJob.boot(perturbed_tv_workload, 0, 0.3, bb=BBConfig.full()),
        ]
        runner = BranchRunner(min_group=3)
        groups, rest = runner.partition(
            [(job.fingerprint(), job) for job in jobs])
        assert [len(g) for g in groups] == [len(_matrix_jobs())]
        assert len(rest) == 2

    def test_unknown_backend_rejected(self):
        # A checkpoint is a fork: "replay" names no backend either.
        for backend in ("teleport", "replay"):
            with pytest.raises(SimulationError, match=backend):
                SweepRunner(branch=True, branch_backend=backend)


@pytest.fixture(scope="module")
def scratch_results():
    """From-scratch ground truth for the mixed matrix, computed once."""
    return {job.fingerprint(): execute_job(job) for job in _matrix_jobs()}


class TestBranchIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_branched_equals_scratch(self, workers, scratch_results):
        jobs = _matrix_jobs()
        runner = BranchRunner(jobs=workers, min_group=2)
        groups, rest = runner.partition(
            [(job.fingerprint(), job) for job in jobs])
        assert rest == []
        results = runner.run_group(groups[0])
        assert set(results) == set(scratch_results)
        for fingerprint, branched in results.items():
            assert (canonical_bytes(branched)
                    == canonical_bytes(scratch_results[fingerprint]))
        assert runner.stats.no_divergence == 2  # null cell + inert settle
        assert runner.stats.branched == len(jobs)
        assert runner.stats.fallbacks == 0
        assert runner.stats.forked == len(jobs) - 2
        assert runner.stats.prefix_boots == 1

    def test_cells_fork_at_their_first_perturbed_query(self, monkeypatch):
        # The storage cell branches at a storage request, and the two
        # logger cells branch together, at one query.
        from repro.runner import branch
        from repro.sim.checkpoint import STORAGE

        queries = []
        forked_at = {}
        observe, fork = branch._Trunk._observe, branch._ForkPool.fork

        def recording_observe(trunk, record):
            queries.append(record)
            observe(trunk, record)

        def recording_fork(pool, fingerprint):
            pipe = fork(pool, fingerprint)
            if pipe is None:
                forked_at[fingerprint] = len(queries) - 1
            return pipe

        monkeypatch.setattr(branch._Trunk, "_observe", recording_observe)
        monkeypatch.setattr(branch._ForkPool, "fork", recording_fork)
        jobs = _matrix_jobs()
        runner = BranchRunner(min_group=2)
        runner.run_group([(job.fingerprint(), job) for job in jobs])
        assert len(forked_at) == len(jobs) - 2
        logger_fail, logger_hang = jobs[1], jobs[7]
        assert (forked_at[logger_fail.fingerprint()]
                == forked_at[logger_hang.fingerprint()])
        assert queries[forked_at[jobs[6].fingerprint()]][0] == STORAGE

    def test_degraded_cell_survives_branching(self, scratch_results):
        degraded = [value for value in scratch_results.values()
                    if isinstance(value, DegradedBootReport)]
        assert len(degraded) == 1  # dbus fail_attempts=99 wedges the boot

    def test_inert_plan_reports_zero_tally(self, scratch_results):
        jobs = _matrix_jobs()
        inert = jobs[4]  # settle jitter on a settle-free unit
        report = scratch_results[inert.fingerprint()]
        assert all(v == 0 for v in report.injected_faults.values())

    def test_child_error_falls_back_once_and_is_reaped(self, monkeypatch,
                                                        scratch_results):
        # A cell whose run raises a non-degraded error inside its fork
        # child: the child sends the traceback and exits, the parent runs
        # that one cell from scratch, and no child is left unreaped.
        parent = os.getpid()
        jobs = _matrix_jobs()
        doomed = jobs[1].fault_plan
        install_plan = BootSimulation.install_plan

        def failing_install(simulation, plan):
            install_plan(simulation, plan)
            if os.getpid() != parent and plan == doomed:
                raise RuntimeError("planted branch-child failure")

        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(BootSimulation, "install_plan", failing_install)
        monkeypatch.setattr(os, "fork", recording_fork)
        runner = BranchRunner(jobs=2, min_group=2)
        results = runner.run_group([(job.fingerprint(), job) for job in jobs])
        monkeypatch.undo()
        for fingerprint, branched in results.items():
            assert (canonical_bytes(branched)
                    == canonical_bytes(scratch_results[fingerprint]))
        assert runner.stats.fallbacks == 1
        assert runner.stats.forked == len(jobs) - 3
        assert len(forked) == len(jobs) - 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_degraded_trunk_keeps_its_forked_cells(self, monkeypatch,
                                                   scratch_results):
        # Each fork child is its cell's own run, so a trunk that degrades
        # after forking costs only the cells still waiting on it: the
        # null cell and the inert settle cell fall back, nothing else.
        build_report = BootSimulation._build_report

        def degrading_trunk(simulation):
            slot = simulation.injector_slot
            if slot is not None and not slot.swapped:
                raise simulation._degraded_error(wedged=True)
            return build_report(simulation)

        monkeypatch.setattr(BootSimulation, "_build_report", degrading_trunk)
        jobs = _matrix_jobs()
        runner = BranchRunner(min_group=2)
        results = runner.run_group([(job.fingerprint(), job) for job in jobs])
        for fingerprint, branched in results.items():
            assert (canonical_bytes(branched)
                    == canonical_bytes(scratch_results[fingerprint]))
        assert runner.stats.forked == len(jobs) - 2
        assert runner.stats.fallbacks == 2


class TestSweepIntegration:
    def _jobs_with_fallback(self):
        return _matrix_jobs() + [_boot(FaultPlan(seed=31, paths=(
            PathFault(path="/dev/branch_test", delay_ns=50_000_000),)))]

    def test_branched_sweep_matches_plain_sweep(self):
        jobs = self._jobs_with_fallback()
        plain = SweepRunner(jobs=1).run(jobs)
        runner = SweepRunner(jobs=1, branch=True, min_branch_group=2)
        branched = runner.run(jobs)
        assert len(branched) == len(plain)
        for a, b in zip(branched, plain):
            assert canonical_bytes(a) == canonical_bytes(b)
        assert runner.stats.branched == len(jobs) - 1
        assert runner.stats.executed == 1  # the structural paths cell
        assert runner.stats.prefix_boots == 1

    def test_fork_backend_pays_one_trunk_per_group(self):
        # The name the benchmark passes still selects the one backend.
        runner = SweepRunner(jobs=1, branch=True, branch_backend="fork",
                             min_branch_group=2)
        runner.run(_matrix_jobs())
        assert runner.stats.prefix_boots == 1

    def test_without_fork_groups_run_from_scratch(self, monkeypatch):
        jobs = self._jobs_with_fallback()
        plain = SweepRunner(jobs=1).run(jobs)
        monkeypatch.delattr(os, "fork")
        runner = SweepRunner(jobs=1, branch=True, min_branch_group=2)
        branched = runner.run(jobs)
        assert ([canonical_bytes(result) for result in branched]
                == [canonical_bytes(result) for result in plain])
        assert runner.stats.prefix_boots == 0
        assert runner.stats.branched == 0
        assert runner.stats.executed == len(jobs)

    def test_branch_forks_see_one_thread_after_a_pooled_batch(
            self, monkeypatch):
        # A runner keeps its worker pool across calls; its management and
        # feeder threads must be gone before a branched group forks.
        from repro.runner import branch

        threads_at_fork = []

        class _Os:
            def __getattr__(self, name):
                return getattr(os, name)

            def fork(self):
                threads_at_fork.append(threading.active_count())
                return os.fork()

        monkeypatch.setattr(branch, "os", _Os())
        jobs = _matrix_jobs()
        with SweepRunner(jobs=2, branch=True, min_branch_group=2) as runner:
            runner.run([SimJob.boot(opensource_tv_workload, cores=cores)
                        for cores in (1, 2)])
            assert threading.active_count() > 1  # the pool's threads
            branched = runner.run(jobs)
        assert threads_at_fork == [1] * (len(jobs) - 2)
        assert runner.stats.branched == len(jobs)
        assert len(branched) == len(jobs)

    def test_branch_results_enter_the_cache(self):
        runner = SweepRunner(jobs=1, branch=True, min_branch_group=2)
        jobs = _matrix_jobs()
        runner.run(jobs)
        again = runner.run(jobs)
        assert runner.stats.cache_hits == len(jobs)
        assert len(again) == len(jobs)

    def test_branch_disabled_by_default(self):
        runner = SweepRunner(jobs=1)
        runner.run(_matrix_jobs()[:2])
        assert runner.stats.branched == 0
        assert runner.stats.executed == 2


class TestCanonicalBytes:
    def test_set_order_insensitive(self):
        left = frozenset({"alpha", "beta", "gamma"})
        right = pickle.loads(pickle.dumps(frozenset(
            ["gamma", "beta", "alpha"])))
        assert canonical_bytes(left) == canonical_bytes(right)

    def test_nested_structures(self):
        a = {"k": [frozenset({1, 2}), (3, {4, 5})]}
        b = {"k": [frozenset({2, 1}), (3, {5, 4})]}
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_distinguishes_values(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})
        assert canonical_bytes((1, 2)) != canonical_bytes([1, 2])
