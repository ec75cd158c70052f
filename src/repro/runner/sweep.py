"""The sweep runner: dedup, cache, branch, fan out, return results in order.

``SweepRunner.run`` takes any sequence of :class:`SimJob`\\ s and returns
their results *positionally* — submission order, not completion order —
so a parallel run is bit-identical to the serial one.  Between submission
and execution sit three cuts:

1. **Dedup** — jobs with equal fingerprints are executed once and the
   result fanned back to every position (`experiment all` asks for the
   stock TV boot dozens of times).
2. **Cache** — surviving fingerprints are looked up in the
   :class:`~repro.runner.cache.ResultCache` before any simulation runs.
3. **Branch** (opt-in) — jobs sharing a prefix fingerprint are grouped
   and routed through the :class:`~repro.runner.branch.BranchRunner`,
   which boots the shared fault-free trunk once and forks a copy-on-write
   child per cell at the cell's first perturbed fault query instead of
   re-simulating every boot from t=0.

What remains executes serially (``jobs=1``) or on a lazily created
``ProcessPoolExecutor`` with a computed chunksize (one pickle round-trip
per job at ``chunksize=1`` is measurable on 100+-cell matrices); either
way results land by position.

``SweepRunner.run_prefiltered`` adds a fourth cut *before* all of the
above: every cell of a design-space sweep is solved by the closed-form
boot predictor (:mod:`repro.analysis.predict`), the cells are ranked
analytically, and only the top-``k`` frontier ever reaches the DES.
Because the predictor is exact on unperturbed boots, the analytic
frontier is the DES frontier.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import RunnerError, SimulationError
from repro.runner.branch import BranchRunner
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob, execute_job
from repro.runner.schedule import plan_batch


@dataclass(slots=True)
class SweepStats:
    """What one runner did across its lifetime.

    Attributes:
        submitted: Jobs passed to :meth:`SweepRunner.run`.
        deduplicated: Submissions collapsed onto an identical job in the
            same batch.
        cache_hits: Unique jobs served from the result cache.
        executed: Unique jobs simulated from scratch.
        branched: Unique jobs resolved as branches off a shared prefix
            (checkpoint/fork) instead of from-scratch runs.
        prefix_boots: Trunk boots the branch runner paid to resolve the
            branched jobs, one per prefix group.
        predicted: Jobs solved analytically by the closed-form boot
            predictor during pre-filtered sweeps.
        prefilter_skipped: Predicted jobs that never reached the DES
            because they fell outside the requested frontier.
    """

    submitted: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    executed: int = 0
    branched: int = 0
    prefix_boots: int = 0
    predicted: int = 0
    prefilter_skipped: int = 0

    @property
    def savings_rate(self) -> float:
        """Fraction of submissions that never ran a from-scratch boot."""
        if not self.submitted:
            return 0.0
        return 1.0 - self.executed / self.submitted


class SweepRunner:
    """Deduplicating, caching, optionally parallel/branching job executor.

    Args:
        jobs: Worker processes; ``1`` (the default) executes serially in
            the calling process, in submission order.  Also bounds the
            concurrent fork children of a branched group.
        cache: Result store; defaults to a fresh in-memory cache.
        branch: Route prefix-sharing job groups through the
            checkpoint/fork :class:`~repro.runner.branch.BranchRunner`
            (byte-identical results, verified by ``repro verify``; off by
            default).  On a platform without ``os.fork`` they run from
            scratch instead.
        branch_backend: ``None`` or ``"fork"``, the one backend there is.
        min_branch_group: Smallest prefix group worth branching.

    Raises:
        SimulationError: For any other ``branch_backend``.

    Use as a context manager (or call :meth:`close`) to shut down the
    worker pool; a never-used pool costs nothing.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 branch: bool = False, branch_backend: str | None = None,
                 min_branch_group: int = 3):
        if branch_backend not in (None, "fork"):
            raise SimulationError(f"unknown branch backend {branch_backend!r} "
                                  "(the only one is 'fork')")
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else ResultCache()
        self.branch = bool(branch)
        self.min_branch_group = min_branch_group
        self.stats = SweepStats()
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Shut down the worker pool, if one was ever created."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ execution

    def run(self, jobs: Sequence[SimJob]) -> list[Any]:
        """Execute ``jobs`` and return their results in submission order."""
        jobs = list(jobs)
        self.stats.submitted += len(jobs)

        # Dedup + cache cuts, shared with the fleet scheduler layer.
        plan = plan_batch(jobs, self.cache)
        self.stats.deduplicated += plan.deduplicated
        self.stats.cache_hits += plan.cache_hits
        results = plan.results
        missing = plan.missing

        # Branch cut: groups sharing a prefix run as one trunk boot plus
        # forked branches.
        if missing and self.branch:
            missing = self._run_branched(missing, results)

        # Execute what is left, serially or fanned out.
        if missing:
            self.stats.executed += len(missing)
            to_run = [job for _, job in missing]
            if self.jobs == 1 or len(to_run) == 1:
                outcomes = [execute_job(job) for job in to_run]
            else:
                outcomes = self._run_pooled(to_run)
            for (fingerprint, _), outcome in zip(missing, outcomes):
                self.cache.put(fingerprint, outcome)
                results[fingerprint] = outcome

        return [results[fingerprint] for fingerprint in plan.fingerprints]

    def _run_pooled(self, to_run: list[SimJob]) -> list[Any]:
        """Fan jobs out over the worker pool, cleaning up on disaster.

        A ``KeyboardInterrupt`` or a broken pool (a worker died holding
        work — OOM kill, segfault, ``os._exit``) used to orphan the
        remaining workers and surface as whatever traceback the executor
        happened to be holding.  Both now cancel every pending future,
        shut the pool down, and raise a single clean
        :class:`~repro.errors.RunnerError` with the original cause
        attached.
        """
        # Batch jobs per worker round-trip: chunksize=1 pays one
        # pickle/unpickle cycle per job, which dominates on large
        # matrices of fast simulations.
        chunksize = max(1, len(to_run) // (self.jobs * 4))
        try:
            return list(self._get_pool().map(execute_job, to_run,
                                             chunksize=chunksize))
        except (KeyboardInterrupt, BrokenProcessPool) as exc:
            self._abort_pool()
            reason = ("sweep interrupted" if isinstance(exc, KeyboardInterrupt)
                      else "worker pool broke mid-sweep")
            raise RunnerError(
                f"{reason}; pending jobs cancelled, workers shut down "
                f"({len(to_run)} jobs were in flight)") from exc

    def _abort_pool(self) -> None:
        """Cancel pending futures and reap workers without blocking on
        queued work; the next run lazily builds a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def run_prefiltered(self, jobs: Sequence[SimJob],
                        top_k: int) -> "PrefilterOutcome":
        """Rank boot jobs analytically; run the DES only on the frontier.

        Every job is first solved by the closed-form boot predictor
        (:mod:`repro.analysis.predict` — exact for unperturbed boots, so
        the analytic ranking and a DES ranking agree).  The ``top_k``
        fastest-predicted jobs then run through the normal
        dedup/cache/branch pipeline; everything else is skipped and
        carries its prediction as the result.

        Jobs sharing a workload factory share one
        :class:`~repro.analysis.predict.SweepPredictor`, so a feature
        sweep pays for a handful of machine solutions, not one per cell.

        Args:
            jobs: Unperturbed ``boot`` jobs (a fault plan or a non-boot
                kind raises :class:`~repro.errors.AnalysisError`).
            top_k: Frontier size to execute through the DES.

        Raises:
            AnalysisError: If any job cannot be predicted.
        """
        from repro.analysis.predict import SweepPredictor, predict_job
        from repro.runner.jobs import KIND_BOOT

        jobs = list(jobs)
        predictors: dict[tuple, SweepPredictor] = {}
        predictions = []
        for job in jobs:
            if (job.kind != KIND_BOOT or job.fault_plan is not None
                    or job.workload_factory is None
                    or job.kernel_config is not None
                    or job.manual_bb_group is not None):
                # Overrides the sweep cache cannot key on, or job shapes
                # the predictor rejects outright (raising AnalysisError).
                predictions.append(predict_job(job))
                continue
            key = (job.workload_factory, job.workload_args,
                   job.workload_kwargs)
            predictor = predictors.get(key)
            if predictor is None:
                factory = job.workload_factory
                args, kwargs = job.workload_args, dict(job.workload_kwargs)
                predictor = SweepPredictor(
                    lambda f=factory, a=args, k=kwargs: f(*a, **k))
                predictors[key] = predictor
            predictions.append(predictor.predict(job.bb, job.cores))
        self.stats.predicted += len(jobs)

        ranked = sorted(range(len(jobs)),
                        key=lambda i: (predictions[i].boot_complete_ns, i))
        selected = ranked[:max(0, top_k)]
        self.stats.prefilter_skipped += len(jobs) - len(selected)
        outcomes = self.run([jobs[index] for index in selected])
        machine_runs = sum(p.machine_runs for p in predictors.values())
        fast_hits = sum(p.fast_hits for p in predictors.values())
        log = [
            f"pre-filter: {len(jobs)} cells ranked analytically "
            f"({machine_runs} machine solutions, {fast_hits} sweep-cache "
            f"hits); DES ran {len(selected)} frontier cells, skipped "
            f"{len(jobs) - len(selected)} "
            f"({(len(jobs) - len(selected)) / max(1, len(jobs)):.1%})",
        ]
        return PrefilterOutcome(
            predictions=predictions, selected=selected,
            results=dict(zip(selected, outcomes)), log=log)

    # ------------------------------------------------------------ internals

    def _run_branched(self, missing: list[tuple[str, SimJob]],
                      results: dict[str, Any]) -> list[tuple[str, SimJob]]:
        """Resolve branchable prefix groups; returns the unbranched rest."""
        if not hasattr(os, "fork"):
            return missing
        runner = BranchRunner(jobs=self.jobs, min_group=self.min_branch_group)
        groups, rest = runner.partition(missing)
        if groups:
            # Fork children must start from a single-threaded process: a
            # lock that the worker pool's management or feeder thread holds
            # at the fork stays held in the child.  So the pool goes
            # first; the next pooled batch re-creates it.
            self.close()
        for group in groups:
            for fingerprint, outcome in runner.run_group(group).items():
                self.cache.put(fingerprint, outcome)
                results[fingerprint] = outcome
        self.stats.branched += runner.stats.branched
        self.stats.executed += runner.stats.fallbacks
        self.stats.prefix_boots += runner.stats.prefix_boots
        return rest

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool


@dataclass(slots=True)
class PrefilterOutcome:
    """What :meth:`SweepRunner.run_prefiltered` produced.

    Attributes:
        predictions: One :class:`~repro.analysis.predict.BootPrediction`
            per submitted job, positionally.
        selected: Submission indices of the executed frontier, in
            predicted-rank order (fastest first).
        results: Submission index -> DES boot report, for frontier jobs.
        log: Human-readable skip statistics for sweep logs.
    """

    predictions: list[Any]
    selected: list[int]
    results: dict[int, Any]
    log: list[str]
