"""The resource-aware worker pool: shards that execute job batches.

A **shard** is one single-process ``ProcessPoolExecutor`` wrapped for
asyncio: the service awaits ``run_batch`` without blocking its event
loop, while the child process runs the batch through an ordinary
:class:`~repro.runner.sweep.SweepRunner` — so branch-sharing
(checkpoint/fork) and the analytic machinery keep working verbatim
inside the fleet.  Shards share results through the scheduler's
in-process cache and, when configured, a content-addressed disk cache
directory (atomic writes make concurrent shard writers safe).

The **pool** owns the shards: it grows and shrinks them between the
policy's bounds (:meth:`WorkerPool.autoscale`), samples each shard's
child CPU/RSS (:mod:`repro.fleet.resources`), and drains them gracefully
on shutdown.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.fleet.resources import ProcessSampler, ResourcePolicy, ResourceSample
from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob
from repro.runner.sweep import SweepRunner


def shard_execute(jobs: list[SimJob], cache_dir: str | None,
                  branch: bool) -> list[Any]:
    """Run one batch inside a shard child; top-level for pickling.

    The batch goes through a fresh serial :class:`SweepRunner` — same
    dedup/cache/branch pipeline as any local sweep, so a fleet result is
    byte-identical to a serial one by construction.  ``cache_dir`` (when
    set) lets sibling shards reuse each other's completed boots across
    batches.
    """
    runner = SweepRunner(jobs=1, cache=ResultCache(cache_dir), branch=branch)
    return runner.run(jobs)


@dataclass(slots=True)
class ShardStatus:
    """One shard's externally visible state (for ``op: status``)."""

    shard_id: int
    busy: bool
    pid: int
    batches: int
    jobs_done: int
    cpu_percent: float | None
    rss_bytes: int | None


class WorkerShard:
    """One worker: a single-process executor plus its resource sampler."""

    def __init__(self, shard_id: int, cache_dir: str | None, branch: bool):
        self.shard_id = shard_id
        self.cache_dir = cache_dir
        self.branch = branch
        self.busy = False
        self.batches = 0
        self.jobs_done = 0
        self._executor = ProcessPoolExecutor(max_workers=1)
        self._sampler: ProcessSampler | None = None
        self._last_sample = ResourceSample(pid=0, cpu_percent=None,
                                           rss_bytes=None)

    @property
    def pid(self) -> int:
        """The child pid, or 0 before the first batch spawns it."""
        processes = getattr(self._executor, "_processes", None) or {}
        for pid in processes:
            return pid
        return 0

    async def run_batch(self, jobs: list[SimJob]) -> list[Any]:
        """Execute ``jobs`` in the shard child; results positionally.

        The shard is busy until the batch ends.  A dispatcher marks it
        busy already when it hands the batch over, so no scale-down
        retires it before this coroutine first runs.
        """
        self.busy = True
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor,
                shard_execute, jobs, self.cache_dir, self.branch)
            self.batches += 1
            self.jobs_done += len(jobs)
            return results
        finally:
            self.busy = False

    def poison(self) -> None:
        """Kill the shard child (chaos harness).

        ``os._exit(137)`` inside the child is indistinguishable from a
        SIGKILL mid-batch: the executor breaks, and the next
        ``run_batch`` raises the same ``BrokenProcessPool`` the service's
        requeue/quarantine path must survive in production.
        """
        try:
            self._executor.submit(os._exit, 137).result(timeout=10)
        except Exception:  # noqa: BLE001 - the broken pool IS the point
            pass

    def sample(self) -> ResourceSample:
        """CPU/RSS of the shard child (re-targets if the child respawned)."""
        pid = self.pid
        if pid and (self._sampler is None or self._sampler.pid != pid):
            self._sampler = ProcessSampler(pid)
        if self._sampler is not None:
            self._last_sample = self._sampler.sample()
        return self._last_sample

    def status(self) -> ShardStatus:
        sample = self._last_sample
        return ShardStatus(shard_id=self.shard_id, busy=self.busy,
                           pid=self.pid, batches=self.batches,
                           jobs_done=self.jobs_done,
                           cpu_percent=sample.cpu_percent,
                           rss_bytes=sample.rss_bytes)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=not wait)


class WorkerPool:
    """The elastic set of shards between the policy's bounds.

    Args:
        policy: Scaling bounds and resource brakes.
        cache_dir: Optional shared disk-cache directory for the shards.
        branch: Route each shard batch through the checkpoint/fork
            engine when prefix groups form inside it.
    """

    def __init__(self, policy: ResourcePolicy,
                 cache_dir: str | None = None, branch: bool = False):
        self.policy = policy
        self.cache_dir = cache_dir
        self.branch = branch
        self.scaled_up = 0
        self.scaled_down = 0
        self.replaced = 0
        self.peak_workers = 0
        self._next_id = 0
        self._shards: list[WorkerShard] = []
        self.scale_to(policy.min_workers)
        self.scaled_up = 0  # the initial fill is not an auto-scale event

    # ------------------------------------------------------------- scaling

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[WorkerShard]:
        return list(self._shards)

    def idle_shards(self) -> list[WorkerShard]:
        return [shard for shard in self._shards if not shard.busy]

    def scale_to(self, target: int) -> int:
        """Grow or shrink toward ``target`` (clamped to the policy
        bounds); only idle shards are retired.  Returns the new size."""
        target = max(self.policy.min_workers,
                     min(self.policy.max_workers, target))
        while len(self._shards) < target:
            shard = WorkerShard(self._next_id, self.cache_dir, self.branch)
            self._next_id += 1
            self._shards.append(shard)
            self.scaled_up += 1
        while len(self._shards) > target:
            idle = self.idle_shards()
            if not idle:
                break  # busy shards retire on a later pass
            shard = idle[-1]
            self._shards.remove(shard)
            shard.shutdown(wait=False)
            self.scaled_down += 1
        self.peak_workers = max(self.peak_workers, len(self._shards))
        return len(self._shards)

    def replace(self, shard: WorkerShard) -> WorkerShard | None:
        """Retire a crashed shard and spawn a fresh one in its place.

        A broken ``ProcessPoolExecutor`` never recovers, so graceful
        degradation means swapping the whole shard, not nursing it.
        Returns the successor, or ``None`` if the shard already left the
        pool (e.g. a concurrent scale-down retired it).
        """
        if shard not in self._shards:
            return None
        self._shards.remove(shard)
        shard.shutdown(wait=False)
        successor = WorkerShard(self._next_id, self.cache_dir, self.branch)
        self._next_id += 1
        self._shards.append(successor)
        self.replaced += 1
        self.peak_workers = max(self.peak_workers, len(self._shards))
        return successor

    def autoscale(self, backlog: int) -> int:
        """One policy step: sample every shard, move one step toward the
        policy's target for the current backlog.  Returns the new size."""
        samples = [shard.sample() for shard in self._shards]
        target = self.policy.target_workers(len(self._shards), backlog,
                                            samples)
        return self.scale_to(target)

    # ------------------------------------------------------------ lifecycle

    def statuses(self) -> list[ShardStatus]:
        return [shard.status() for shard in self._shards]

    def shutdown(self, wait: bool = True) -> None:
        """Stop every shard.  ``wait=True`` is the graceful drain (used
        on SIGTERM after in-flight batches finish); ``wait=False``
        cancels and reaps immediately."""
        for shard in self._shards:
            shard.shutdown(wait=wait)
        self._shards.clear()
