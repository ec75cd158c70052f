"""The serial-identity oracle: the one "path X == serial" check.

The fleet campaign (``fleet-identity``, ``fleet-crash``), the
``branch-identity`` verify group and ``repro bench``'s checkpoint leg
all compare their results with a :class:`SerialReplay`, by
:func:`~repro.runner.branch.canonical_bytes`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from repro.runner.branch import canonical_bytes
from repro.runner.jobs import SimJob
from repro.runner.sweep import SweepRunner


class SerialReplay:
    """Each unique job of ``jobs`` run once through a fresh serial
    :class:`~repro.runner.sweep.SweepRunner`.

    Args:
        jobs: ``(job, repeat)`` pairs in stream order, each standing for
            ``repeat`` consecutive positions (what
            :func:`repro.fleet.protocol.job_from_spec` returns).

    Attributes:
        fingerprints: The expected fingerprint at each position.
        payloads: Canonical bytes of each unique fingerprint's result.
        wall_s: Wall time of the serial run, encoding excluded.
    """

    def __init__(self, jobs: Sequence[tuple[SimJob, int]]):
        self.fingerprints: list[str] = []
        unique: dict[str, SimJob] = {}
        for job, repeat in jobs:
            fingerprint = job.fingerprint()
            unique.setdefault(fingerprint, job)
            self.fingerprints += [fingerprint] * repeat
        started = time.perf_counter()
        with SweepRunner(jobs=1) as runner:
            results = runner.run(list(unique.values()))
        self.wall_s = time.perf_counter() - started
        self.payloads = {fingerprint: canonical_bytes(result)
                         for fingerprint, result in zip(unique, results)}

    @property
    def unique_jobs(self) -> int:
        return len(self.payloads)

    def compare(self, stream: Iterable[tuple[str, bytes]], source: str,
                where: Callable[[int], str] = "job {}".format) -> list[str]:
        """One line per position of a ``(fingerprint, canonical bytes)``
        stream that differs from the replay, prefixed ``where(i)`` and
        naming ``source``.  Only positions both sides have are compared:
        a caller whose stream can come up short counts it itself."""
        mismatches: list[str] = []
        for index, (want, (got, payload)) in enumerate(
                zip(self.fingerprints, stream)):
            if got != want:
                mismatches.append(
                    f"{where(index)}: {source} fingerprint {got[:12]} "
                    f"where the serial replay has {want[:12]}")
            elif payload != self.payloads[want]:
                mismatches.append(
                    f"{where(index)}: {source} payload differs from the "
                    f"serial replay ({want[:12]})")
        return mismatches
