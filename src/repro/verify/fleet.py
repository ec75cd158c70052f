"""Fleet-identity verification: the async service vs the serial sweep.

The fleet stack re-orders everything the serial runner holds fixed —
jobs are batched by an auto-scaling pool, executed in whichever shard
frees up first, answered from cache or coalesced onto in-flight
duplicates, and streamed back over TCP with payload de-duplication.
None of that may change a single byte of a result.  This check runs a
scaled-down fleet campaign (in-process service, ephemeral port) through
:func:`repro.fleet.campaign.run` and relies on its oracle: ticket by
ticket, in submission order, every streamed payload must equal the
canonical encoding of a from-scratch serial replay of the expected
fingerprint.
"""

from __future__ import annotations

from repro.fleet import campaign


def check_fleet_identity(smoke: bool = False) -> tuple[list[str], int, int]:
    """Run the campaign oracle; returns ``(violations, boots, checks)``.

    ``boots`` counts real simulations (fleet executions plus the serial
    replay); ``checks`` counts per-job byte comparisons.
    """
    total_jobs = 300 if smoke else 2_000
    result = campaign.run(smoke=smoke, total_jobs=total_jobs)

    violations = [f"fleet-vs-serial: {mismatch}"
                  for mismatch in result.mismatches]
    if result.executed + result.cache_hits + result.coalesced < result.total_jobs:
        violations.append(
            f"fleet-vs-serial: scheduler accounted for only "
            f"{result.executed + result.cache_hits + result.coalesced} of "
            f"{result.total_jobs} tickets")
    boots = result.executed + result.unique_jobs  # fleet runs + serial replay
    checks = result.total_jobs + 1
    return violations, boots, checks
