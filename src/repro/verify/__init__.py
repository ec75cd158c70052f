"""Simulation verification: invariant monitoring, fuzzing and oracles.

Cooperating layers of defence against a silently wrong simulator:

* :mod:`repro.verify.monitor` — :class:`InvariantMonitor`, an opt-in
  runtime observer asserting time monotonicity, core bounds, dependency
  ordering, deferred-work timing and quiescence during live runs.
* :mod:`repro.verify.perturb` — :class:`PerturbedEventQueue`, a seeded
  chaos tie-breaker for equal-timestamp events, plus the metamorphic
  signature every legal reordering must preserve.
* :mod:`repro.verify.oracles` — property-based differential oracles
  checking simulations against closed-form analytic models and
  cross-cutting laws (BB never slows a boot; cores never hurt).
* :mod:`repro.verify.branch` — the branch-identity oracle: every cell of
  a mixed fault matrix run through the checkpoint/fork engine must be
  canonically byte-identical to a from-scratch boot.
* :mod:`repro.verify.fleet` — the fleet-identity oracle: a campaign
  streamed through the async boot service must deliver results
  byte-identical to a serial replay.
* :mod:`repro.verify.generations` — the generation-identity oracle: an
  OTA rollout staged through the fleet service must report
  byte-identically to its serial replay, and generation commits must
  round-trip through the on-disk store.
* :mod:`repro.verify.fleet_crash` — the crash-recovery oracle: a real
  service subprocess is power-cut mid-campaign at a seeded journal
  offset, restarted, and the stitched campaign must be byte-identical
  to an uninterrupted serial run.

The fleet and fleet-crash groups share one driver and one oracle,
:func:`repro.fleet.campaign.run`; they differ only in where the service
runs and what happens to it.  :func:`run_verification` drives every
group; the CLI surfaces it as ``repro verify [--smoke] [--only GROUP]``.
"""

from repro.verify.branch import check_branch_identity, identity_matrix
from repro.verify.fleet import check_fleet_identity
from repro.verify.fleet_crash import check_fleet_crash
from repro.verify.generations import check_generation_identity
from repro.verify.monitor import InvariantMonitor, MonitorStats, Violation
from repro.verify.perturb import (PerturbedEventQueue, diff_signatures,
                                  metamorphic_signature)
from repro.verify.runner import (CheckResult, VerificationReport,
                                 run_verification)

__all__ = [
    "CheckResult",
    "InvariantMonitor",
    "MonitorStats",
    "PerturbedEventQueue",
    "VerificationReport",
    "Violation",
    "check_branch_identity",
    "check_fleet_crash",
    "check_fleet_identity",
    "check_generation_identity",
    "diff_signatures",
    "identity_matrix",
    "metamorphic_signature",
    "run_verification",
]
