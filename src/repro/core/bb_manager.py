"""Booting Booster Manager (§3.3).

"Booting Booster Manager launches processes of the BB Group and
prioritizes and manages processes of the group to complete booting
quickly. ... processes not in the group are deferred if computing
resources are not available."

In the simulation this is a priority policy: BB-Group start jobs run at
:data:`BB_GROUP_PRIORITY` while everything else keeps the default service
priority, so the multicore scheduler (and the priority-aware storage
channel, modelling ``ioprio_set``) automatically defers non-critical work
exactly when resources are contended — and only then.
"""

from __future__ import annotations

from repro.core.isolator import BBGroupIsolator
from repro.initsys.executor import SERVICE_PRIORITY
from repro.initsys.units import Unit

#: CPU/I/O priority of BB-Group start jobs (lower runs first).
BB_GROUP_PRIORITY = 20


class BootingBoosterManager:
    """Priority policy derived from the isolated BB Group."""

    def __init__(self, isolator: BBGroupIsolator):
        self.isolator = isolator

    def priority_fn(self, unit: Unit) -> int:
        """Executor hook: scheduling priority for a unit's start job."""
        if unit.name in self.isolator.group:
            return BB_GROUP_PRIORITY
        return SERVICE_PRIORITY
