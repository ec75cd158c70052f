"""Service Engine — BB's service-level components (§3.3).

Bundles the Booting Booster Group Isolator, the Booting Booster Manager,
the Pre-parser cache build, and the Service Analyzer for one workload, and
exposes the executor hooks (edge filter, priority function) that the init
manager consumes.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.bb_manager import BootingBoosterManager
from repro.core.config import BBConfig
from repro.core.isolator import BBGroupIsolator
from repro.graph.analyzer import AnalyzerReport, ServiceAnalyzer
from repro.initsys.preparser import PreParsedCache, build_cache
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import OrderingEdge
from repro.initsys.units import Unit, replace_unit


class ServiceEngine:
    """Service-level BB for one unit registry and completion definition."""

    def __init__(self, registry: UnitRegistry, completion_units: Iterable[str],
                 bb: BBConfig, manual_group: Iterable[str] | None = None):
        self.bb = bb
        self.registry = registry
        self.completion_units = tuple(completion_units)
        self.isolator = BBGroupIsolator(registry, self.completion_units)
        if manual_group is not None:
            # The Fig. 7 experiment mode: the group is declared by hand
            # ("we have manually added var.mount into the isolated BB
            # group") instead of being identified automatically.
            self.isolator.group = frozenset(n for n in manual_group
                                            if n in registry)
        self.bb_manager = BootingBoosterManager(self.isolator)
        if bb.static_bb_group:
            self._apply_static_builds()

    def _apply_static_builds(self) -> None:
        """§5: statically build BB-Group binaries (no dynamic-link cost)."""
        for name in self.isolator.members_sorted():
            unit = self.registry.get(name)
            if not unit.static_build:
                clone = replace_unit(unit)
                clone.static_build = True
                self.registry.replace(clone)

    # ------------------------------------------------------ executor hooks

    @property
    def edge_filter(self) -> Callable[[OrderingEdge], bool] | None:
        """Isolator hook (None when group isolation is off)."""
        if not self.bb.group_isolation:
            return None
        return self.isolator.edge_filter

    @property
    def priority_fn(self) -> Callable[[Unit], int] | None:
        """BB Manager hook (None when priority boosting is off)."""
        if not self.bb.group_priority_boost:
            return None
        return self.bb_manager.priority_fn

    # ------------------------------------------------------------- tooling

    def build_cache(self) -> PreParsedCache:
        """Build the Pre-parser cache for this registry (build time)."""
        return build_cache(self.registry)

    def analyze(self) -> AnalyzerReport:
        """Run the Service Analyzer over the registry."""
        return ServiceAnalyzer(self.registry).analyze()

    @property
    def bb_group(self) -> frozenset[str]:
        """The isolated BB Group."""
        return self.isolator.group
