"""The Pre-parser: build-time parsing of unit files (§3.3, Fig. 6(d)).

Without BB, systemd reads and parses every unit file at boot ("text files
written by hundreds of services") and resolves the dependency lists into
its in-memory graph.  The Pre-parser does both at *build time* and ships a
compact binary cache, so boot pays one sequential read plus a cheap
deserialization instead of hundreds of file operations and text parses.

The cost model is the module constants below, calibrated against
Fig. 6(d): on the Tizen TV workload the cache saves ~150 ms of "loading
services" and ~231 ms of "parsing service dependencies".  The closed-form
predictor (:mod:`repro.analysis.predict`) charges from the same names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.storage import AccessPattern, StorageDevice
from repro.initsys.registry import UnitRegistry
from repro.quantities import usec
from repro.sim.process import Compute

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator


#: CPU cost of one file operation (stat/open/read/close).
FILE_OP_NS = usec(145)
#: File operations systemd performs per unit when loading from text (unit
#: file, drop-in dirs, aliases...).
FILE_OPS_PER_UNIT = 9
#: Fixed parse cost per unit file.
PARSE_BASE_NS = usec(140)
#: Parse cost per byte of unit-file text.
PARSE_PER_BYTE_NS = 150.0
#: Cost of resolving one dependency reference into the in-memory graph
#: (list scans, hash inserts).
RESOLVE_PER_EDGE_NS = usec(600)
#: Deserialization cost per unit when loading the binary cache.
CACHED_UNIT_NS = usec(18)
#: Cache size as a fraction of the text size.
CACHE_COMPRESSION = 0.45


def dependency_edge_count(registry: UnitRegistry) -> int:
    """Total declared dependency/ordering references across the registry."""
    return sum(len(u.requires) + len(u.wants) + len(u.before) + len(u.after)
               + len(u.conflicts) for u in registry)


def _unit_texts(registry: UnitRegistry) -> list[tuple[str, bytes]]:
    """Every unit's name and rendered unit-file text, in name order."""
    return [(name, registry.dump_unit_text(name).encode())
            for name in sorted(registry.names)]


def _fingerprint(texts: list[tuple[str, bytes]]) -> str:
    digest = hashlib.sha256()
    for name, text in texts:
        digest.update(name.encode())
        digest.update(text)
    return digest.hexdigest()


def registry_fingerprint(registry: UnitRegistry) -> str:
    """Stable content hash of every unit file in the registry.

    §2.5's dynamicity is why this exists: "users may install additional
    services, services may be updated ... or a service may update its own
    description at any time".  A cache built before such a change must be
    detected as stale at boot.
    """
    return _fingerprint(_unit_texts(registry))


@dataclass(frozen=True, slots=True)
class RegistryTextStats:
    """What the unit files of one registry weigh, from one rendering pass.

    The text load, the cache build and the closed-form predictor
    (:mod:`repro.analysis.predict`) all charge from these figures.
    """

    unit_count: int
    total_text_bytes: int
    parse_text_ns: int  # sum of per-unit parse costs (base + per-byte)
    edge_count: int
    fingerprint: str


def registry_text_stats(registry: UnitRegistry) -> RegistryTextStats:
    """Render every unit of ``registry`` once and total its text costs."""
    texts = _unit_texts(registry)
    return RegistryTextStats(
        unit_count=len(texts),
        total_text_bytes=sum(len(text) for _, text in texts),
        parse_text_ns=sum(PARSE_BASE_NS + round(PARSE_PER_BYTE_NS * len(text))
                          for _, text in texts),
        edge_count=dependency_edge_count(registry),
        fingerprint=_fingerprint(texts))


@dataclass(frozen=True, slots=True)
class PreParsedCache:
    """A build-time parse cache for one unit set.

    Attributes:
        unit_count: Units serialized into the cache.
        edge_count: Pre-resolved dependency references.
        blob_bytes: On-disk cache size (compact binary, smaller than text).
        fingerprint: Content hash of the unit files the cache was built
            from; a mismatch at boot means the cache is stale.
    """

    unit_count: int
    edge_count: int
    blob_bytes: int
    fingerprint: str = ""

    def is_fresh(self, registry: UnitRegistry) -> bool:
        """Whether the cache still matches the on-disk unit files."""
        return bool(self.fingerprint) and \
            self.fingerprint == registry_fingerprint(registry)


# ------------------------------------------------------------------ build


def build_cache(registry: UnitRegistry) -> PreParsedCache:
    """Produce the build-time cache for a unit set (costs nothing at boot)."""
    stats = registry_text_stats(registry)
    return PreParsedCache(unit_count=stats.unit_count,
                          edge_count=stats.edge_count,
                          blob_bytes=blob_bytes(stats),
                          fingerprint=stats.fingerprint)


# -------------------------------------------------------- cost estimation


def blob_bytes(stats: RegistryTextStats) -> int:
    """On-disk size of the cache built from a unit set."""
    return max(1, round(stats.total_text_bytes * CACHE_COMPRESSION))


def text_loading_cpu_ns(stats: RegistryTextStats) -> int:
    """CPU portion of loading every unit file from text."""
    return FILE_OP_NS * FILE_OPS_PER_UNIT * stats.unit_count


def text_parsing_cpu_ns(stats: RegistryTextStats) -> int:
    """CPU portion of parsing text and resolving the dependency graph."""
    return stats.parse_text_ns + RESOLVE_PER_EDGE_NS * stats.edge_count


# ----------------------------------------------------------- boot loading


def load_from_text(engine: "Simulator", registry: UnitRegistry,
                   storage: StorageDevice) -> "ProcessGenerator":
    """Generator: the conventional boot-time load (no cache).

    Charges two traced phases exactly as Fig. 6(d) splits them:
    ``init.load-units`` (file operations + storage reads) and
    ``init.parse-deps`` (text parse + dependency resolution).
    """
    stats = registry_text_stats(registry)
    load_span = engine.tracer.begin("init.load-units", "init-task")
    yield Compute(text_loading_cpu_ns(stats))
    yield from storage.read(stats.total_text_bytes, AccessPattern.RANDOM)
    engine.tracer.end(load_span)

    parse_span = engine.tracer.begin("init.parse-deps", "init-task")
    yield Compute(text_parsing_cpu_ns(stats))
    engine.tracer.end(parse_span)


def load_from_cache(engine: "Simulator", cache: PreParsedCache,
                    storage: StorageDevice) -> "ProcessGenerator":
    """Generator: the BB boot-time load from the pre-parsed cache."""
    load_span = engine.tracer.begin("init.load-units", "init-task", cached=True)
    yield from storage.read(cache.blob_bytes, AccessPattern.SEQUENTIAL)
    engine.tracer.end(load_span)

    parse_span = engine.tracer.begin("init.parse-deps", "init-task", cached=True)
    yield Compute(CACHED_UNIT_NS * cache.unit_count)
    engine.tracer.end(parse_span)
