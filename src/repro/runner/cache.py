"""Content-addressed result cache for simulation jobs.

Keys are :meth:`SimJob.fingerprint` hashes, which already include the
code-version salt, so the invalidation rule is simply "a key either means
exactly one result, forever, or it means nothing" — the same property
content-addressed stores like git rely on.  The in-memory layer makes
repeats within one ``experiment all`` free; the optional on-disk layer
(one pickle per fingerprint, written atomically) makes them free across
process runs.

Both layers store the same canonical pickle bytes: a ``put`` pickles the
value exactly once (the disk layer writes those bytes verbatim) and every
``get`` unpickles a fresh object, so callers can never alias the cached
master and memory hits are byte-equivalent to disk hits by construction.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.atomic import atomic_write_bytes

#: Exceptions that mean "this pickle is junk": a torn write, bit rot, or
#: a pickle referencing a class that no longer exists.
_LOAD_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, UnicodeDecodeError)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`.

    Attributes:
        memory_hits: Results served from the in-process byte store.
        disk_hits: Results loaded (and re-memoized) from the disk layer.
        misses: Lookups that found nothing anywhere.
        stores: Results written into the cache.
        disk_errors: On-disk entries that existed but could not be
            loaded (corrupt/torn pickle, stale class); each is unlinked
            so it cannot fail again, and the lookup counts as a miss.
        evictions: On-disk entries removed by the ``max_bytes`` LRU cap.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_errors: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served without running a simulation."""
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """In-memory (always) + on-disk (optional) result store.

    Args:
        disk_dir: Directory for the persistent layer; created on first
            write.  ``None`` keeps the cache purely in-memory.
        max_bytes: Optional cap on the disk layer's total size.  When a
            write pushes the store past the cap, the least-recently-used
            entries (by mtime — every hit refreshes it) are unlinked
            until the store fits again, and ``stats.evictions`` counts
            them.  A long-running fleet service can therefore keep a
            bounded warm set instead of growing the directory forever.
            ``None`` (the default) never evicts.
    """

    def __init__(self, disk_dir: str | os.PathLike[str] | None = None,
                 max_bytes: int | None = None):
        self._memory: dict[str, bytes] = {}
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)``.

        Every hit returns a fresh unpickle of the canonical bytes, so
        callers can never mutate the cached master.
        """
        blob = self._memory.get(key)
        if blob is not None:
            self.stats.memory_hits += 1
            if self.disk_dir is not None:
                self._touch(key)
            return True, pickle.loads(blob)
        if self.disk_dir is not None:
            path = self._disk_path(key)
            try:
                handle = open(path, "rb")
            except OSError:
                handle = None  # no entry (or unreadable dir): plain miss
            if handle is not None:
                # The entry exists; if it cannot be read and unpickled it
                # is junk — drop it so it cannot fail again on every run.
                try:
                    with handle:
                        blob = handle.read()
                    value = pickle.loads(blob)
                except _LOAD_ERRORS:
                    self.stats.disk_errors += 1
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                else:
                    self._memory[key] = blob
                    self.stats.disk_hits += 1
                    self._touch(key)
                    return True, value
        self.stats.misses += 1
        return False, None

    def _touch(self, key: str) -> None:
        """Count a hit, from memory or disk, as a use: refresh the LRU
        recency (mtime), or a capped cache evicts what it serves most."""
        try:  # a str path: a Path join costs as much as the syscall
            os.utime(f"{self.disk_dir}/{key}.pkl")
        except OSError:
            pass  # already gone: nothing to refresh

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in every enabled layer.

        The value is pickled once; the disk layer persists the identical
        bytes through :func:`~repro.atomic.atomic_write_bytes` without
        fsync: a crashed run never leaves a torn pickle under the key,
        and an entry lost to a power cut is only a later miss.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._memory[key] = blob
        self.stats.stores += 1
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            path = self._disk_path(key)
            atomic_write_bytes(path, blob, fsync=False)
            if self.max_bytes is not None:
                self._evict(keep=path)

    def _evict(self, keep: Path) -> None:
        """Unlink least-recently-used entries until the store fits.

        The entry just written (``keep``) is exempt, so a single value
        larger than ``max_bytes`` still caches (the cap bounds growth, it
        does not reject work).  Races with concurrent writers are benign:
        a vanished file is simply skipped.
        """
        assert self.disk_dir is not None
        entries = []
        total = 0
        for path in self.disk_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest mtime first
        for mtime_ns, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
            self._memory.pop(path.stem, None)
