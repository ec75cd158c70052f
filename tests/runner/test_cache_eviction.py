"""LRU size cap on the disk cache layer (``ResultCache(max_bytes=...)``)."""

import os

from repro.runner import ResultCache


def _disk_keys(tmp_path):
    return {path.stem for path in tmp_path.glob("*.pkl")}


def _age(tmp_path, key, seconds):
    """Push an entry's mtime into the past (mtime is the LRU clock)."""
    path = tmp_path / f"{key}.pkl"
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


class TestEvictionOrder:
    def test_oldest_entries_evicted_first(self, tmp_path):
        blob = "x" * 100  # ~120 pickled bytes per entry
        cache = ResultCache(tmp_path, max_bytes=400)
        for index in range(3):
            cache.put(f"k{index}", blob)
            _age(tmp_path, f"k{index}", seconds=100 - index)
        cache.put("k3", blob)  # pushes past the cap
        assert "k0" not in _disk_keys(tmp_path)
        assert "k3" in _disk_keys(tmp_path)

    def test_hit_refreshes_recency(self, tmp_path):
        blob = "x" * 100
        cache = ResultCache(tmp_path, max_bytes=400)
        for index in range(3):
            cache.put(f"k{index}", blob)
            _age(tmp_path, f"k{index}", seconds=100 - index)
        # Re-read k0 from disk through a fresh cache: its mtime refreshes,
        # so the next eviction takes k1 instead.
        reader = ResultCache(tmp_path, max_bytes=400)
        hit, _ = reader.get("k0")
        assert hit and reader.stats.disk_hits == 1
        reader.put("k3", blob)
        keys = _disk_keys(tmp_path)
        assert "k0" in keys
        assert "k1" not in keys

    def test_memory_hit_refreshes_recency(self, tmp_path):
        # A capped cache must not evict the entries it serves most: a hit
        # answered from memory is a use just like a disk hit.
        blob = "x" * 100
        cache = ResultCache(tmp_path, max_bytes=400)
        for index in range(3):
            cache.put(f"k{index}", blob)
            _age(tmp_path, f"k{index}", seconds=100 - index)
        hit, _ = cache.get("k0")
        assert hit and cache.stats.memory_hits == 1
        cache.put("k3", blob)
        keys = _disk_keys(tmp_path)
        assert "k0" in keys
        assert "k1" not in keys
        assert cache.get("k0")[0]

    def test_entry_just_written_is_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10)  # smaller than any entry
        cache.put("huge", "x" * 1000)
        assert "huge" in _disk_keys(tmp_path)


class TestEvictionStats:
    def test_evictions_are_counted(self, tmp_path):
        blob = "x" * 100
        cache = ResultCache(tmp_path, max_bytes=250)
        for index in range(4):
            cache.put(f"k{index}", blob)
            _age(tmp_path, f"k{index}", seconds=100 - index)
        assert cache.stats.evictions == 2
        assert len(_disk_keys(tmp_path)) == 2

    def test_no_cap_means_no_evictions(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(20):
            cache.put(f"k{index}", "x" * 100)
        assert cache.stats.evictions == 0
        assert len(_disk_keys(tmp_path)) == 20

    def test_evicted_entry_is_gone_from_memory_too(self, tmp_path):
        blob = "x" * 100
        cache = ResultCache(tmp_path, max_bytes=150)
        cache.put("old", blob)
        _age(tmp_path, "old", seconds=100)
        cache.put("new", blob)
        hit, _ = cache.get("old")
        assert not hit
        assert cache.stats.evictions == 1
