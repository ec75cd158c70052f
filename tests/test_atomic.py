"""``repro.atomic.atomic_write_bytes``: whole old file or whole new one."""

import os

import pytest

from repro.atomic import atomic_write_bytes


@pytest.mark.parametrize("fsync", [True, False])
def test_writes_and_replaces(tmp_path, fsync):
    target = tmp_path / "state.json"
    atomic_write_bytes(target, b"old", fsync=fsync)
    atomic_write_bytes(target, b"new", fsync=fsync)
    assert target.read_bytes() == b"new"
    assert [path.name for path in tmp_path.iterdir()] == ["state.json"]


def test_fsync_false_skips_every_fsync(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "fsync", calls.append)
    atomic_write_bytes(tmp_path / "entry.pkl", b"x", fsync=False)
    assert calls == []
    atomic_write_bytes(tmp_path / "entry.pkl", b"y")
    assert len(calls) == 2  # the temporary file, then the directory


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failure_keeps_the_old_file_and_removes_the_temp(tmp_path,
                                                         monkeypatch,
                                                         fail_at):
    target = tmp_path / "refs.json"
    atomic_write_bytes(target, b"old")

    def power_cut(*args):
        raise OSError("simulated power cut")

    monkeypatch.setattr(os, "fsync" if fail_at == "write" else "replace",
                        power_cut)
    with pytest.raises(OSError, match="simulated power cut"):
        atomic_write_bytes(target, b"new")
    monkeypatch.undo()
    assert target.read_bytes() == b"old"
    assert [path.name for path in tmp_path.iterdir()] == ["refs.json"]


def test_temporary_names_are_unique(tmp_path, monkeypatch):
    # Concurrent writers of one directory (shards sharing a cache) must
    # never share a temporary file.
    seen = []
    real_replace = os.replace

    def recording_replace(src, dst):
        seen.append(os.path.basename(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    for _ in range(3):
        atomic_write_bytes(tmp_path / "entry.pkl", b"x", fsync=False)
    assert len(set(seen)) == 3
    assert all(name.startswith("entry.pkl.") and name.endswith(".tmp")
               for name in seen)
