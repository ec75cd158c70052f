"""GenerationStore: content addressing, fast-forward history, tamper
detection, and the ``rollback(commit(g)) == g`` round-trip."""

import json

import pytest

from repro.errors import GenerationError
from repro.generations import (Generation, GenerationStore,
                               diff_generations)


@pytest.fixture
def store(tmp_path):
    return GenerationStore.init(tmp_path / "store")


def _gen(label="gen-1", parent=None, **overrides):
    defaults = dict(workload="tv", features=("preparser", "rcu_booster"))
    defaults.update(overrides)
    return Generation(label=label, parent=parent, **defaults)


class TestGeneration:
    def test_fingerprint_is_content_address(self):
        a, b = _gen(), _gen()
        assert a.fingerprint() == b.fingerprint()
        assert _gen(notes="hotfix").fingerprint() != a.fingerprint()

    def test_features_normalized_sorted_deduped(self):
        generation = Generation(label="g", features=(
            "rcu_booster", "preparser", "rcu_booster"))
        assert generation.features == ("preparser", "rcu_booster")

    def test_document_round_trip(self):
        generation = _gen(fault=("flaky-services", 7), cores=2,
                          notes="planted")
        assert Generation.from_dict(generation.to_dict()) == generation

    def test_unknown_workload_rejected_at_construction(self):
        with pytest.raises(GenerationError, match="unknown workload"):
            _gen(workload="toaster")

    def test_unknown_feature_rejected_at_construction(self):
        with pytest.raises(GenerationError, match="unknown BB feature"):
            _gen(features=("warp_drive",))

    def test_unknown_fault_preset_rejected_at_construction(self):
        with pytest.raises(GenerationError, match="unknown fault preset"):
            _gen(fault=("no-such-preset", 0))

    def test_bb_config_matches_features(self):
        generation = _gen(features=("preparser",))
        assert generation.boot_job().bb.enabled_features() == ["preparser"]

    def test_boot_spec_is_fleet_compatible(self):
        from repro.fleet.protocol import job_from_spec

        job, repeat = job_from_spec(_gen().boot_spec())
        assert repeat == 1
        assert job.kind == "boot"


class TestStoreHistory:
    def test_init_refuses_to_clobber(self, store):
        with pytest.raises(GenerationError, match="already initialized"):
            GenerationStore.init(store.root)

    def test_operations_require_initialized_store(self, tmp_path):
        bare = GenerationStore(tmp_path / "nowhere")
        with pytest.raises(GenerationError, match="no generation store"):
            bare.commit(_gen())

    def test_commit_rollback_round_trip(self, store):
        generation = _gen()
        fingerprint = store.commit(generation)
        assert store.head() == fingerprint
        assert store.rollback() == generation
        assert store.head() is None
        # The popped object survives in the store, git-style.
        assert store.get(fingerprint) == generation

    def test_commit_requires_fast_forward(self, store):
        store.commit(_gen("gen-1"))
        with pytest.raises(GenerationError, match="non-fast-forward"):
            store.commit(_gen("gen-2", parent=None))

    def test_empty_commit_rejected(self, store):
        """Re-committing the head's exact profile changes nothing and is
        refused; a re-release with so much as a new label is fine."""
        generation = _gen("gen-1")
        head = store.commit(generation)
        with pytest.raises(GenerationError, match="empty commit"):
            store.commit(generation.with_parent(head))
        assert store.head() == head
        store.commit(_gen("gen-1-rebuild", parent=head, notes="rebuilt"))

    def test_log_walks_newest_first(self, store):
        first = _gen("gen-1")
        head = store.commit(first)
        second = _gen("gen-2", parent=head, features=("preparser",))
        store.commit(second)
        assert [g.label for g in store.log()] == ["gen-2", "gen-1"]

    def test_refs_are_independent(self, store):
        main_head = store.commit(_gen("gen-1"))
        beta_head = store.commit(_gen("beta-1", notes="beta"), ref="beta")
        assert store.refs() == {"beta": beta_head, "main": main_head}
        store.rollback(ref="beta")
        assert store.refs() == {"main": main_head}

    def test_resolve_prefix_and_ref(self, store):
        head = store.commit(_gen())
        assert store.resolve("main") == head
        assert store.resolve(head[:10]) == head
        with pytest.raises(GenerationError, match="cannot resolve"):
            store.resolve("feedface")

    def test_rollback_of_unborn_ref_fails(self, store):
        with pytest.raises(GenerationError, match="no generations"):
            store.rollback()


class TestTamperDetection:
    def test_edited_object_detected_on_read(self, store):
        fingerprint = store.commit(_gen())
        path = store.objects_dir / f"{fingerprint}.json"
        document = json.loads(path.read_bytes())
        document["notes"] = "silently different"
        path.write_text(json.dumps(document, sort_keys=True,
                                   separators=(",", ":")))
        with pytest.raises(GenerationError, match="tampered"):
            store.get(fingerprint)

    def test_corrupt_object_detected_on_read(self, store):
        fingerprint = store.commit(_gen())
        (store.objects_dir / f"{fingerprint}.json").write_text("{oops")
        with pytest.raises(GenerationError, match="corrupt"):
            store.get(fingerprint)

    def test_invalid_document_shape_rejected(self, store):
        fingerprint = store.commit(_gen())
        (store.objects_dir / f"{fingerprint}.json").write_text(
            '{"label": "x"}')
        with pytest.raises(GenerationError):
            store.get(fingerprint)


class TestDiff:
    def test_diff_names_exactly_the_changed_fields(self):
        old = _gen("gen-1")
        new = _gen("gen-2", parent=old.fingerprint(),
                   features=("preparser",))
        delta = diff_generations(old, new)
        assert set(delta) == {"label", "features", "parent"}
        assert delta["features"]["old"] == ["preparser", "rcu_booster"]
        assert delta["features"]["new"] == ["preparser"]

    def test_identical_generations_diff_empty(self):
        assert diff_generations(_gen(), _gen()) == {}


class TestCrashSafeRefs:
    def test_interrupted_refs_write_leaves_the_old_table_intact(
            self, store, monkeypatch):
        # A crash inside _save_refs (power cut between the temp write
        # and the rename) must leave refs.json exactly as it was —
        # the atomic-rename contract the journal also relies on.
        first = store.commit(_gen("gen-1"))
        before = store.refs_path.read_text(encoding="ascii")

        import os as os_module

        def exploding_replace(src, dst):
            raise OSError("simulated power cut before rename")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated power cut"):
            store.commit(_gen("gen-2", parent=first))
        monkeypatch.undo()

        assert store.refs_path.read_text(encoding="ascii") == before
        assert store.resolve("main") == first
        # The store is not wedged: the retry lands normally.
        second = store.commit(_gen("gen-2", parent=first))
        assert store.resolve("main") == second

    def test_no_temp_file_is_left_behind(self, store):
        store.commit(_gen("gen-1"))
        leftovers = [p.name for p in store.root.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_interrupted_refs_write_leaves_no_temp_file(self, store,
                                                        monkeypatch):
        first = store.commit(_gen("gen-1"))
        before = store.refs_path.read_text(encoding="ascii")

        import os as os_module

        real_replace = os_module.replace

        def refs_power_cut(src, dst):
            if str(dst).endswith("refs.json"):
                raise OSError("simulated power cut before rename")
            real_replace(src, dst)

        monkeypatch.setattr(os_module, "replace", refs_power_cut)
        with pytest.raises(OSError, match="simulated power cut"):
            store.commit(_gen("gen-2", parent=first))
        monkeypatch.undo()

        assert store.refs_path.read_text(encoding="ascii") == before
        leftovers = [p.name for p in store.root.rglob("*")
                     if p.name.endswith(".tmp")]
        assert leftovers == []


class TestCrashSafeObjects:
    def test_interrupted_object_write_leaves_no_partial_object(
            self, store, monkeypatch):
        # A power cut halfway through writing the object: the commit
        # fails, no torn object survives to be trusted by the retry, and
        # the retried commit's head loads.
        import io

        real_open = io.open

        class _TornWriter:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[:len(data) // 2])
                self._handle.flush()
                raise OSError("simulated power cut mid-write")

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def tearing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornWriter(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", tearing_open)
        with pytest.raises(OSError, match="mid-write"):
            store.commit(_gen("gen-1"))
        monkeypatch.undo()

        assert list(store.objects_dir.iterdir()) == []
        assert store.head() is None
        head = store.commit(_gen("gen-1"))
        assert store.get(head) == _gen("gen-1")
