"""Tests for the artifact stores (memory LRU, disk, tiered cache)."""

import pickle

from repro.cache.store import (
    ArtifactCache,
    DiskArtifactStore,
    MemoryArtifactStore,
    process_cache,
    salted_directory,
)


class TestMemoryStore:
    def test_roundtrip(self):
        store = MemoryArtifactStore()
        store.put("k", b"payload")
        assert store.get("k") == b"payload"
        assert store.get("missing") is None

    def test_lru_eviction(self):
        store = MemoryArtifactStore(limit=2)
        store.put("a", b"1")
        store.put("b", b"2")
        store.get("a")                   # refresh a
        store.put("c", b"3")             # evicts b, the LRU entry
        assert "a" in store and "c" in store
        assert "b" not in store

    def test_zero_limit_stores_nothing(self):
        store = MemoryArtifactStore(limit=0)
        store.put("a", b"1")
        assert len(store) == 0


class TestDiskStore:
    def test_roundtrip(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("abcd1234", b"payload")
        assert store.get("abcd1234") == b"payload"
        assert store.get("ffff0000") is None
        assert len(store) == 1

    def test_sharded_layout(self, tmp_path):
        DiskArtifactStore(tmp_path).put("abcd1234", b"x")
        assert (tmp_path / "ab" / "abcd1234.pkl").is_file()

    def test_append_only(self, tmp_path):
        """An existing key is never rewritten: same key, same content."""
        store = DiskArtifactStore(tmp_path)
        store.put("abcd1234", b"first")
        store.put("abcd1234", b"second")
        assert store.get("abcd1234") == b"first"

    def test_no_temp_files_left(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("abcd1234", b"x")
        assert not list(tmp_path.glob("**/*.tmp.*"))

    def test_empty_file_reads_as_miss_and_is_evicted(self, tmp_path):
        """A torn zero-byte file must not block the key forever: the
        miss evicts it, so the next put repairs the entry."""
        store = DiskArtifactStore(tmp_path)
        path = tmp_path / "ab" / "abcd1234.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert store.get("abcd1234") is None
        assert not path.exists()
        store.put("abcd1234", b"repaired")
        assert store.get("abcd1234") == b"repaired"


class TestArtifactCache:
    def test_memory_only_roundtrip(self):
        cache = ArtifactCache()
        assert cache.get("k") is None
        cache.put("k", {"circuit": [1, 2, 3]})
        assert cache.get("k") == {"circuit": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 1

    def test_returned_value_never_aliases_stored_value(self):
        cache = ArtifactCache()
        value = {"data": [1, 2]}
        cache.put("k", value)
        first = cache.get("k")
        first["data"].append(3)
        assert cache.get("k") == {"data": [1, 2]}

    def test_disk_persistence_across_instances(self, tmp_path):
        ArtifactCache(tmp_path).put("k", {"n": 7})
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("k") == {"n": 7}
        assert fresh.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("abcd", {"n": 7})
        (tmp_path / "ab" / "abcd.pkl").write_bytes(b"not a pickle")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("abcd") is None
        assert fresh.misses == 1

    def test_empty_snapshot_is_a_hit(self):
        """A pass that writes no artifacts still caches (e.g. a
        validation pass): {} must be distinguishable from a miss."""
        cache = ArtifactCache()
        cache.put("k", {})
        assert cache.get("k") == {}
        assert cache.hits == 1

    def test_per_pass_counters(self):
        cache = ArtifactCache()
        cache.record_event("mapping", hit=True)
        cache.record_event("mapping", hit=False)
        cache.record_event("routing", hit=True)
        assert cache.stats()["per_pass"] == {
            "mapping": {"hits": 1, "misses": 1},
            "routing": {"hits": 1, "misses": 0},
        }

    def test_values_are_pickled_snapshots(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("abcd", {"n": 1})
        payload = (tmp_path / "ab" / "abcd.pkl").read_bytes()
        assert pickle.loads(payload) == {"n": 1}


class TestProcessCache:
    def test_none_directory(self):
        assert process_cache(None) is None

    def test_same_directory_same_instance(self, tmp_path):
        a = process_cache(tmp_path / "c")
        b = process_cache(str(tmp_path / "c"))
        assert a is b

    def test_different_directories_different_instances(self, tmp_path):
        assert process_cache(tmp_path / "a") is not \
            process_cache(tmp_path / "b")


class TestSaltedDirectory:
    def test_nested_under_source_digest(self, tmp_path):
        from repro.analysis.store import source_digest

        assert salted_directory(tmp_path) == tmp_path / source_digest()

    def test_idempotent(self, tmp_path):
        """Several enforcing layers (BatchCompiler, run_engine, CLI)
        compose without nesting digest under digest."""
        once = salted_directory(tmp_path)
        assert salted_directory(once) == once
        assert salted_directory(str(once)) == once


class TestCounterSnapshots:
    """stats()/reset_stats(): the one counter read path shared by
    'sweep --pass-timings' and the compile server's /metrics
    endpoint."""

    def test_reset_stats_zeroes_counters(self):
        cache = ArtifactCache()
        cache.put("k", {})
        cache.get("k")
        cache.get("missing")
        cache.record_event("mapping", hit=True)
        cache.reset_stats()
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["per_pass"] == {}
        # entries survive a counter reset: only accounting is cleared
        assert cache.get("k") == {}


class TestLockingArtifactCache:
    def test_behaves_like_plain_cache(self, tmp_path):
        from repro.cache.store import LockingArtifactCache

        cache = LockingArtifactCache(tmp_path)
        cache.put("abcd", {"n": 1})
        assert cache.get("abcd") == {"n": 1}
        assert cache.stats()["hits"] == 1
        cache.reset_stats()
        assert cache.stats()["hits"] == 0

    def test_concurrent_access_keeps_counters_consistent(self):
        import threading

        from repro.cache.store import LockingArtifactCache

        cache = LockingArtifactCache()
        cache.put("k", {})
        rounds = 200

        def worker():
            for _ in range(rounds):
                cache.get("k")
                cache.get("missing")
                cache.record_event("mapping", hit=True)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats["hits"] == 4 * rounds
        assert stats["misses"] == 4 * rounds
        assert stats["per_pass"]["mapping"]["hits"] == 4 * rounds
