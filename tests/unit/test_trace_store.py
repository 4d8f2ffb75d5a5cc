"""Unit tests for the content-addressed on-disk trace store."""

import json

import numpy as np
import pytest

from repro.runner import build_workload, clear_build_memo
from repro.spec import WorkloadSpec
from repro.trace.events import MultiTrace, STACK_TRACE_DTYPE, TRACE_DTYPE, make_trace
from repro.trace.store import TRACE_STORE_SCHEMA, TraceStore, set_trace_store
from repro.util.errors import ConfigError


@pytest.fixture(autouse=True)
def _no_ambient_store():
    """Keep the process-wide store out of every test, restore after."""
    set_trace_store(None)
    clear_build_memo()
    yield
    set_trace_store(None)
    clear_build_memo()


def _flat_mt():
    return MultiTrace(
        threads=[
            make_trace([1, 2, 3], writes=[0, 1, 0], icounts=[4, 4, 4]),
            make_trace([9, 8], writes=[1, 1]),
        ],
        thread_native_core=[2, 0],
        name="flat",
        params={"alpha": 3},
    )


def _stack_mt():
    return MultiTrace(
        threads=[make_trace([1, 2], spops=[1, 2], spushes=[0, 1])],
        name="stack",
        params={},
    )


class TestRoundTrip:
    @pytest.mark.parametrize("mt_fn,dtype", [(_flat_mt, TRACE_DTYPE), (_stack_mt, STACK_TRACE_DTYPE)])
    def test_put_get_bit_identical(self, tmp_path, mt_fn, dtype):
        store = TraceStore(tmp_path)
        mt = mt_fn()
        store.put("k1", mt)
        loaded = store.get("k1")
        assert loaded is not None
        assert loaded.threads[0].dtype == dtype
        assert loaded.digest() == mt.digest()
        assert store.stats()["hits"] == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get("nope") is None
        assert store.stats() == {
            "hits": 0, "misses": 1, "hit_rate": 0.0, "entries": 0, "bytes": 0,
        }

    def test_keys_are_salted_by_schema(self, tmp_path):
        # the entry path must change if TRACE_STORE_SCHEMA is bumped, so
        # the key cannot be the raw cache_key
        store = TraceStore(tmp_path)
        assert "k1" not in str(store.path_for("k1"))
        assert store.path_for("k1") != store.path_for("k2")
        assert TRACE_STORE_SCHEMA == 2


class TestCorruption:
    def test_corrupt_entry_is_dropped_and_counted_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put("k1", _flat_mt())
        path.write_bytes(b"this is not an npz file")
        assert store.get("k1") is None
        assert not path.exists()  # evicted, next put regenerates it
        assert store.stats()["misses"] == 1

    def test_truncated_entry_is_dropped(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put("k1", _flat_mt())
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get("k1") is None
        assert not path.exists()


class TestEviction:
    def test_gc_evicts_lru_first(self, tmp_path):
        store = TraceStore(tmp_path)
        import os, time

        for i, key in enumerate(["a", "b", "c"]):
            p = store.put(key, _flat_mt())
            os.utime(p, (time.time() + i, time.time() + i))  # deterministic order
        # touch "a" so "b" becomes least recently used
        os.utime(store.path_for("a"), (time.time() + 10, time.time() + 10))
        per_entry = store.total_bytes() // 3
        evicted = store.gc(2 * per_entry + 1)
        assert evicted == [store.path_for("b").stem]
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert store.get("b") is None

    def test_gc_zero_clears_everything(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("a", _flat_mt())
        store.put("b", _stack_mt())
        assert len(store.gc(0)) == 2
        assert store.entries() == []
        assert list(tmp_path.glob("*.npz")) == []
        assert list(tmp_path.glob("*.json")) == []

    def test_gc_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ConfigError):
            TraceStore(tmp_path).gc(-1)


class TestListing:
    def test_entries_carry_sidecar_metadata(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("k1", _flat_mt())
        (entry,) = store.entries()
        assert entry["name"] == "flat"
        assert entry["threads"] == 2
        assert entry["accesses"] == 5
        assert entry["bytes"] > 0

    def test_entries_survive_missing_sidecar(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put("k1", _flat_mt())
        path.with_suffix(".json").unlink()
        (entry,) = store.entries()
        assert entry["key"] == path.stem
        assert "name" not in entry


class TestRunnerIntegration:
    SPEC = WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8})

    def test_build_workload_populates_and_reuses_store(self, tmp_path):
        store = TraceStore(tmp_path)
        set_trace_store(store)
        first = build_workload(self.SPEC)
        assert store.path_for(self.SPEC.cache_key()).exists()
        clear_build_memo()  # force the store path, not the memo
        second = build_workload(self.SPEC)
        assert second is not first  # loaded from disk, not memoized
        assert second.digest() == first.digest()
        assert store.hits == 1

    def test_corrupt_store_entry_regenerates(self, tmp_path):
        store = TraceStore(tmp_path)
        set_trace_store(store)
        first = build_workload(self.SPEC)
        path = store.path_for(self.SPEC.cache_key())
        path.write_bytes(b"garbage")
        clear_build_memo()
        second = build_workload(self.SPEC)
        assert second.digest() == first.digest()
        assert path.exists()  # regenerated and re-stored

    def test_trace_path_workloads_bypass_store(self, tmp_path):
        from repro.trace.io import save_multitrace

        npz = tmp_path / "wl.npz"
        save_multitrace(_flat_mt(), npz)
        store = TraceStore(tmp_path / "store")
        set_trace_store(store)
        build_workload(WorkloadSpec(name="trace-file", trace_path=str(npz)))
        assert store.entries() == []

    def test_env_var_activates_store(self, tmp_path, monkeypatch):
        import repro.trace.store as mod

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setattr(mod, "_store", None)
        monkeypatch.setattr(mod, "_store_resolved", False)
        active = mod.active_trace_store()
        assert active is not None
        assert active.root == tmp_path


class TestCacheKey:
    def test_cache_key_stable_across_instances(self):
        a = WorkloadSpec(name="ocean", params={"num_threads": 8, "grid_n": 66})
        b = WorkloadSpec(name="ocean", params={"grid_n": 66, "num_threads": 8})
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_params(self):
        a = WorkloadSpec(name="ocean", params={"num_threads": 8})
        b = WorkloadSpec(name="ocean", params={"num_threads": 16})
        assert a.cache_key() != b.cache_key()
