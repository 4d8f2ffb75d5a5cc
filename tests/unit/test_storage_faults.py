"""Storage-fault tolerance: cache/store writes degrade, never abort.

Both on-disk stores (:class:`~repro.trace.store.TraceStore`,
:class:`~repro.analysis.cache.ResultCache`) hold data that is already
in memory. A write or fsync that fails after construction (disk full,
I/O error) must warn and continue as a miss, not kill the sweep that
just spent minutes computing the rows. Construction-time failures
stay loud (:class:`~repro.util.errors.ConfigError`): an unusable store
the user explicitly asked for is a configuration bug.
"""

import os
import shutil

import pytest

from repro.analysis.cache import ResultCache, canonical_rows
from repro.analysis.sweep import sweep_specs
from repro.spec import ExperimentSpec, MachineSpec, WorkloadSpec
from repro.trace.events import MultiTrace, make_trace
from repro.trace.store import TraceStore
from repro.util.errors import ConfigError


def _raise(message: str):
    def fail(*args, **kwargs):
        raise OSError(message)

    return fail


def _mt():
    return MultiTrace(
        threads=[make_trace([1, 2, 3], writes=[0, 1, 0])],
        name="tiny",
        params={},
    )


class TestTraceStoreWriteFaults:
    def test_vanished_root_is_warned_noop(self, tmp_path):
        root = tmp_path / "traces"
        store = TraceStore(root)
        shutil.rmtree(root)  # operator deletes the directory mid-run
        with pytest.warns(RuntimeWarning, match="continuing without caching"):
            assert store.put("k", _mt()) is None
        assert store.get("k") is None  # degrades to a miss
        assert store.misses == 1

    def test_replace_failure_cleans_tmp_and_warns(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        monkeypatch.setattr(
            os, "replace", lambda *a, **k: (_ for _ in ()).throw(OSError("disk full"))
        )
        with pytest.warns(RuntimeWarning, match="disk full"):
            assert store.put("k", _mt()) is None
        assert list(tmp_path.glob("*.tmp*")) == []  # no leftover temp files

    def test_construction_failure_still_loud(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        with pytest.raises(ConfigError, match="trace store"):
            TraceStore(blocker / "sub")


class TestResultCacheWriteFaults:
    def test_failing_append_is_warned_noop(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "results.rpjl")
        monkeypatch.setattr(cache._log._fh, "write", _raise("disk full"))
        with pytest.warns(RuntimeWarning, match="disk full"):
            cache.put("deadbeef" * 8, {"x": 1})
        assert cache.get("deadbeef" * 8) is None  # degrades to a miss
        assert cache.misses == 1
        cache.close()

    def test_failing_fsync_is_warned(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "results.rpjl")
        cache.put("a" * 64, {"x": 1})
        monkeypatch.setattr(os, "fsync", _raise("I/O error"))
        with pytest.warns(RuntimeWarning, match="I/O error"):
            cache.flush()
        with pytest.warns(RuntimeWarning, match="I/O error"):
            cache.close()
        monkeypatch.undo()
        with ResultCache(tmp_path / "results.rpjl") as reopened:
            assert reopened.get("a" * 64) == {"x": 1}  # the write itself landed

    def test_later_writes_recover(self, tmp_path, monkeypatch):
        """One failed write must not poison the store object."""
        path = tmp_path / "results.rpjl"
        cache = ResultCache(path)
        monkeypatch.setattr(cache._log._fh, "write", _raise("flaky"))
        with pytest.warns(RuntimeWarning):
            cache.put("a" * 64, {"x": 1})
        monkeypatch.undo()
        cache.put("b" * 64, {"x": 2})
        assert cache.get("b" * 64) == {"x": 2}
        cache.close()
        with ResultCache(path) as reopened:
            assert reopened.get("b" * 64) == {"x": 2}

    def test_sweep_finishes_when_every_write_fails(self, tmp_path, monkeypatch):
        base = ExperimentSpec(
            workload=WorkloadSpec(
                name="pingpong", params={"num_threads": 4, "rounds": 8}
            ),
            machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        )
        points = [{"scheme": "history"}, {"scheme": "never-migrate"}]
        cache = ResultCache(tmp_path / "results.rpjl")
        monkeypatch.setattr(cache._log._fh, "write", _raise("disk full"))
        monkeypatch.setattr(os, "fsync", _raise("disk full"))
        with pytest.warns(RuntimeWarning, match="disk full"):
            rows = sweep_specs(base, points, cache=cache)
        assert rows == canonical_rows(sweep_specs(base, points))
        monkeypatch.undo()
        cache.close()

    def test_construction_failure_still_loud(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        with pytest.raises(ConfigError, match="result store"):
            ResultCache(blocker / "results.rpjl")
        with pytest.raises(ConfigError, match="result store"):
            ResultCache(tmp_path)  # a directory is not a log
