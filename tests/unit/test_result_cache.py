"""Unit tests for the salted sweep result store.

(`test_cache.py` covers the architectural data cache; this file covers
`repro.analysis.cache`, the store behind ``sweep_specs(cache=, resume=)``.)
"""

import numpy as np
import pytest

import repro.analysis.cache as cache_mod
from repro import __version__, runner
from repro.analysis.cache import (
    ResultCache,
    canonical_rows,
    code_salt,
    row_keys,
    stable_key,
)
from repro.analysis.journal import SweepJournal
from repro.analysis.sweep import sweep_specs
from repro.arch.config import small_test_config
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.util.errors import ConfigError

BASE = ExperimentSpec(
    workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8}),
    machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
    placement=PlacementSpec(name="first-touch"),
)
POINTS = [{"scheme": s} for s in ("never-migrate", "always-migrate", "history")]


@pytest.fixture
def evaluations(monkeypatch):
    """The spec dicts a sweep actually evaluates (serial path)."""
    calls = []
    real = runner.run_spec_dict

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", counted)
    return calls


class TestStableKey:
    def test_dict_order_insensitive(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})

    def test_numpy_scalars_canonicalize(self):
        assert stable_key({"x": np.int64(3)}) == stable_key({"x": 3})
        assert stable_key([1.5]) == stable_key((np.float64(1.5),))

    def test_dataclass_configs_hash_by_content(self):
        a = stable_key(small_test_config(num_cores=4))
        b = stable_key(small_test_config(num_cores=4))
        c = stable_key(small_test_config(num_cores=8))
        assert a == b
        assert a != c

    def test_unrepresentable_object_rejected(self):
        with pytest.raises(ConfigError):
            stable_key({"fn": object()})

    def test_canonical_rows_are_plain_scalars(self):
        rows = canonical_rows([{"a": np.float64(1.5), "b": np.int32(2)}])
        assert rows == [{"a": 1.5, "b": 2}]
        assert type(rows[0]["a"]) is float
        assert type(rows[0]["b"]) is int


class TestRoundTrip:
    def test_cold_miss_then_warm_hit(self, tmp_path, evaluations):
        path = tmp_path / "results.rpjl"
        with ResultCache(path) as cold:
            rows_cold = sweep_specs(BASE, POINTS, cache=cold)
        assert cold.hits == 0 and cold.misses == 3
        assert len(evaluations) == 3

        with ResultCache(path) as warm:
            rows_warm = sweep_specs(BASE, POINTS, cache=warm)
        assert warm.hits == 3 and warm.misses == 0
        assert len(evaluations) == 3  # every evaluation skipped
        assert rows_warm == rows_cold
        assert warm.stats()["hit_rate"] == 1.0

    def test_cached_rows_equal_uncached_after_canonicalization(self, tmp_path):
        plain = sweep_specs(BASE, POINTS)
        with ResultCache(tmp_path / "results.rpjl") as store:
            cached = sweep_specs(BASE, POINTS, cache=store)
        assert cached == canonical_rows(plain)

    def test_partial_warm_recomputes_only_missing(self, tmp_path, evaluations):
        path = tmp_path / "results.rpjl"
        with ResultCache(path) as store:
            sweep_specs(BASE, POINTS[:2], cache=store)
        with ResultCache(path) as c:
            rows = sweep_specs(BASE, POINTS, cache=c)
        assert c.hits == 2 and c.misses == 1
        assert len(evaluations) == 3  # 2 cold + only the new point
        assert [r["scheme"] for r in rows] == [p["scheme"] for p in POINTS]


class TestInvalidation:
    def test_cost_config_changes_key(self):
        def spec(cores):
            machine = MachineSpec(name="analytical", cores=cores, preset="small-test")
            return BASE.replace(machine=machine).to_dict()

        base, same, other = row_keys([spec(4), spec(4), spec(8)])
        assert base == same
        assert base != other

    def test_trace_seed_change_misses(self, tmp_path, evaluations):
        path = tmp_path / "results.rpjl"

        def seeded(seed):
            params = {"num_threads": 4, "rounds": 8, "seed": seed}
            return BASE.replace(workload=WorkloadSpec(name="pingpong", params=params))

        with ResultCache(path) as store:
            sweep_specs(seeded(1), POINTS[:1], cache=store)
        with ResultCache(path) as c2:
            sweep_specs(seeded(2), POINTS[:1], cache=c2)
        assert c2.misses == 1 and c2.hits == 0
        assert len(evaluations) == 2

    def test_salt_change_misses(self, tmp_path, monkeypatch):
        path = tmp_path / "results.rpjl"
        with ResultCache(path) as store:
            sweep_specs(BASE, POINTS, cache=store)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        with ResultCache(path) as bumped:
            sweep_specs(BASE, POINTS, cache=bumped)
        assert bumped.hits == 0 and bumped.misses == len(POINTS)

    def test_salt_bump_invalidates_resume(self, tmp_path, monkeypatch):
        """Rows recorded under an old salt are never replayed by a
        resumed sweep, even when the old rows are wrong."""
        path = tmp_path / "resume.rpjl"
        fresh = sweep_specs(BASE, POINTS, resume=path)
        with SweepJournal(path) as log:  # poison every recorded row
            for key, row in list(log.rows.items()):
                log.append(key, {**row, "total_cost": -1})
        poisoned = sweep_specs(BASE, POINTS, resume=path)
        assert [r["total_cost"] for r in poisoned] == [-1] * len(POINTS)

        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        assert sweep_specs(BASE, POINTS, resume=path) == fresh

    def test_default_salt_includes_version_and_schema(self):
        salt = code_salt()
        assert "schema" in salt and __version__ in salt

    def test_clear_wipes_entries(self, tmp_path):
        path = tmp_path / "results.rpjl"
        c = ResultCache(path)
        c.put("a" * 64, {"y": 1})
        c.put("b" * 64, {"y": 2})
        assert c.stats()["entries"] == 2
        assert c.clear() == 2
        assert c.stats()["entries"] == 0
        assert c.get("a" * 64) is None
        c.close()
        with ResultCache(path) as reopened:
            assert reopened.stats()["entries"] == 0


class TestLog:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "results.rpjl"
        with ResultCache(path) as c:
            c.put("a" * 64, {"y": 1})
            c.put("b" * 64, {"y": 2})
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # bit rot inside the last record's body
        path.write_bytes(bytes(data))
        with ResultCache(path) as c:
            assert c.get("b" * 64) is None
            assert c.get("a" * 64) == {"y": 1}
            assert c.misses == 1 and c.hits == 1

    def test_two_stores_on_one_path_lose_no_record(self, tmp_path):
        """Two runs sharing one store (one cache directory) append
        interleaved records; reopening finds every one of them."""
        path = tmp_path / "results.rpjl"
        a, b = ResultCache(path), ResultCache(path)
        for i in range(50):
            a.put(f"a{i}", {"v": i})
            b.put(f"b{i}", {"v": -i})
        a.close()
        b.close()
        with ResultCache(path) as both:
            assert both.stats()["entries"] == 100
            assert both.get("a49") == {"v": 49} and both.get("b49") == {"v": -49}
