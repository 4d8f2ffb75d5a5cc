"""Unit tests for parallel sweeps on local worker processes.

The load-bearing property is the equivalence guarantee: a spec sweep
run with ``workers=4`` must produce the *identical* row list — values,
types, and key order — as ``workers=1``, and a failing point must
surface in the parent naming the sweep point that caused it. Parallel
sweeps run on the farm coordinator's local links
(:class:`repro.analysis.farm.FarmCoordinator` with ``local=N``), the
same dispatcher that feeds socket workers.

Local processes are forked, so a function patched over
``repro.runner.run_spec_dict`` before a sweep runs in them too; that
is how these tests make a point fail, hang, or kill its process.
"""

import importlib
import multiprocessing
import os
import pickle
import tempfile
import time

import pytest

from repro import runner
from repro.analysis import farm as farm_mod
from repro.analysis.farm import FarmCoordinator, farm_sweep
from repro.analysis.sweep import (
    LOCAL_MIN_POINTS,
    SweepPointError,
    default_workers,
    effective_workers,
    eval_specs,
    grid,
    merge_row,
    sweep,
    sweep_specs,
)
from repro.runner import merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.util.errors import ConfigError

# the package re-exports a function named ``sweep`` over the module
sweep_mod = importlib.import_module("repro.analysis.sweep")

_WORKLOADS = {
    "pingpong": {"name": "pingpong", "params": {"num_threads": 4, "rounds": 16, "run": 4}},
    "uniform": {"name": "uniform", "params": {"num_threads": 4, "accesses_per_thread": 64}},
}

#: builds on the parent, fails to evaluate (no such scheme parameter)
_BAD_SCHEME = {"name": "distance-1", "params": {"distance": -7}}


def _base() -> ExperimentSpec:
    return ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8}),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


def _seed_points(n):
    return [
        {"workload": {"name": "uniform",
                      "params": {"num_threads": 4, "accesses_per_thread": 32, "seed": s}}}
        for s in range(n)
    ]


def _spec_dicts(points):
    base = _base()
    return [merge_spec(base, p).to_dict() for p in points]


def _serial_rows(spec_dicts):
    rows, exc = eval_specs(spec_dicts)
    assert exc is None
    return rows


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    """Force local processes: 1-CPU hosts clamp workers to 1 and these
    tests would silently exercise the serial loop instead."""
    monkeypatch.setattr(sweep_mod, "default_workers", lambda: 2)


def _patch_eval(monkeypatch, fn):
    """Run ``fn(spec, real)`` in place of every point's evaluation."""
    real = runner.run_spec_dict
    monkeypatch.setattr(runner, "run_spec_dict", lambda spec: fn(spec, real))


class TestParallelMatchesSerial:
    def test_rows_identical_schemes_x_workloads(self):
        """2 schemes x 2 workloads: workers=4 rows == workers=1 rows,
        including value types and key order."""
        points = [
            {"workload": w, "scheme": s}
            for w in _WORKLOADS.values()
            for s in ("always-migrate", "history")
        ]
        serial = sweep_specs(_base(), points, workers=1)
        par = sweep_specs(_base(), points, workers=4)
        assert par == serial
        for a, b in zip(serial, par):
            assert list(a) == list(b)  # key order too
            assert {k: type(v) for k, v in a.items()} == {
                k: type(v) for k, v in b.items()
            }
        assert repr(par) == repr(serial)

    def test_ordering_with_explicit_chunks(self, monkeypatch):
        monkeypatch.setattr(farm_mod, "MAX_CHUNK", 2)
        spec_dicts = _spec_dicts(_seed_points(13))
        coord = FarmCoordinator(spec_dicts, local=3)
        assert coord.run() == _serial_rows(spec_dicts)
        assert coord.stats["chunks"] == 7

    def test_single_point_and_empty(self):
        point = [{"scheme": "history"}]
        assert sweep_specs(_base(), point, workers=4) == sweep_specs(_base(), point)
        assert sweep_specs(_base(), [], workers=4) == []


class TestFailureAttribution:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_exception_carries_failing_point(self, workers):
        points = [{"scheme": s} for s in ("never-migrate", "history")]
        points += [{"scheme": _BAD_SCHEME}, {"scheme": "costaware"}]
        with pytest.raises(SweepPointError) as ei:
            sweep_specs(_base(), points, workers=workers)
        assert ei.value.point == _spec_dicts(points)[2]
        assert "scheme 'distance-1' has no parameter 'distance'" in str(ei.value)

    def test_unpicklable_exception_still_attributed(self, monkeypatch):
        """An exception that cannot cross a process boundary is still
        reported, by message, against its point."""

        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("holds a live handle")
                self.handle = lambda: None

        victim = _spec_dicts(_seed_points(4))[1]

        def boom(spec, real):
            if spec == victim:
                raise Unpicklable()
            return real(spec)

        _patch_eval(monkeypatch, boom)
        with pytest.raises(SweepPointError, match="holds a live handle") as ei:
            sweep_specs(_base(), _seed_points(4), workers=2)
        assert ei.value.point == victim

    def test_sweep_point_error_survives_pickling(self):
        err = SweepPointError("boom", point={"x": 3})
        clone = pickle.loads(pickle.dumps(err))
        assert clone.point == {"x": 3}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metric_key_collision_is_config_error(self, workers):
        """The analytical evaluator reports a ``scheme`` metric. A spec
        sweep keeps its ``scheme`` axis label over it, on local
        processes as in-process; a callback sweep handed those rows as
        metrics raises ConfigError naming the key."""
        points = [{"scheme": s} for s in ("never-migrate", "always-migrate",
                                          "history", "costaware")]
        rows = sweep_specs(_base(), points, workers=workers)
        assert [r["scheme"] for r in rows] == [p["scheme"] for p in points]
        it = iter(rows)
        with pytest.raises(ConfigError, match="'scheme'"):
            sweep(points, lambda scheme: next(it))


class TestDegradation:
    def test_unpicklable_callback_falls_back_to_serial(self):
        """``sweep`` runs its callback in-process, in point order, so a
        closure (which would not pickle) is fine."""
        calls = []

        def fn(x):
            calls.append(x)
            return {"y": x * 2}

        rows = sweep(grid(x=[1, 2, 3]), fn)
        assert rows == [{"x": 1, "y": 2}, {"x": 2, "y": 4}, {"x": 3, "y": 6}]
        assert calls == [1, 2, 3]

    def test_workers_none_uses_cpu_count(self, monkeypatch):
        monkeypatch.undo()
        assert default_workers() >= 1
        points = _seed_points(4)
        assert sweep_specs(_base(), points, workers=None) == sweep_specs(_base(), points)

    def test_bad_workers_and_chunk_rejected(self):
        """Chunk size has one rule, so there is no chunk option: a
        farm config that names one is refused with the known keys."""
        with pytest.raises(ConfigError, match="workers"):
            sweep_specs(_base(), _seed_points(1), workers=0)
        with pytest.raises(TypeError, match="chunk"):
            FarmCoordinator(_spec_dicts(_seed_points(2)), local=2, chunk=2)
        with pytest.raises(ConfigError) as err:
            farm_sweep(
                _spec_dicts(_seed_points(2)), {"addrs": ["127.0.0.1:1"], "chunk": 2}
            )
        assert str(err.value) == (
            "unknown farm option(s) 'chunk'; "
            "known: addrs, auth_token, heartbeat, liveness, reconnect"
        )


class TestScheduling:
    def test_effective_workers_clamps_to_cpu_count(self):
        assert effective_workers(8) == 2
        assert effective_workers(1) == 1
        assert effective_workers(None) == 2

    def test_effective_workers_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            effective_workers(0)

    def test_small_sweeps_skip_the_pool(self, monkeypatch):
        """Below LOCAL_MIN_POINTS no process is started — startup costs
        more than the points."""
        started = []
        real = FarmCoordinator._start_local
        monkeypatch.setattr(
            FarmCoordinator,
            "_start_local",
            lambda self: started.append(self.local) or real(self),
        )
        points = _seed_points(LOCAL_MIN_POINTS - 1)
        assert sweep_specs(_base(), points, workers=2) == sweep_specs(_base(), points)
        assert started == []
        sweep_specs(_base(), _seed_points(LOCAL_MIN_POINTS), workers=2)
        assert started == [2]

    def test_no_process_outlives_a_sweep(self):
        sweep_specs(_base(), _seed_points(6), workers=2)
        assert multiprocessing.active_children() == []


class TestHardening:
    @pytest.fixture(autouse=True)
    def _no_trace_store_left(self, monkeypatch, tmp_path_factory):
        """A local process runs a worker session without a trace store,
        so hung, killed and dying processes leave no
        ``repro-worker-traces-*`` directory in TMPDIR."""
        tmp = tmp_path_factory.mktemp("tmpdir")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        yield
        assert list(tmp.glob("repro-worker-traces-*")) == []

    def test_point_timeout_kills_hung_worker(self, monkeypatch):
        """A point that never returns must surface as SweepPointError
        naming that point within ~point_timeout, not hang the sweep,
        and its process must not survive the sweep."""
        victim = _spec_dicts(_seed_points(6))[2]

        def hang(spec, real):
            if spec == victim:
                time.sleep(60)
            return real(spec)

        _patch_eval(monkeypatch, hang)
        t0 = time.perf_counter()
        with pytest.raises(SweepPointError, match="point_timeout") as ei:
            sweep_specs(_base(), _seed_points(6), workers=2, point_timeout=1.0)
        assert ei.value.point == victim
        assert time.perf_counter() - t0 < 10  # far below the 60s sleep
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert len(sweep_specs(_base(), _seed_points(6), workers=2)) == 6

    def test_point_timeout_defaults_chunk_to_one(self):
        """With a timeout, every chunk is a single point so the error
        attributes exactly (no innocent chunk-mates blamed); without
        one these 12 points on 2 links go two to a chunk."""
        spec_dicts = _spec_dicts(_seed_points(12))
        coord = FarmCoordinator(spec_dicts, local=2, point_timeout=30.0)
        assert coord.run() == _serial_rows(spec_dicts)
        assert coord.stats["chunks"] == 12

    def test_point_timeout_validation(self):
        with pytest.raises(ConfigError, match="point_timeout"):
            sweep_specs(_base(), _seed_points(4), workers=2, point_timeout=0)

    def test_killed_process_has_its_chunk_requeued(self, monkeypatch, tmp_path):
        """A local process that dies mid-chunk: its points go back to
        the queue, a surviving process evaluates them, and the rows are
        the serial rows."""
        spec_dicts = _spec_dicts(_seed_points(8))
        serial = _serial_rows(spec_dicts)
        marker = tmp_path / "killed"

        def die_once(spec, real):
            if spec == spec_dicts[3] and not marker.exists():
                marker.touch()
                os._exit(1)
            return real(spec)

        _patch_eval(monkeypatch, die_once)
        coord = FarmCoordinator(spec_dicts, local=2)
        with pytest.warns(RuntimeWarning, match="died"):
            rows = coord.run()
        assert marker.exists()
        assert rows == serial
        assert coord.stats["requeues"] == 1
        assert coord.stats["local_leftovers"] == 0

    def test_persistently_broken_pool_finishes_serially(self, monkeypatch):
        """Processes that die on every point leave the sweep to the
        serial leftovers: it completes in-process, never raises or
        hangs."""
        parent = os.getpid()

        def die_in_child(spec, real):
            if os.getpid() != parent:
                os._exit(1)
            return real(spec)

        points = _seed_points(8)
        serial = sweep_specs(_base(), points)
        _patch_eval(monkeypatch, die_in_child)
        with pytest.warns(RuntimeWarning) as rec:
            rows = sweep_specs(_base(), points, workers=2)
        assert rows == serial
        assert any("remaining point" in str(w.message) for w in rec)


class TestMergeRow:
    def test_merges_and_preserves_point_order(self):
        row = merge_row({"a": 1, "b": 2}, {"c": 3})
        assert row == {"a": 1, "b": 2, "c": 3}
        assert list(row) == ["a", "b", "c"]

    def test_collision_names_key(self):
        with pytest.raises(ConfigError, match="'b'"):
            merge_row({"a": 1, "b": 2}, {"b": 9})
