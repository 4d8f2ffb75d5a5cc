"""Unit tests for sweep utilities."""

import importlib
import math

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.sweep import (
    LOCAL_MIN_POINTS,
    geomean,
    grid,
    normalize,
    sweep,
    sweep_specs,
)
from repro.runner import build_workload
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.io import save_multitrace
from repro.util.errors import ConfigError

# the package re-exports a function named ``sweep`` over the module
sweep_mod = importlib.import_module("repro.analysis.sweep")


class TestGrid:
    def test_cartesian_product(self):
        pts = grid(a=[1, 2], b=["x", "y"])
        assert len(pts) == 4
        assert {(p["a"], p["b"]) for p in pts} == {(1, "x"), (1, "y"), (2, "x"), (2, "y")}

    def test_empty_grid_is_single_point(self):
        assert grid() == [{}]

    def test_empty_value_list_rejected(self):
        with pytest.raises(ConfigError):
            grid(a=[])

    def test_order_is_row_major(self):
        pts = grid(a=[1, 2], b=[10, 20])
        assert pts[0] == {"a": 1, "b": 10}
        assert pts[1] == {"a": 1, "b": 20}


class TestSweep:
    def test_merges_params_and_metrics(self):
        rows = sweep(grid(x=[1, 2]), lambda x: {"y": x * 10})
        assert rows == [{"x": 1, "y": 10}, {"x": 2, "y": 20}]

    def test_empty_points(self):
        assert sweep([], lambda: {}) == []

    def test_metric_key_collision_names_the_key(self):
        with pytest.raises(ConfigError, match="'x'"):
            sweep(grid(x=[1, 2]), lambda x: {"x": x, "y": 1})

    def test_workers_kwarg_preserves_rows(self, monkeypatch):
        """``sweep`` is the in-process loop and takes no ``workers``;
        the sweep that does, ``sweep_specs``, must give the in-process
        rows on local worker processes: values, types and key order."""
        # a 1-CPU host would clamp workers to 1 and start no process
        monkeypatch.setattr(sweep_mod, "default_workers", lambda: 2)
        points = [{"scheme": s} for s in ("never-migrate", "always-migrate",
                                          "history", "costaware")]
        assert len(points) >= LOCAL_MIN_POINTS
        serial = sweep_specs(_base_spec(), points, workers=1)
        assert repr(sweep_specs(_base_spec(), points, workers=4)) == repr(serial)


def _base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        workload=WorkloadSpec(name="pingpong",
                              params={"num_threads": 4, "rounds": 8}),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


class TestSweepSpecs:
    POINTS = [{"scheme": "never-migrate"}, {"scheme": "always-migrate"},
              {"scheme": "history"}]

    def test_one_row_per_point_with_axis_labels(self):
        rows = sweep_specs(_base_spec(), self.POINTS)
        assert [r["scheme"] for r in rows] == [p["scheme"] for p in self.POINTS]
        for row in rows:
            assert "total_cost" in row and "migrations" in row

    def test_point_value_wins_metric_collision(self):
        # The analytical evaluator reports its own "scheme" metric (the
        # class's internal name); the sweep axis label must win.
        rows = sweep_specs(_base_spec(), [{"scheme": "never-migrate"}])
        assert rows[0]["scheme"] == "never-migrate"

    def test_parallel_rows_match_serial(self):
        serial = sweep_specs(_base_spec(), self.POINTS, workers=1)
        parallel = sweep_specs(_base_spec(), self.POINTS, workers=2)
        assert parallel == serial

    def test_cache_hits_on_second_run(self, tmp_path):
        path = tmp_path / "results.rpjl"
        with ResultCache(path) as cold:
            rows_cold = sweep_specs(_base_spec(), self.POINTS, cache=cold)
        assert cold.hits == 0 and cold.misses == len(self.POINTS)
        with ResultCache(path) as warm:
            rows_warm = sweep_specs(_base_spec(), self.POINTS, cache=warm)
        assert warm.hits == len(self.POINTS) and warm.misses == 0
        assert rows_warm == rows_cold

    def test_trace_file_content_partitions_keys(self, tmp_path):
        """A spec names a trace file only by path; its rows are keyed by
        the file's content, so rewriting the file misses and restoring
        it hits again."""
        def trace(seed):
            return build_workload(WorkloadSpec(
                name="uniform",
                params={"num_threads": 4, "accesses_per_thread": 32, "seed": seed},
            ))

        path = tmp_path / "t.npz"
        base = _base_spec().replace(
            workload=WorkloadSpec(name="trace-file", trace_path=str(path))
        )
        hits = []
        for seed in (1, 2, 1):
            save_multitrace(trace(seed), path)
            with ResultCache(tmp_path / "results.rpjl") as store:
                sweep_specs(base, self.POINTS[:1], cache=store)
            hits.append(store.hits)
        assert hits == [0, 0, 1]

    def test_rewritten_trace_file_is_read_again(self, tmp_path):
        """The build memo follows a trace file's content: a file
        rewritten in place is evaluated afresh by the next sweep in the
        same process, with no memo reset, and gives the rows of the
        generated workload it now holds."""
        path = tmp_path / "t.npz"
        file_base = _base_spec().replace(
            workload=WorkloadSpec(name="trace-file", trace_path=str(path))
        )
        seen = []
        # the second trace is longer, so the rewrite changes the file's
        # size as well as its mtime
        for seed, accesses in ((1, 32), (2, 48)):
            generated = WorkloadSpec(
                name="uniform",
                params={"num_threads": 4, "accesses_per_thread": accesses, "seed": seed},
            )
            save_multitrace(build_workload(generated), path)
            rows = sweep_specs(file_base, self.POINTS)
            assert rows == sweep_specs(_base_spec().replace(workload=generated), self.POINTS)
            seen.append(rows)
        assert seen[0] != seen[1]

    def test_unknown_point_key_rejected(self):
        with pytest.raises(ConfigError, match="sweep-spec key"):
            sweep_specs(_base_spec(), [{"sceme": "history"}])


class TestGeomean:
    def test_known_value(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_empty_nan(self):
        assert math.isnan(geomean([]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            geomean([1.0, 0.0])
        with pytest.raises(ConfigError):
            geomean([-1.0])


class TestNormalize:
    def test_divides_by_baseline(self):
        rows = [{"c": 10}, {"c": 20}]
        normalize(rows, "c")
        assert rows[0]["c_norm"] == 1.0
        assert rows[1]["c_norm"] == 2.0

    def test_custom_baseline_row(self):
        rows = [{"c": 10}, {"c": 20}]
        normalize(rows, "c", baseline_row=1)
        assert rows[0]["c_norm"] == 0.5

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigError):
            normalize([{"c": 0}], "c")

    def test_bad_row_rejected(self):
        with pytest.raises(ConfigError):
            normalize([{"c": 1}], "c", baseline_row=5)
