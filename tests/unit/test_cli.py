"""Unit tests for the command-line interface."""

import ast

import pytest

from repro import runner
from repro.analysis.cache import stable_key
from repro.analysis.journal import SweepJournal
from repro.cli import _parse_params, main
from repro.registry import SCHEMES
from repro.runner import merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.events import MultiTrace
from repro.trace.io import save_multitrace
from repro.util.errors import ReproError


class TestParseParams:
    def test_int_float_str(self):
        out = _parse_params(["a=3", "b=2.5", "c=hello"])
        assert out == {"a": 3, "b": 2.5, "c": "hello"}

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            _parse_params(["nokey"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "workloads:" in out and "ocean" in out

    def test_profile_flag(self, capsys):
        """--profile wraps the command in cProfile and prints a stats
        table (to stderr) without changing the command's output or rc."""
        assert main(["--profile", "5", "info"]) == 0
        captured = capsys.readouterr()
        assert "workloads:" in captured.out
        assert "cumulative" in captured.err
        assert "function calls" in captured.err

    def test_fig2_small(self, capsys):
        rc = main(
            ["fig2", "--threads", "4", "--cores", "4", "--grid", "20",
             "--iterations", "1", "--rows", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "run_length" in out
        assert "fraction at run length 1" in out

    def test_workload_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w.npz"
        rc = main(
            ["workload", "--workload", "private", "--threads", "2",
             "--param", "accesses_per_thread=32", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.exists()
        # and evaluate the saved trace
        rc = main(
            ["evaluate", "--trace", str(out_file), "--cores", "4",
             "--scheme", "always-migrate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "always-migrate" in out

    def test_evaluate_all_schemes(self, capsys):
        rc = main(
            ["evaluate", "--workload", "pingpong", "--threads", "4",
             "--cores", "4", "--param", "rounds=8", "--scheme", "all"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("always-migrate", "never-migrate", "history"):
            assert name in out

    def test_optimal_summary(self, capsys):
        rc = main(
            ["optimal", "--workload", "pingpong", "--threads", "4",
             "--cores", "4", "--param", "rounds=8", "--thread", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal_cost" in out

    def test_shootout_normalizes_to_optimal(self, capsys):
        rc = main(
            ["shootout", "--workload", "pingpong", "--threads", "4",
             "--cores", "4", "--param", "rounds=8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal (DP)" in out
        assert "x_optimal" in out

    def test_error_paths_return_nonzero(self, capsys):
        rc = main(
            ["evaluate", "--workload", "pingpong", "--threads", "3",
             "--cores", "4"]
        )  # pingpong needs even threads -> ReproError -> exit 2
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_stackdepth_command(self, capsys):
        rc = main(
            ["stackdepth", "--kernel", "reduce", "--threads", "4",
             "--cores", "4", "--n", "16", "--max-depth", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "migrated_kbit" in out

    def test_dynamic_command(self, capsys):
        rc = main(
            ["dynamic", "--workload", "uniform", "--threads", "4",
             "--cores", "4", "--param", "accesses_per_thread=64",
             "--epochs", "2", "--oracle"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain" in out

    def test_evaluate_csv_output(self, capsys):
        rc = main(
            ["evaluate", "--workload", "private", "--threads", "2",
             "--cores", "4", "--param", "accesses_per_thread=16",
             "--scheme", "never-migrate", "--csv"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme,")
        assert "never-migrate" in out

    def test_costaware_scheme_available(self, capsys):
        rc = main(
            ["evaluate", "--workload", "pingpong", "--threads", "4",
             "--cores", "4", "--param", "rounds=8", "--scheme", "costaware"]
        )
        assert rc == 0
        assert "costaware" in capsys.readouterr().out

    def test_striped_placement_option(self, capsys):
        rc = main(
            ["evaluate", "--workload", "private", "--threads", "2",
             "--cores", "4", "--placement", "striped",
             "--param", "accesses_per_thread=16", "--scheme", "never-migrate"]
        )
        assert rc == 0


class TestRegistryErrors:
    """Unknown component names exit 2 with the registered options listed
    (sorted) — a ConfigError from the registry, not a bare KeyError."""

    def test_unknown_scheme_lists_options(self, capsys):
        from repro.registry import SCHEMES

        rc = main(
            ["evaluate", "--workload", "private", "--threads", "2",
             "--cores", "4", "--scheme", "hisstory"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'hisstory'" in err
        assert ", ".join(SCHEMES.names()) in err

    def test_unknown_placement_lists_options(self, capsys):
        from repro.registry import PLACEMENTS

        rc = main(
            ["evaluate", "--workload", "private", "--threads", "2",
             "--cores", "4", "--placement", "round-robin"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown placement 'round-robin'" in err
        assert ", ".join(PLACEMENTS.names()) in err

    def test_unknown_workload_lists_options(self, capsys):
        from repro.registry import WORKLOADS

        rc = main(["evaluate", "--workload", "splash2-ocean", "--cores", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown workload 'splash2-ocean'" in err
        assert ", ".join(WORKLOADS.names()) in err


class TestListCommand:
    def test_lists_every_registry_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for family in ("machines:", "schemes:", "placements:",
                       "workloads:", "topologies:"):
            assert family in out

    def test_entries_carry_descriptions(self, capsys):
        from repro.registry import ALL_REGISTRIES

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for registry in ALL_REGISTRIES.values():
            for entry in registry.items():
                assert entry.name in out
                assert entry.description  # non-empty one-liner


EVALUATE = ["evaluate", "--workload", "pingpong", "--threads", "4",
            "--cores", "4", "--param", "rounds=8", "--scheme", "all"]


def _cache_stats(err: str) -> dict | None:
    """The ``cache: {...}`` stats line an evaluate run prints on stderr."""
    lines = [ln for ln in err.splitlines() if ln.startswith("cache: ")]
    return ast.literal_eval(lines[-1][len("cache: "):]) if lines else None


def _run(capsys, argv) -> tuple[str, dict | None]:
    assert main(argv) == 0
    captured = capsys.readouterr()
    return captured.out, _cache_stats(captured.err)


class TestResultStore:
    """--cache-dir, --resume and --no-cache on `repro evaluate`."""

    def test_warm_cache_dir_rerun_is_identical_and_all_hits(self, tmp_path, capsys):
        argv = EVALUATE + ["--cache-dir", str(tmp_path / "store")]
        cold_out, cold = _run(capsys, argv)
        warm_out, warm = _run(capsys, argv)
        assert warm_out == cold_out
        points = cold["misses"]
        assert cold["hits"] == 0 and points > 1
        assert warm["hits"] == points and warm["misses"] == 0

    def test_warm_resume_rerun_is_identical_and_evaluates_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = EVALUATE + ["--resume", str(tmp_path / "sweep.rpjl")]
        cold_out, stats = _run(capsys, argv)
        assert stats is None  # --resume alone reports no cache line

        def no_evaluation(spec):
            raise AssertionError(f"resumed sweep evaluated {spec}")

        monkeypatch.setattr(runner, "run_spec_dict", no_evaluation)
        warm_out, _ = _run(capsys, argv)
        assert warm_out == cold_out

    def test_no_cache_prints_no_stats_and_writes_nothing(self, tmp_path, capsys):
        store = tmp_path / "store"
        plain_out, _ = _run(capsys, EVALUATE)
        out, stats = _run(capsys, EVALUATE + ["--cache-dir", str(store), "--no-cache"])
        assert out == plain_out
        assert stats is None
        assert not store.exists()

    def test_cache_dir_on_a_file_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        assert main(EVALUATE + ["--cache-dir", str(blocker)]) == 2
        assert "error: cannot use result store" in capsys.readouterr().err

    def test_unsalted_journal_opens_with_its_records_missing(self, tmp_path, capsys):
        """A resume journal keyed by the bare spec dict (the format before
        row keys were salted) still opens; its records never match, so
        every point is evaluated afresh."""
        base = ExperimentSpec(
            workload=WorkloadSpec(
                name="pingpong", params={"rounds": 8, "num_threads": 4}
            ),
            machine=MachineSpec(name="analytical", cores=4),
            placement=PlacementSpec(name="first-touch"),
        )
        path = tmp_path / "old.rpjl"
        with SweepJournal(path) as old:
            for scheme in ("always-migrate", "never-migrate", "history"):
                spec = merge_spec(base, {"scheme": scheme}).to_dict()
                old.append(stable_key({"journal-point": spec}), {"total_cost": -1})
        plain_out, _ = _run(capsys, EVALUATE)
        out, _ = _run(capsys, EVALUATE + ["--resume", str(path)])
        assert out == plain_out
        with SweepJournal(path) as log:
            assert log.recovered_records == 3 + len(SCHEMES.names())


class TestTraceFileRows:
    """A row computed from a trace file is keyed by the file's content."""

    def _trace(self, seed: int, like: MultiTrace | None = None) -> MultiTrace:
        mt = runner.build_workload(
            WorkloadSpec(
                name="uniform",
                params={"num_threads": 4, "accesses_per_thread": 64, "seed": seed},
            )
        )
        if like is None:
            return mt
        # other addresses under the first trace's metadata
        return MultiTrace(
            threads=mt.threads,
            thread_native_core=list(like.thread_native_core),
            name=like.name,
            params=dict(like.params),
        )

    def _evaluate(self, capsys, path, *extra):
        return _run(
            capsys,
            ["evaluate", "--trace", str(path), "--cores", "4",
             "--scheme", "always-migrate", *extra],
        )

    def test_first_run_into_an_empty_store_warms_it(self, tmp_path, capsys):
        path = save_multitrace(self._trace(1), tmp_path / "t.npz")
        store = ["--cache-dir", str(tmp_path / "store")]
        cold_out, cold = self._evaluate(capsys, path, *store)
        warm_out, warm = self._evaluate(capsys, path, *store)
        assert (cold["hits"], cold["misses"]) == (0, 1)
        assert (warm["hits"], warm["misses"]) == (1, 0)
        assert warm_out == cold_out

    def test_rewritten_file_with_same_metadata_misses(self, tmp_path, capsys):
        first = self._trace(1)
        path = save_multitrace(first, tmp_path / "t.npz")
        store = ["--cache-dir", str(tmp_path / "store")]
        old_out, _ = self._evaluate(capsys, path, *store)
        self._evaluate(capsys, path, *store)
        save_multitrace(self._trace(2, like=first), path)
        fresh_out, _ = self._evaluate(capsys, path)
        assert fresh_out != old_out  # the rewrite changes the results
        cached_out, stats = self._evaluate(capsys, path, *store)
        assert cached_out == fresh_out
        assert stats["misses"] == 1
