"""Unit tests for the seeded fault-injection plane (repro.faults).

The two load-bearing contracts:

* **Determinism** — the fault schedule is a pure function of
  ``(FaultSpec, topology)``: same spec, same digest, same stats, in any
  process (the sweep executor and the cache both depend on this).
* **Zero-cost when quiet** — a fault plane at all-zero rates must be
  observationally invisible: bit-identical results to ``faults=None``
  (checked here against the committed golden fixture).
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultInjector
from repro.registry import FAULTS
from repro.runner import merge_spec, run
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    WorkloadSpec,
)
from repro.util.errors import ConfigError, FaultError, ReproError, RetryExhaustedError

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "golden_results.json"

#: results() keys present only when an injector is attached.
FAULT_KEYS = ("retries", "drops_survived", "dup_ignored", "recovery_stall_cycles")


def _spec(machine="em2", faults=None, rounds=8):
    return ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": rounds}),
        machine=MachineSpec(name=machine, cores=4, preset="small-test"),
        scheme=SchemeSpec(name="history"),
        placement=PlacementSpec(name="first-touch"),
        faults=faults,
    )


def _strip(res):
    # fast_path is engagement diagnostics (a fault plane reports
    # engaged=False), never simulated outcome — excluded like the
    # fault-only ledger keys when comparing against fault-free runs
    return {
        k: v
        for k, v in res.items()
        if k not in FAULT_KEYS and k != "fast_path"
        and not k.startswith("faults.")
    }


class TestFaultSpec:
    def test_round_trip_and_omission_when_none(self):
        spec = _spec(faults=FaultSpec(params={"drop_rate": 0.1}, seed=7))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        clean = _spec()
        assert "faults" not in clean.to_dict()
        assert ExperimentSpec.from_dict(clean.to_dict()) == clean

    def test_bad_rates_rejected(self):
        with pytest.raises(ConfigError):
            FaultInjector(FaultSpec(params={"drop_rate": 1.5}))
        with pytest.raises(ConfigError):
            FaultInjector(FaultSpec(params={"drop_rate": 0.6, "dup_rate": 0.6}))
        with pytest.raises(ConfigError):
            FaultInjector(FaultSpec(params={"no_such_knob": 1}))

    def test_unknown_model_lists_options(self):
        with pytest.raises(ConfigError, match="iid"):
            FaultInjector(FaultSpec(name="nope"))

    def test_registry_has_both_models(self):
        assert {"iid", "bursty"} <= set(FAULTS.names())


class TestDeterminism:
    def test_same_spec_same_schedule_digest(self):
        spec = FaultSpec(params={"drop_rate": 0.2, "dup_rate": 0.1, "delay_rate": 0.1})
        a, b = FaultInjector(spec), FaultInjector(spec)
        actions = [a.on_message(0, 1) for _ in range(500)]
        assert actions == [b.on_message(0, 1) for _ in range(500)]
        assert a.schedule_digest() == b.schedule_digest()

    def test_different_seed_different_schedule(self):
        a = FaultInjector(FaultSpec(params={"drop_rate": 0.2}, seed=0))
        b = FaultInjector(FaultSpec(params={"drop_rate": 0.2}, seed=1))
        for _ in range(500):
            a.on_message(0, 1)
            b.on_message(0, 1)
        assert a.schedule_digest() != b.schedule_digest()

    @pytest.mark.parametrize("machine", ["em2", "em2ra", "cc-msi"])
    def test_end_to_end_run_reproducible(self, machine):
        spec = _spec(
            machine,
            FaultSpec(params={"drop_rate": 0.1, "dup_rate": 0.05, "delay_rate": 0.05}),
        )
        first, second = run(spec), run(spec)
        assert first == second
        assert first["faults.schedule_digest"] == second["faults.schedule_digest"]
        assert first["faults.total"] > 0

    def test_cross_process_digest_matches_serial(self, monkeypatch):
        """Local worker processes (serialized spec dicts, fed by the
        farm coordinator) must reproduce the in-process fault schedule
        exactly."""
        import importlib

        from repro.analysis.farm import FarmCoordinator
        from repro.analysis.sweep import sweep_specs

        # force local processes even on 1-CPU hosts, else workers=2
        # silently runs the serial loop and proves nothing
        sweep_mod = importlib.import_module("repro.analysis.sweep")
        monkeypatch.setattr(sweep_mod, "default_workers", lambda: 2)
        started = []
        real_start = FarmCoordinator._start_local
        monkeypatch.setattr(
            FarmCoordinator,
            "_start_local",
            lambda self: started.append(self.local) or real_start(self),
        )

        base = _spec()
        points = [
            {"machine": {"name": m}, "faults": {"params": {"drop_rate": r}}}
            for m in ("em2", "em2ra")
            for r in (0.05, 0.1)
        ]
        serial = sweep_specs(base, points, workers=1)
        parallel = sweep_specs(base, points, workers=2)
        assert started == [2]
        assert parallel == serial


class TestZeroFaultParity:
    def test_quiet_plane_matches_golden_fixture(self):
        """Every golden scenario, rerun with an attached all-zero-rate
        injector, must reproduce the committed fixture bit for bit
        after stripping the fault-only ledger keys."""
        import sys

        committed = json.loads(FIXTURE.read_text())
        # the fixture stores results only; rebuild the scenario specs
        # the same way the fixture generator does
        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        if str(bench_dir) not in sys.path:
            sys.path.insert(0, str(bench_dir))
        import make_golden_fixtures as golden

        for key, spec_dict in golden.scenario_specs().items():
            spec_dict = dict(spec_dict)
            spec_dict["faults"] = {"name": "iid", "params": {}, "seed": 0}
            res = run(ExperimentSpec.from_dict(spec_dict))
            assert res["retries"] == 0 and res["faults.total"] == 0, key
            assert _strip(res) == committed[key], key

    def test_fault_keys_absent_without_injector(self):
        res = run(_spec())
        assert not any(k in res for k in FAULT_KEYS)
        assert not any(k.startswith("faults.") for k in res)


class TestRecovery:
    @pytest.mark.parametrize("machine", ["em2", "cc-msi"])
    def test_retry_cap_exhaustion_is_typed(self, machine):
        spec = _spec(machine, FaultSpec(params={"drop_rate": 1.0}, retry_cap=2))
        with pytest.raises(RetryExhaustedError, match="retry cap 2"):
            run(spec)
        assert issubclass(RetryExhaustedError, FaultError)
        assert issubclass(FaultError, ReproError)

    def test_retries_disabled_em2_hangs_visibly(self):
        spec = _spec("em2", FaultSpec(params={"drop_rate": 1.0}, retries=False))
        with pytest.raises(ReproError, match="unfinished"):
            run(spec)

    def test_retries_disabled_cc_fails_fast(self):
        spec = _spec("cc-msi", FaultSpec(params={"drop_rate": 1.0}, retries=False))
        with pytest.raises(RetryExhaustedError, match="retries disabled"):
            run(spec)

    @pytest.mark.parametrize("machine", ["em2", "em2ra", "ra-only", "cc-msi"])
    def test_drops_recovered_and_counted(self, machine):
        res = run(_spec(machine, FaultSpec(params={"drop_rate": 0.1})))
        assert res["retries"] > 0
        assert res["drops_survived"] > 0
        assert res["recovery_stall_cycles"] > 0
        assert res["faults.drops"] == res["faults.total"]


class TestMergeSpecFaultsAxis:
    def test_dict_merges_over_base(self):
        base = _spec(faults=FaultSpec(seed=3, retry_cap=5))
        merged = merge_spec(base, {"faults": {"params": {"drop_rate": 0.2}}})
        assert merged.faults.seed == 3
        assert merged.faults.retry_cap == 5
        assert merged.faults.params == {"drop_rate": 0.2}

    def test_string_swaps_model_and_none_clears(self):
        base = _spec(faults=FaultSpec(params={"drop_rate": 0.2}))
        assert merge_spec(base, {"faults": "bursty"}).faults.name == "bursty"
        assert merge_spec(base, {"faults": None}).faults is None

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            merge_spec(_spec(), {"faults": 42})


class TestAnalyticalRejectsFaults:
    def test_config_error_names_detailed_machines(self):
        spec = ExperimentSpec(
            workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8}),
            machine=MachineSpec(name="analytical", cores=4),
            scheme=SchemeSpec(name="history"),
            placement=PlacementSpec(name="first-touch"),
            faults=FaultSpec(),
        )
        with pytest.raises(ConfigError, match="analytical"):
            run(spec)


class TestInjectorBinding:
    def test_rebinding_to_a_different_topology_rejected(self):
        from repro.arch.topology import Mesh2D

        inj = FaultInjector(FaultSpec())
        mesh = Mesh2D(2, 2)
        inj.bind_topology(mesh)
        inj.bind_topology(mesh)  # same object: idempotent
        with pytest.raises(ConfigError):
            inj.bind_topology(Mesh2D(3, 3))
