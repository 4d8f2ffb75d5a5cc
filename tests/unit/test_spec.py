"""Unit tests for the typed, frozen experiment specifications."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.spec import (
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.util.errors import ConfigError

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _sample_spec() -> ExperimentSpec:
    return ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8}),
        machine=MachineSpec(name="analytical", cores=8, preset="small-test"),
        scheme=SchemeSpec(name="history", params={"threshold": 3}),
        placement=PlacementSpec(name="striped", params={"stripe_words": 8}),
        topology=TopologySpec(name="mesh"),
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (WorkloadSpec, dict(name="ocean", params={"grid_n": 20})),
            (WorkloadSpec, dict(name="trace-file", trace_path="/tmp/t.npz")),
            (SchemeSpec, dict(name="costaware", params={"alpha": 0.5})),
            (PlacementSpec, dict(name="first-touch")),
            (TopologySpec, dict(name="torus")),
            (MachineSpec, dict(name="em2", cores=4, preset="small-test",
                               config={"guest_contexts": 2})),
        ],
    )
    def test_subspec_round_trip(self, cls, kwargs):
        spec = cls(**kwargs)
        assert cls.from_dict(spec.to_dict()) == spec

    def test_experiment_round_trip(self):
        spec = _sample_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json(self):
        spec = _sample_spec()
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_carries_schema_version(self):
        assert _sample_spec().to_dict()["schema"] == SPEC_SCHEMA_VERSION


class TestStrictness:
    def test_unknown_experiment_field_rejected(self):
        data = _sample_spec().to_dict()
        data["schedule"] = {"name": "fifo"}
        with pytest.raises(ConfigError, match="'schedule'"):
            ExperimentSpec.from_dict(data)

    def test_unknown_subspec_field_rejected(self):
        with pytest.raises(ConfigError, match="'threshold'"):
            SchemeSpec.from_dict({"name": "history", "threshold": 3})

    @pytest.mark.parametrize("schema", [None, 0, 2, "1"])
    def test_foreign_schema_version_rejected(self, schema):
        data = _sample_spec().to_dict()
        data["schema"] = schema
        with pytest.raises(ConfigError, match="schema"):
            ExperimentSpec.from_dict(data)

    def test_missing_schema_rejected(self):
        data = _sample_spec().to_dict()
        del data["schema"]
        with pytest.raises(ConfigError, match="schema"):
            ExperimentSpec.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict([("workload", {})])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name=42),
            dict(name="ok", params=[1, 2]),
        ],
    )
    def test_bad_scheme_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SchemeSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(cores=0), dict(cores="16"), dict(preset="huge")],
    )
    def test_bad_machine_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MachineSpec(**kwargs)

    def test_subspec_type_enforced(self):
        with pytest.raises(ConfigError, match="workload"):
            ExperimentSpec(workload={"name": "ocean"})

    def test_frozen(self):
        spec = _sample_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.scheme = SchemeSpec(name="never-migrate")


class TestReplace:
    def test_replace_swaps_subspec_without_mutating(self):
        spec = _sample_spec()
        other = spec.replace(scheme=SchemeSpec(name="never-migrate"))
        assert other.scheme.name == "never-migrate"
        assert spec.scheme.name == "history"
        assert other.workload == spec.workload


class TestCacheKey:
    def test_key_is_sha256_hex(self):
        key = _sample_spec().cache_key()
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_key_ignores_dict_ordering(self):
        spec = _sample_spec()
        reordered = json.loads(json.dumps(spec.to_dict()))
        scrambled = dict(reversed(list(reordered.items())))
        assert ExperimentSpec.from_dict(scrambled).cache_key() == spec.cache_key()

    def test_key_differs_when_spec_differs(self):
        spec = _sample_spec()
        assert spec.cache_key() != spec.replace(
            scheme=SchemeSpec(name="never-migrate")
        ).cache_key()

    def test_key_stable_across_processes(self):
        """The content address must be reproducible in a fresh
        interpreter — that is what makes the on-disk cache shareable."""
        spec = _sample_spec()
        code = (
            "import json, sys\n"
            "from repro.spec import ExperimentSpec\n"
            "print(ExperimentSpec.from_dict(json.load(sys.stdin)).cache_key())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(spec.to_dict()),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == spec.cache_key()
