"""Unit tests for the spec -> live-objects construction path."""

import dataclasses

import pytest

from repro.arch.config import small_test_config
from repro.arch.topology import Mesh2D
from repro.core.costs import CostModel
from repro.core.evaluation import evaluate_scheme
from repro.placement import first_touch
from repro.runner import (
    build,
    build_topology,
    build_workload,
    clear_build_memo,
    merge_spec,
    run,
    run_spec_dict,
)
from repro.spec import (
    ExperimentSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.trace.synthetic import make_workload
from repro.util.errors import ConfigError

WORKLOAD = WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 8})


def _spec(machine="analytical", scheme="history") -> ExperimentSpec:
    return ExperimentSpec(
        workload=WORKLOAD,
        machine=MachineSpec(name=machine, cores=4, preset="small-test"),
        scheme=SchemeSpec(name=scheme),
        placement=PlacementSpec(name="first-touch"),
    )


class TestEquivalence:
    """run(spec) reproduces direct construction bit for bit — the
    property that lets every consumer switch to specs safely."""

    def test_analytical_matches_direct_evaluation(self):
        spec = _spec()
        trace = make_workload("pingpong", num_threads=4, rounds=8)
        placement = first_touch(trace, 4)
        cost = CostModel(small_test_config(num_cores=4))
        built = build(spec)
        direct = evaluate_scheme(trace, placement, built.scheme.clone(), cost)
        assert run(spec) == direct.as_dict()

    def test_em2_matches_direct_machine(self):
        from repro.core.em2 import EM2Machine

        trace = make_workload("pingpong", num_threads=4, rounds=8)
        placement = first_touch(trace, 4)
        machine = EM2Machine(trace, placement, small_test_config(num_cores=4))
        machine.run()
        assert run(_spec(machine="em2")) == machine.results()

    def test_run_spec_dict_round_trips(self):
        spec = _spec()
        assert run_spec_dict(spec.to_dict()) == run(spec)


class TestBuild:
    def test_build_yields_every_component(self):
        built = build(_spec())
        assert built.trace.num_threads == 4
        assert built.config.num_cores == 4
        assert built.cost.config is built.config
        assert built.scheme is not None
        assert built.topology is None  # "auto" defers to the machine default

    def test_auto_topology_with_params_rejected(self):
        # "auto" is the absence of a choice; parameterizing it is a
        # config error that names the topologies that do take params.
        with pytest.raises(ConfigError, match="'auto' takes no params"):
            build_topology(
                TopologySpec(name="auto", params={"width": 2}),
                small_test_config(num_cores=4),
            )

    def test_named_topology_is_built(self):
        topo = build_topology(TopologySpec(name="mesh"), small_test_config(num_cores=4))
        assert isinstance(topo, Mesh2D)

    def test_workload_memoized_per_spec(self):
        clear_build_memo()
        a = build_workload(WORKLOAD)
        b = build_workload(WorkloadSpec(name="pingpong",
                                        params={"num_threads": 4, "rounds": 8}))
        assert a is b
        clear_build_memo()
        assert build_workload(WORKLOAD) is not a

    def test_workload_memo_evicts_least_recently_used(self):
        """Round-robin over cap+1 workloads with one kept hot: the hot
        entry must survive eviction (LRU), where FIFO would drop it."""
        import repro.runner as runner

        clear_build_memo()
        specs = [
            WorkloadSpec(name="pingpong", params={"num_threads": 2, "rounds": r})
            for r in range(2, 2 + runner._MEMO_CAP + 1)
        ]
        hot = build_workload(specs[0])
        for spec in specs[1:]:
            build_workload(specs[0])  # keep the first entry recently used
            build_workload(spec)
        assert build_workload(specs[0]) is hot
        clear_build_memo()

    def test_seed_workload_memo_short_circuits_build(self):
        from repro.runner import seed_workload_memo

        clear_build_memo()
        sentinel = make_workload("pingpong", num_threads=4, rounds=8)
        seed_workload_memo(WORKLOAD, sentinel)
        assert build_workload(WORKLOAD) is sentinel
        # dict form (what a pool worker holds) seeds the same slot
        clear_build_memo()
        seed_workload_memo(WORKLOAD.to_dict(), sentinel)
        assert build_workload(WORKLOAD) is sentinel
        clear_build_memo()

    def test_points_of_one_machine_share_one_cost_model(self):
        clear_build_memo()
        a = build(_spec())
        b = build(_spec(machine="em2", scheme="always-migrate"))
        assert b.cost is a.cost
        assert b.config is a.config and b.topology is a.topology
        clear_build_memo()

    @pytest.mark.parametrize(
        "machine, topology",
        [
            (MachineSpec(cores=4, preset="default"), TopologySpec()),
            (MachineSpec(cores=16, preset="small-test"), TopologySpec()),
            (
                MachineSpec(cores=4, preset="small-test", config={"noc": {"flit_bits": 32}}),
                TopologySpec(),
            ),
            (MachineSpec(cores=4, preset="small-test"), TopologySpec(name="mesh")),
        ],
        ids=["preset", "cores", "config", "topology"],
    )
    def test_another_machine_gets_its_own_cost_model(self, machine, topology):
        clear_build_memo()
        a = build(_spec())
        b = build(_spec().replace(machine=machine, topology=topology))
        assert b.cost is not a.cost
        assert b.cost.config is b.config and b.cost.topology.num_cores == machine.cores
        assert build(_spec()).cost is a.cost  # both stay memoized
        clear_build_memo()

    def test_clear_build_memo_drops_the_cost_model(self):
        clear_build_memo()
        a = build(_spec())
        clear_build_memo()
        assert build(_spec()).cost is not a.cost
        clear_build_memo()

    def test_analytical_machine_reuses_the_build_cost_model(self, monkeypatch):
        import repro.runner as runner

        built = []
        init = CostModel.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(CostModel, "__init__", counting_init)
        clear_build_memo()
        for scheme in ("history", "always-migrate", "distance-1"):
            run(_spec(scheme=scheme))
        assert len(built) == 1
        # the memoized model serves its own config object, no other
        other = runner.machine_cost_model(small_test_config(num_cores=4), None)
        assert len(built) == 2 and other is built[1]
        clear_build_memo()

    def test_unknown_names_raise_config_error(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            run(_spec(machine="quantum"))
        with pytest.raises(ConfigError, match="unknown scheme"):
            build(_spec(scheme="clairvoyant"))


def _config_spec(config, machine="em2", workload=WORKLOAD, cores=4) -> ExperimentSpec:
    return ExperimentSpec(
        workload=workload,
        machine=MachineSpec(name=machine, cores=cores, preset="small-test", config=config),
        placement=PlacementSpec(name="first-touch"),
    )


class TestConfigOverrides:
    """``machine.config`` overrides the preset's fields; a dict for a
    nested field overrides that value's fields."""

    def test_nested_dict_overrides_the_presets_value(self):
        preset = small_test_config(num_cores=4)
        built = build(_config_spec({"l1": {"size_bytes": 2048}}))
        assert built.config.l1.size_bytes == 2048
        assert built.config.l1.line_bytes == preset.l1.line_bytes
        assert built.config.l1.associativity == preset.l1.associativity
        assert built.config.l2 == preset.l2

    def test_flat_overrides_equal_the_presets_keyword_form(self):
        config = {"guest_contexts": 1, "multiplex_contexts": True}
        assert build(_config_spec(config)).config == small_test_config(num_cores=4, **config)

    def test_contended_noc_from_a_spec_records_queueing(self):
        from repro.core.em2 import EM2Machine

        hotspot = WorkloadSpec(
            name="hotspot", params={"num_threads": 8, "accesses_per_thread": 128}
        )
        spec = _config_spec({"noc": {"contention": True}}, workload=hotspot, cores=8)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        built = build(spec)
        assert built.config.noc.contention
        m = EM2Machine(built.trace, built.placement, built.config)
        m.run()
        assert m.network.stats.latency("queueing").count > 0
        assert run(spec) == m.results()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"bogus": 1}, "bogus"),
            ({"num_cores": 8}, "num_cores"),
            ({"guest_contexts": "x"}, "guest_contexts"),
            ({"noc": {"bogus": True}}, "noc"),
            ({"noc": 5}, "noc"),
            ({"l1": {"size_bytes": 1000}}, "l1"),
        ],
    )
    def test_bad_override_raises_config_error_naming_the_key(self, config, key):
        with pytest.raises(ConfigError, match=f"machine.config key '{key}'"):
            run(_config_spec(config))


class TestComponentParams:
    """A param the named component does not take is a ConfigError naming
    the component and the key, one check for every family."""

    def test_unknown_scheme_param(self):
        for name in ("native-first", "history", "always-migrate"):
            spec = _spec().replace(scheme=SchemeSpec(name=name, params={"bogus": 1}))
            with pytest.raises(ConfigError, match=f"scheme '{name}' has no parameter 'bogus'"):
                build(spec)

    def test_unknown_placement_param(self):
        for name in ("first-touch", "striped"):
            spec = _spec().replace(placement=PlacementSpec(name=name, params={"bogus": 1}))
            with pytest.raises(ConfigError, match=f"placement '{name}' has no parameter 'bogus'"):
                build(spec)

    def test_unknown_workload_param(self):
        workload = WorkloadSpec(name="uniform", params={"num_threads": 4, "bogus": 1})
        with pytest.raises(ConfigError, match="workload 'uniform' has no parameter 'bogus'"):
            build(_spec().replace(workload=workload))

    def _machine_spec(self, machine: str, params: dict) -> ExperimentSpec:
        spec = _spec(machine)
        return spec.replace(machine=dataclasses.replace(spec.machine, params=params))

    # the row carries no run-length histogram, so the machine takes no
    # `collect_run_lengths` switch that would only pay for one
    @pytest.mark.parametrize("key", ["bogus", "collect_run_lengths"])
    def test_unknown_analytical_machine_param(self, key):
        with pytest.raises(
            ConfigError, match=f"machine 'analytical' has no parameter '{key}'; known: "
        ):
            run(self._machine_spec("analytical", {key: 1}))

    @pytest.mark.parametrize("machine", ["em2", "em2ra", "ra-only"])
    def test_unknown_migration_machine_param(self, machine):
        with pytest.raises(ConfigError, match=f"machine '{machine}' has no parameter 'bogus'"):
            run(self._machine_spec(machine, {"bogus": 1}))

    @pytest.mark.parametrize("machine", ["cc-msi", "cc-mesi"])
    def test_unknown_coherence_machine_param(self, machine):
        with pytest.raises(ConfigError, match=f"machine '{machine}' has no parameter 'bogus'"):
            run(self._machine_spec(machine, {"bogus": 1}))

    def test_known_machine_params_pass(self):
        slow = run(self._machine_spec("em2", {"fast_path": False}))
        assert slow.pop("fast_path") == {"engaged": False, "disabled_reason": "off"}
        assert slow == {k: v for k, v in run(_spec("em2")).items() if k != "fast_path"}

    def test_every_registered_factory_names_its_params(self):
        """The check reads the factory's signature, so no factory may
        hide its params behind ``**kwargs``."""
        import inspect

        from repro.registry import MACHINES, PLACEMENTS, SCHEMES, TOPOLOGIES, WORKLOADS

        for registry in (SCHEMES, PLACEMENTS, WORKLOADS, TOPOLOGIES, MACHINES):
            for entry in registry.items():
                kinds = {p.kind for p in inspect.signature(entry.obj).parameters.values()}
                assert inspect.Parameter.VAR_KEYWORD not in kinds, entry.name

    def test_native_first_takes_no_native_core(self):
        """The latch is the thread's start core; a spec that names a
        native core would only key a duplicate row."""
        spec = _spec(scheme="native-first").replace(
            scheme=SchemeSpec(name="native-first", params={"native_core": 3})
        )
        with pytest.raises(ConfigError, match="'native-first' has no parameter 'native_core'"):
            run(spec)

    @pytest.mark.parametrize("seed", [None, 1.5, True, "7"])
    def test_random_seed_must_be_an_int(self, seed):
        spec = _spec().replace(scheme=SchemeSpec(name="random", params={"seed": seed}))
        with pytest.raises(ConfigError, match="seed"):
            run(spec)

    def test_random_rows_repeat(self):
        spec = _spec().replace(
            workload=WorkloadSpec(name="uniform", params={"num_threads": 4, "accesses_per_thread": 256}),
            scheme=SchemeSpec(name="random", params={"seed": 11}),
        )
        rows = [run(spec) for _ in range(3)]
        assert rows[0] == rows[1] == rows[2]
        assert rows[0]["migrations"] > 0


class TestMergeSpec:
    def test_string_swaps_component_with_defaults(self):
        merged = merge_spec(_spec(), {"scheme": "never-migrate"})
        assert merged.scheme == SchemeSpec(name="never-migrate")
        assert merged.workload == WORKLOAD  # untouched axes pass through

    def test_mapping_overlays_subspec_fields(self):
        merged = merge_spec(_spec(), {"workload": {"params": {"num_threads": 8}}})
        assert merged.workload.name == "pingpong"
        assert merged.workload.params == {"num_threads": 8}

    def test_subspec_instance_passes_through(self):
        sub = PlacementSpec(name="striped")
        assert merge_spec(_spec(), {"placement": sub}).placement is sub

    def test_unknown_point_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep-spec key 'schem'"):
            merge_spec(_spec(), {"schem": "history"})

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="must be a name, dict"):
            merge_spec(_spec(), {"scheme": 42})

    def test_merge_does_not_mutate_base(self):
        base = _spec()
        merge_spec(base, {"scheme": "random", "workload": {"name": "uniform"}})
        assert base.scheme.name == "history"
        assert base.workload.name == "pingpong"
