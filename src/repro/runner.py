"""Build and run experiments from :class:`~repro.spec.ExperimentSpec`.

This module is the single construction path between declarative specs
and live objects: every consumer — the CLI, the sweep/bench harness,
the golden-fixture generator, the integration tests — resolves
component names through :mod:`repro.registry` *here* and nowhere else.

* :func:`build` turns a spec into the live pieces (trace, placement,
  system config, topology, cost model, scheme) without running
  anything.
* :func:`run` builds and executes the spec's machine, returning its
  metrics dict — ``results()`` for the detailed DES machines, the
  :class:`~repro.core.evaluation.EvalResult` dict for the analytical
  evaluator, bit-identical to direct construction.
* :func:`merge_spec` overlays a partial sweep point onto a base spec,
  which is how parameter sweeps become lists of full specs.
* :func:`run_spec_dict` is the picklable worker entry point: pool
  workers receive serialized spec dicts, never closures, so any spec
  the parent can describe, a worker can reproduce.

Workload generation and placement construction are memoized per
process (specs are deterministic, so rebuilding is pure waste when a
sweep evaluates ten schemes on one trace). The memo is keyed by the
canonical spec dict — plus, for a trace file, the file's size and
modification time, so a file rewritten in place is read again — and
bounded; traces and placements are treated as immutable by every
machine, which the golden-fixture parity tests enforce.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

from repro.arch.config import SystemConfig
from repro.core.costs import CostModel
from repro.registry import MACHINES, PLACEMENTS, PRESETS, SCHEMES, TOPOLOGIES, WORKLOADS
from repro.spec import (
    ExperimentSpec,
    FaultSpec,
    MachineSpec,
    PlacementSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.util.errors import ConfigError

# Per-process memo for deterministic, immutable build products. Small
# and LRU-bounded: a sweep touches a handful of distinct workloads, but
# alternates between them — evicting the *least recently used* entry
# (not the oldest-inserted, which FIFO did) keeps a round-robin over N
# workloads resident as long as N <= cap.
_MEMO_CAP = 8
_workload_memo: "OrderedDict[str, object]" = OrderedDict()
_placement_memo: "OrderedDict[str, object]" = OrderedDict()


def _memo_get(memo: OrderedDict, key: str):
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
    return value


def _memo_put(memo: OrderedDict, key: str, value) -> None:
    if key in memo:
        memo.move_to_end(key)
    elif len(memo) >= _MEMO_CAP:
        memo.popitem(last=False)
    memo[key] = value


def clear_build_memo() -> None:
    """Drop memoized traces/placements (tests; long-lived processes)."""
    _workload_memo.clear()
    _placement_memo.clear()


def _memo_key(workload: WorkloadSpec) -> str:
    """The build-memo key of ``workload``: its cache key, plus the
    file's size and ``mtime_ns`` when it names a trace file, so every
    memoized copy follows the file's content. A file this process
    cannot stat keys by path alone: only a seeded copy can serve it."""
    key = workload.cache_key()
    if workload.trace_path is None:
        return key
    try:
        st = os.stat(workload.trace_path)
    except OSError:
        return key
    return f"{key}:{st.st_size}:{st.st_mtime_ns}"


# ---------------------------------------------------------------- builders
def _construct(kind: str, name: str, factory, *args, **params):
    """``factory(*args, **params)``, where ``params`` are a spec's
    component params: a key the factory does not take is a
    :class:`ConfigError` naming the component and the key."""
    known = list(inspect.signature(factory).parameters)[len(args):]
    unknown = [key for key in params if key not in known]
    if unknown:
        raise ConfigError(
            f"{kind} {name!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known) or 'none'}"
        )
    return factory(*args, **params)


def build_system_config(machine: MachineSpec) -> SystemConfig:
    """The :class:`SystemConfig` a machine spec describes, via the
    preset registry (``default``/``small-test``/``mesh-1024``/...).

    ``machine.config`` overrides fields of the preset's config. A dict
    given for a nested field (``l1``, ``l2``, ``noc``, ``context``,
    ``cost``) overrides those fields of the preset's value, so
    ``{"noc": {"contention": True}}`` keeps the preset's link width.
    An unknown key or a rejected value raises :class:`ConfigError`
    naming the key.
    """
    config = PRESETS.get(machine.preset)(num_cores=machine.cores)
    known = {f.name for f in dataclasses.fields(SystemConfig)} - {"num_cores"}
    for key, value in machine.config.items():
        if key not in known:
            raise ConfigError(
                f"unknown machine.config key {key!r} (cores are machine.cores); "
                f"known keys: {', '.join(sorted(known))}"
            )
        try:
            current = getattr(config, key)
            if dataclasses.is_dataclass(current):
                if isinstance(value, Mapping):
                    value = dataclasses.replace(current, **value)
                elif not isinstance(value, type(current)):
                    raise ConfigError(
                        f"must be a dict or a {type(current).__name__}, "
                        f"got {type(value).__name__}"
                    )
            config = dataclasses.replace(config, **{key: value})
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"machine.config key {key!r}: {exc}") from exc
    return config


def build_workload(workload: WorkloadSpec):
    """The spec's :class:`~repro.trace.events.MultiTrace`.

    Resolution order: per-process memo, then the on-disk trace store
    (when one is active — see :mod:`repro.trace.store`), then the
    generator. Freshly generated traces are written back to the store
    so every later process on this machine skips generation entirely.
    Traces named by ``trace_path`` are already on disk and bypass the
    store (caching a file as a file would just duplicate it); the memo
    re-reads such a file once its size or modification time changes.
    """
    key = _memo_key(workload)
    trace = _memo_get(_workload_memo, key)
    if trace is not None:
        return trace
    if workload.trace_path is not None:
        from repro.trace.io import load_multitrace

        trace = load_multitrace(workload.trace_path)
    else:
        from repro.trace.store import active_trace_store

        store = active_trace_store()
        trace = store.get(key) if store is not None else None
        if trace is None:
            generator_cls = WORKLOADS.get(workload.name)
            trace = _construct(
                "workload", workload.name, generator_cls, **workload.params
            ).generate()
            if store is not None:
                store.put(key, trace)
    _memo_put(_workload_memo, key, trace)
    return trace


def seed_workload_memo(workload: WorkloadSpec | Mapping, trace) -> None:
    """Pre-load the build memo with an externally supplied trace.

    This is how farm workers avoid regenerating workloads: a trace the
    coordinator pushed (or the worker's trace store holds) is seeded
    here under the same key :func:`build_workload` would compute, so
    the normal build path finds it without knowing where it came from.
    """
    if not isinstance(workload, WorkloadSpec):
        workload = WorkloadSpec.from_dict(workload)
    _memo_put(_workload_memo, _memo_key(workload), trace)


def memoized_workload(workload_key: str):
    """The memoized trace for a workload cache key, or ``None``.

    Farm workers use this to decide whether a chunk's workload still
    needs seeding from their local trace store before evaluation.
    """
    return _memo_get(_workload_memo, workload_key)


def build_placement(placement: PlacementSpec, trace, num_cores: int, *, memo_key: str | None = None):
    """The spec's :class:`~repro.placement.base.Placement` over ``trace``."""
    if memo_key is not None:
        from repro.analysis.cache import stable_key

        key = stable_key({"w": memo_key, "p": placement.to_dict(), "cores": num_cores})
        built = _memo_get(_placement_memo, key)
        if built is not None:
            return built
    built = _construct(
        "placement", placement.name, PLACEMENTS.get(placement.name),
        trace, num_cores, **placement.params,
    )
    if memo_key is not None:
        _memo_put(_placement_memo, key, built)
    return built


def build_topology(topology: TopologySpec, config: SystemConfig):
    """The spec's topology, or ``None`` for ``"auto"`` so machines and
    cost models apply their own default (identical behaviour, and the
    path the golden fixtures were captured through)."""
    if topology.name == "auto":
        if topology.params:
            raise ConfigError(
                "topology 'auto' takes no params; name a topology "
                f"({', '.join(n for n in TOPOLOGIES.names() if n != 'auto')}) "
                "to parameterize it"
            )
        return None
    return _construct(
        "topology", topology.name, TOPOLOGIES.get(topology.name), config, **topology.params
    )


def build_scheme(scheme: SchemeSpec, cost: CostModel):
    """A fresh decision-scheme instance for this experiment's cost model."""
    return _construct("scheme", scheme.name, SCHEMES.get(scheme.name), cost, **scheme.params)


@dataclass
class BuiltExperiment:
    """Live objects for one spec — everything short of running it."""

    spec: ExperimentSpec
    trace: object
    placement: object
    config: SystemConfig
    topology: object | None
    cost: CostModel
    scheme: object


def build(spec: ExperimentSpec) -> BuiltExperiment:
    """Construct every component the spec names, via the registries."""
    config = build_system_config(spec.machine)
    trace = build_workload(spec.workload)
    placement = build_placement(
        spec.placement, trace, config.num_cores, memo_key=_memo_key(spec.workload)
    )
    topology = build_topology(spec.topology, config)
    cost = CostModel(config, topology)
    scheme = build_scheme(spec.scheme, cost)
    return BuiltExperiment(
        spec=spec,
        trace=trace,
        placement=placement,
        config=config,
        topology=topology,
        cost=cost,
        scheme=scheme,
    )


def run(spec: ExperimentSpec) -> dict:
    """Build the spec and execute its machine; return the metrics dict.

    When the spec carries a fault plane, a fresh
    :class:`~repro.faults.injector.FaultInjector` is constructed here —
    one injector per run, seeded purely from the spec, so the same spec
    reproduces the same fault schedule in any process.
    """
    built = build(spec)
    machine_fn = MACHINES.get(spec.machine.name)
    kwargs = dict(spec.machine.params)
    if not spec.machine.fast_path:
        kwargs["fast_path"] = False
    if spec.faults is not None:
        from repro.faults.injector import FaultInjector

        kwargs["faults"] = FaultInjector(spec.faults)
    return machine_fn(
        built.trace,
        built.placement,
        built.config,
        scheme=built.scheme,
        topology=built.topology,
        **kwargs,
    )


def run_spec_dict(spec: Mapping) -> dict:
    """Deserialize and run one sweep point: what every sweep path
    (serial loop, local process, farm worker) evaluates."""
    return run(ExperimentSpec.from_dict(spec))


# ---------------------------------------------------------------- merging
_SUB_SPEC_TYPES = {
    "workload": WorkloadSpec,
    "machine": MachineSpec,
    "scheme": SchemeSpec,
    "placement": PlacementSpec,
    "topology": TopologySpec,
}


def merge_spec(base: ExperimentSpec, point: Mapping) -> ExperimentSpec:
    """Overlay a partial sweep point onto ``base``.

    Point keys name sub-specs (``workload``/``machine``/``scheme``/
    ``placement``/``topology``/``faults``). A string value swaps the
    component by registered name with fresh default params; a dict
    value is merged (shallow) over the base sub-spec's fields. Anything
    else is a :class:`ConfigError` — silent typos would sweep the wrong
    axis. ``faults`` additionally accepts ``None`` to clear the fault
    plane, and merges over defaults when the base has none — which is
    what makes fault-rate sweep axes one-liners.
    """
    overrides = {}
    for key, value in point.items():
        if key == "faults":
            overrides["faults"] = _merge_faults(base.faults, value)
            continue
        sub_cls = _SUB_SPEC_TYPES.get(key)
        if sub_cls is None:
            raise ConfigError(
                f"unknown sweep-spec key {key!r}; valid keys: "
                f"{', '.join(sorted(_SUB_SPEC_TYPES))}, faults"
            )
        if isinstance(value, str):
            overrides[key] = sub_cls(name=value)
        elif isinstance(value, Mapping):
            merged = {**getattr(base, key).to_dict(), **dict(value)}
            overrides[key] = sub_cls.from_dict(merged)
        elif isinstance(value, sub_cls):
            overrides[key] = value
        else:
            raise ConfigError(
                f"sweep-spec value for {key!r} must be a name, dict, or "
                f"{sub_cls.__name__}, got {type(value).__name__}"
            )
    return base.replace(**overrides)


def _merge_faults(base_faults: FaultSpec | None, value):
    """Resolve a ``faults`` sweep-point value against the base spec."""
    if value is None:
        return None
    if isinstance(value, FaultSpec):
        return value
    if isinstance(value, str):
        return FaultSpec(name=value)
    if isinstance(value, Mapping):
        merged = {**(base_faults.to_dict() if base_faults else {}), **dict(value)}
        return FaultSpec.from_dict(merged)
    raise ConfigError(
        f"sweep-spec value for 'faults' must be None, a name, dict, or "
        f"FaultSpec, got {type(value).__name__}"
    )
