"""Typed, frozen experiment specifications.

An :class:`ExperimentSpec` is the complete declarative description of
one experiment: which workload, which machine (analytical evaluator or
a detailed DES simulator), which decision scheme, which placement, and
which topology. It is

* **typed and frozen** — construction validates field types; specs
  never mutate after creation;
* **serializable** — ``to_dict``/``from_dict`` round-trip through
  plain JSON-able dicts with a schema version, rejecting unknown
  fields and foreign versions;
* **hashable for caching** — the canonical dict feeds the SHA-256
  result-cache key (:func:`repro.analysis.cache.stable_key`), so the
  same spec produces the same key in every process;
* **the one construction path** — :func:`repro.runner.build` and
  :func:`repro.runner.run` turn a spec into live objects and metrics
  through the component registries, and every consumer (CLI, sweeps,
  benches, golden fixtures) goes through them.

Component ``name`` fields are registry keys (:mod:`repro.registry`);
``params`` dicts hold the component's constructor keyword arguments
and must contain only JSON-representable scalars/lists/dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.util.errors import ConfigError

#: Bump when the serialized layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1


def _check_params(owner: str, params: Any) -> None:
    if not isinstance(params, dict):
        raise ConfigError(f"{owner}.params must be a dict, got {type(params).__name__}")
    for key in params:
        if not isinstance(key, str):
            raise ConfigError(f"{owner}.params keys must be strings, got {key!r}")


def _check_str(owner: str, fieldname: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{owner}.{fieldname} must be a non-empty string, got {value!r}")


def _from_dict(cls, data: Mapping, *, owner: str):
    """Shared strict constructor: every key must name a dataclass field."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{owner} spec must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown field(s) {', '.join(map(repr, unknown))} in {owner} spec; "
            f"known fields: {', '.join(sorted(known))}"
        )
    return cls(**{k: data[k] for k in data})


@dataclass(frozen=True)
class WorkloadSpec:
    """A synthetic workload by registered generator name, or a saved
    ``.npz`` trace by path (``trace_path`` set, ``name`` ignored)."""

    name: str = "ocean"
    params: dict = field(default_factory=dict)
    trace_path: str | None = None

    def __post_init__(self) -> None:
        _check_str("workload", "name", self.name)
        _check_params("workload", self.params)
        if self.trace_path is not None and not isinstance(self.trace_path, str):
            raise ConfigError("workload.trace_path must be a string or None")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "trace_path": self.trace_path,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        return _from_dict(cls, data, owner="workload")

    def cache_key(self) -> str:
        """Deterministic SHA-256 over the canonical workload dict — the
        content address of this spec's trace in the on-disk trace store
        (:mod:`repro.trace.store`) and the digest the farm ships a
        generated trace by (a trace file goes by its content digest)."""
        from repro.analysis.cache import stable_key

        return stable_key(self.to_dict())


@dataclass(frozen=True)
class SchemeSpec:
    """A decision scheme by registered name plus factory parameters."""

    name: str = "history"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str("scheme", "name", self.name)
        _check_params("scheme", self.params)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SchemeSpec":
        return _from_dict(cls, data, owner="scheme")


@dataclass(frozen=True)
class PlacementSpec:
    """A data placement policy by registered name plus parameters."""

    name: str = "first-touch"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str("placement", "name", self.name)
        _check_params("placement", self.params)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlacementSpec":
        return _from_dict(cls, data, owner="placement")


@dataclass(frozen=True)
class TopologySpec:
    """An on-chip network topology. ``"auto"`` means the default mesh
    for the system configuration (:func:`repro.arch.topology.topology_for`)."""

    name: str = "auto"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str("topology", "name", self.name)
        _check_params("topology", self.params)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        return _from_dict(cls, data, owner="topology")


@dataclass(frozen=True)
class FaultSpec:
    """A fault process plus the recovery protocol's knobs.

    ``name`` keys the :data:`repro.registry.FAULTS` registry (a fault
    *model*: ``"iid"`` independent per-message faults, ``"bursty"``
    Gilbert-Elliott bursts); ``params`` are the model's constructor
    arguments (drop/duplicate/delay rates, link-down windows, core
    stalls). ``seed`` selects the dedicated PCG64 fault stream — the
    same ``(spec, seed)`` always reproduces the identical fault
    schedule, in every process.

    The recovery fields configure the timeout/retry protocol every
    machine runs when faults are enabled: ``retry_timeout`` cycles
    before the first resend, scaled by ``retry_backoff`` per attempt,
    giving up (``RetryExhaustedError``) after ``retry_cap`` resends.
    ``retries=False`` disables recovery entirely — dropped messages
    then strand threads, which is itself a scenario worth measuring.
    """

    name: str = "iid"
    params: dict = field(default_factory=dict)
    seed: int = 0
    retries: bool = True
    retry_timeout: float = 256.0
    retry_backoff: float = 2.0
    retry_cap: int = 10

    def __post_init__(self) -> None:
        _check_str("faults", "name", self.name)
        _check_params("faults", self.params)
        if not isinstance(self.seed, int):
            raise ConfigError(f"faults.seed must be an int, got {self.seed!r}")
        if not isinstance(self.retries, bool):
            raise ConfigError(f"faults.retries must be a bool, got {self.retries!r}")
        if not isinstance(self.retry_timeout, (int, float)) or self.retry_timeout <= 0:
            raise ConfigError(
                f"faults.retry_timeout must be a positive number, got {self.retry_timeout!r}"
            )
        if not isinstance(self.retry_backoff, (int, float)) or self.retry_backoff < 1.0:
            raise ConfigError(
                f"faults.retry_backoff must be >= 1.0, got {self.retry_backoff!r}"
            )
        if not isinstance(self.retry_cap, int) or self.retry_cap < 0:
            raise ConfigError(
                f"faults.retry_cap must be a non-negative int, got {self.retry_cap!r}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "seed": self.seed,
            "retries": self.retries,
            "retry_timeout": self.retry_timeout,
            "retry_backoff": self.retry_backoff,
            "retry_cap": self.retry_cap,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        return _from_dict(cls, data, owner="faults")


@dataclass(frozen=True)
class MachineSpec:
    """Which executor runs the experiment, on what system.

    ``name`` is a machine-registry key (``"analytical"`` for the fast
    §3 evaluator, ``"em2"``/``"em2ra"``/``"ra-only"``/``"cc-msi"``/
    ``"cc-mesi"`` for the detailed simulators). ``preset`` names a
    :data:`repro.registry.PRESETS` entry — the
    :class:`~repro.arch.config.SystemConfig` base (``"default"``,
    ``"small-test"``, or the scale presets ``"mesh-1024"``/
    ``"cluster-4096"``); ``config`` holds flat SystemConfig overrides
    and ``params`` extra machine keyword arguments.
    """

    name: str = "analytical"
    cores: int = 64
    preset: str = "default"
    config: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    #: Epoch-batched fast path of the EM²-family machines (bit-identical
    #: results; auto-disabled when a fault plane is attached). The
    #: analytical and directory-CC machines ignore it. Serializes only
    #: when disabled, so every pre-existing spec dict, cache key, and
    #: golden fixture is unchanged.
    fast_path: bool = True

    def __post_init__(self) -> None:
        _check_str("machine", "name", self.name)
        _check_str("machine", "preset", self.preset)
        if not isinstance(self.cores, int) or self.cores <= 0:
            raise ConfigError(f"machine.cores must be a positive int, got {self.cores!r}")
        from repro.registry import PRESETS

        if self.preset not in PRESETS:
            raise ConfigError(
                f"unknown machine.preset {self.preset!r}; registered presets: "
                f"{', '.join(PRESETS.names())}"
            )
        if not isinstance(self.fast_path, bool):
            raise ConfigError(
                f"machine.fast_path must be a bool, got {self.fast_path!r}"
            )
        _check_params("machine", self.config)
        _check_params("machine", self.params)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "cores": self.cores,
            "preset": self.preset,
            "config": dict(self.config),
            "params": dict(self.params),
        }
        if not self.fast_path:
            out["fast_path"] = False
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "MachineSpec":
        return _from_dict(cls, data, owner="machine")


@dataclass(frozen=True)
class ExperimentSpec:
    """The complete declarative description of one experiment."""

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    machine: MachineSpec = field(default_factory=MachineSpec)
    scheme: SchemeSpec = field(default_factory=SchemeSpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Optional fault plane. ``None`` (the default) means a lossless
    #: fabric — the spec serializes without a ``faults`` key, so every
    #: pre-fault spec dict, cache key, and golden fixture is unchanged.
    faults: FaultSpec | None = None

    _SUBSPECS = (
        ("workload", WorkloadSpec),
        ("machine", MachineSpec),
        ("scheme", SchemeSpec),
        ("placement", PlacementSpec),
        ("topology", TopologySpec),
    )

    def __post_init__(self) -> None:
        for name, cls in self._SUBSPECS:
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise ConfigError(
                    f"ExperimentSpec.{name} must be a {cls.__name__}, "
                    f"got {type(value).__name__}"
                )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ConfigError(
                f"ExperimentSpec.faults must be a FaultSpec or None, "
                f"got {type(self.faults).__name__}"
            )

    def to_dict(self) -> dict:
        """Canonical JSON-able form, schema-versioned. Feeding this to
        :func:`repro.analysis.cache.stable_key` yields the cache key.

        ``faults`` is omitted when ``None`` so fault-free specs are
        byte-identical to pre-fault-plane serializations (stable cache
        keys, committed golden spec dicts round-trip unchanged).
        """
        out = {
            "schema": SPEC_SCHEMA_VERSION,
            **{name: getattr(self, name).to_dict() for name, _ in self._SUBSPECS},
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"experiment spec must be a mapping, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigError(
                f"experiment spec schema {schema!r} not supported; "
                f"this version reads schema {SPEC_SCHEMA_VERSION}"
            )
        known = {"schema", "faults"} | {name for name, _ in cls._SUBSPECS}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown field(s) {', '.join(map(repr, unknown))} in experiment "
                f"spec; known fields: {', '.join(sorted(known))}"
            )
        kwargs = {}
        for name, sub_cls in cls._SUBSPECS:
            if name in data:
                kwargs[name] = sub_cls.from_dict(data[name])
        if data.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(data["faults"])
        return cls(**kwargs)

    # -- derivation --------------------------------------------------------
    def replace(self, **overrides) -> "ExperimentSpec":
        """A new spec with whole sub-specs swapped (frozen-safe update)."""
        import dataclasses

        return dataclasses.replace(self, **overrides)

    def cache_key(self) -> str:
        """Deterministic SHA-256 over the canonical dict (stable across
        processes and runs). The result store's row key adds the code
        salt to the same dict (:func:`repro.analysis.cache.row_keys`)."""
        from repro.analysis.cache import stable_key

        return stable_key(self.to_dict())
