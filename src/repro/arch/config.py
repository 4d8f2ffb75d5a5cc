"""System configuration dataclasses.

Defaults mirror the paper's experimental setup: 64 cores / 64 threads,
16 KB L1 + 64 KB L2 data caches per core, first-touch placement, and a
1.5 Kbit execution context ("1–2 Kbits in a 32-bit Atom-like
processor", §2). All sizes are in bits or bytes as named; all
latencies are in cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.validate import check_integral, check_positive, check_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """One level of a private data cache."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 2

    def __post_init__(self) -> None:
        check_power_of_two("cache line_bytes", self.line_bytes)
        check_positive("cache size_bytes", self.size_bytes)
        check_positive("cache associativity", self.associativity)
        check_integral("cache hit_latency", self.hit_latency)
        if self.size_bytes % (self.line_bytes * self.associativity):
            from repro.util.errors import ConfigError

            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"line_bytes*associativity = {self.line_bytes * self.associativity}"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class NocConfig:
    """2-D mesh on-chip network parameters.

    ``flit_bits`` is the link width: a message of ``b`` payload bits
    plus one head flit serializes into ``1 + ceil(b / flit_bits)``
    flits. ``router_latency`` is per-hop pipeline delay.
    """

    flit_bits: int = 128
    router_latency: int = 1
    link_latency: int = 1
    num_virtual_channels: int = 6  # EM2-RA needs six (§3 / [10])
    contention: bool = False

    def __post_init__(self) -> None:
        check_positive("noc flit_bits", self.flit_bits)
        check_integral("noc router_latency", self.router_latency)
        check_integral("noc link_latency", self.link_latency)
        check_positive("noc router_latency", self.router_latency)
        check_positive("noc link_latency", self.link_latency)
        check_positive("noc num_virtual_channels", self.num_virtual_channels)
        # memo table for message_flits: simulators serialize the same
        # handful of payload sizes (context, control, data line) millions
        # of times. Not a dataclass field, so eq/hash/asdict ignore it.
        object.__setattr__(self, "_flits_memo", {})

    def message_flits(self, payload_bits: int) -> int:
        """Flit count for a message carrying ``payload_bits`` of payload.

        Memoized per payload size — the per-access loops call this for
        every message, and real runs use only a few distinct sizes.
        """
        flits = self._flits_memo.get(payload_bits)
        if flits is None:
            if payload_bits < 0:
                raise ValueError("payload_bits must be >= 0")
            flits = 1 + -(-payload_bits // self.flit_bits)  # 1 head flit + ceil
            self._flits_memo[payload_bits] = flits
        return flits

    @property
    def per_hop(self) -> int:
        """Head-flit latency of one hop: router pipeline plus link."""
        return self.router_latency + self.link_latency

    def zero_load_latency(self, hops, payload_bits: int):
        """Contention-free latency of a message over ``hops`` hops (an
        int or an array), the one definition every model charges: the
        head flit pays :attr:`per_hop` per hop, the body flits stream
        behind it (wormhole)."""
        return hops * self.per_hop + (self.message_flits(payload_bits) - 1)


@dataclass(frozen=True)
class ContextConfig:
    """Size model of a thread's architectural execution context (§2).

    A 32-bit Atom-like core: 32 general registers + PC + status give
    roughly 1–2 Kbit. The stack-machine variant (§4) replaces the
    register file with a migrated stack window of ``stack_word_bits``
    entries.
    """

    register_bits: int = 32 * 32  # 32 x 32-bit registers
    pc_bits: int = 32
    extra_state_bits: int = 448  # TLB entries / status words -> ~1.5 Kbit total
    stack_word_bits: int = 32

    def __post_init__(self) -> None:
        check_positive("context pc_bits", self.pc_bits)

    @property
    def full_context_bits(self) -> int:
        """Bits moved by a conventional (register-file) EM2 migration."""
        return self.register_bits + self.pc_bits + self.extra_state_bits

    def stack_context_bits(self, depth: int) -> int:
        """Bits moved by a stack-EM2 migration carrying ``depth`` entries.

        PC + status always travel; the register file does not exist.
        """
        if depth < 0:
            raise ValueError("stack depth must be >= 0")
        return self.pc_bits + 64 + depth * self.stack_word_bits


@dataclass(frozen=True)
class CostConfig:
    """Fixed protocol overheads (cycles), on top of network transport."""

    migration_fixed: int = 6  # pipeline flush + context load/unload
    remote_access_fixed: int = 2  # request injection + reply consume
    dram_latency: int = 100
    eviction_fixed: int = 6

    def __post_init__(self) -> None:
        for name in (
            "migration_fixed",
            "remote_access_fixed",
            "dram_latency",
            "eviction_fixed",
        ):
            check_integral(f"cost {name}", getattr(self, name))
        check_positive("cost migration_fixed", self.migration_fixed)
        check_positive("cost remote_access_fixed", self.remote_access_fixed)


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description used across all architecture models."""

    num_cores: int = 64
    mesh_width: int | None = None  # default: square mesh
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * 1024, hit_latency=6)
    )
    noc: NocConfig = field(default_factory=NocConfig)
    context: ContextConfig = field(default_factory=ContextConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    guest_contexts: int = 2  # guest execution slots per core
    word_bits: int = 32
    # §2: "each core may be capable of multiplexing execution among
    # several contexts at instruction granularity" — when True, a
    # thread's non-memory work slows by the number of co-resident
    # contexts sharing its core's pipeline
    multiplex_contexts: bool = False

    def __post_init__(self) -> None:
        check_positive("num_cores", self.num_cores)
        if self.mesh_width is not None:
            check_positive("mesh_width", self.mesh_width)
            if self.num_cores % self.mesh_width:
                from repro.util.errors import ConfigError

                raise ConfigError(
                    f"num_cores={self.num_cores} not divisible by mesh_width={self.mesh_width}"
                )
        check_positive("guest_contexts", self.guest_contexts)
        # The directory-CC simulator reconstructs victim addresses with
        # bit_length() shifts (DirectoryCCSimulator._victim_addr), which
        # silently corrupts addresses for non-power-of-two line or flit
        # sizes — reject them here rather than produce wrong traffic.
        check_power_of_two("l1.line_bytes", self.l1.line_bytes)
        check_power_of_two("l2.line_bytes", self.l2.line_bytes)
        check_power_of_two("noc.flit_bits", self.noc.flit_bits)

    # -- message payloads (bits) ------------------------------------------
    def ra_request_bits(self, write: bool) -> int:
        """Remote-access request: 64-bit address + 8-bit opcode, plus the
        data word of a store."""
        return 64 + 8 + (self.word_bits if write else 0)

    def ra_reply_bits(self, write: bool) -> int:
        """Remote-access reply: the data word, or an 8-bit store ack."""
        return 8 if write else self.word_bits

    def stack_flush_bits(self, words: int) -> int:
        """Stack-EM² flush of ``words`` entries: 64-bit header + words."""
        return 64 + words * self.word_bits

    @property
    def word_bytes(self) -> int:
        """Bytes per data word. Traces are word-addressed; multiply by
        this to get the byte addresses the cache arrays expect."""
        return max(self.word_bits // 8, 1)

    @property
    def width(self) -> int:
        """Mesh width (default: the most nearly square grid)."""
        if self.mesh_width is not None:
            return self.mesh_width
        return near_square_width(self.num_cores)

    @property
    def height(self) -> int:
        return self.num_cores // self.width


def near_square_width(n: int) -> int:
    """Largest divisor of ``n`` not above its square root: the width of
    the most nearly square ``w x n/w`` grid (64 -> 8, 12 -> 3, 7 -> 1)."""
    w = math.isqrt(n)
    while n % w:
        w -= 1
    return w


def small_test_config(num_cores: int = 4, **overrides) -> SystemConfig:
    """A tiny configuration for unit tests (fast, small caches)."""
    defaults = dict(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=1024, line_bytes=32, associativity=2),
        l2=CacheConfig(size_bytes=4096, line_bytes=32, associativity=4, hit_latency=4),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def manycore_config(num_cores: int = 1024, **overrides) -> SystemConfig:
    """Scale configuration for 1024–4096-core machines.

    Per-tile caches are trimmed (4 KB L1 + 16 KB L2, 32 B lines) so a
    thousands-of-tiles instance builds inside the bytes-per-tile budget
    (:mod:`repro.analysis.memsize`) and the scaling study's workloads —
    which are sized per-core, not per-machine — still exercise
    capacity misses. Everything else keeps the paper's defaults.
    """
    defaults = dict(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=4 * 1024, line_bytes=32, associativity=2),
        l2=CacheConfig(size_bytes=16 * 1024, line_bytes=32, associativity=4, hit_latency=6),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


# -- preset registry entries --------------------------------------------
# Registered here (the module that owns SystemConfig) so the PRESETS
# registry populates on import; every consumer resolves preset names
# through repro.registry.PRESETS instead of hard-coded tuples.
from repro.registry import PRESETS  # noqa: E402  (registry is a leaf module)


@PRESETS.register("default", "the paper's 64-core setup (16 KB L1 + 64 KB L2 per tile)")
def _preset_default(num_cores: int = 64, **overrides) -> SystemConfig:
    return SystemConfig(num_cores=num_cores, **overrides)


PRESETS.register("small-test", "tiny unit-test configuration (fast, small caches)")(
    small_test_config
)

PRESETS.register(
    "mesh-1024",
    "1024-core scale preset: trimmed tile caches on a 32x32 mesh",
)(manycore_config)


@PRESETS.register(
    "cluster-4096",
    "4096-core scale preset: trimmed tile caches; pair with topology 'cluster'",
)
def _preset_cluster_4096(num_cores: int = 4096, **overrides) -> SystemConfig:
    return manycore_config(num_cores=num_cores, **overrides)
