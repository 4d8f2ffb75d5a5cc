"""Unit tests for configuration dataclasses and validation."""

import pytest

from repro.arch.config import (
    CacheConfig,
    ContextConfig,
    CostConfig,
    NocConfig,
    SystemConfig,
    small_test_config,
)
from repro.util.errors import ConfigError


class TestCacheConfig:
    def test_paper_defaults_geometry(self):
        l1 = CacheConfig(size_bytes=16 * 1024, line_bytes=64, associativity=4)
        assert l1.num_lines == 256
        assert l1.num_sets == 64

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=4)


class TestNocConfig:
    def test_message_flits_head_plus_payload(self):
        noc = NocConfig(flit_bits=128)
        assert noc.message_flits(0) == 1  # head only
        assert noc.message_flits(1) == 2
        assert noc.message_flits(128) == 2
        assert noc.message_flits(129) == 3

    def test_context_fits_paper_range(self):
        # a 1.5 Kbit context on 128-bit links = 13 flits
        noc = NocConfig(flit_bits=128)
        ctx = ContextConfig()
        assert 1024 <= ctx.full_context_bits <= 2048  # "1-2 Kbits" (§2)
        assert noc.message_flits(ctx.full_context_bits) == 13

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            NocConfig().message_flits(-1)


class TestWholeCycleLatencies:
    """Latencies and fixed costs are whole cycle counts: the analytical
    model's regrouped sums are exact only for whole-number costs."""

    FIELDS = [
        (NocConfig, "router_latency"),
        (NocConfig, "link_latency"),
        (CostConfig, "migration_fixed"),
        (CostConfig, "remote_access_fixed"),
        (CostConfig, "dram_latency"),
        (CostConfig, "eviction_fixed"),
        (CacheConfig, "hit_latency"),
    ]

    @pytest.mark.parametrize("cls,field", FIELDS)
    @pytest.mark.parametrize("value", [1.5, 0.1, float("inf"), float("nan"), "2", True])
    def test_non_integral_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("cls,field", FIELDS)
    def test_whole_numbers_accepted(self, cls, field):
        assert getattr(cls(**{field: 3}), field) == 3
        assert getattr(cls(**{field: 3.0}), field) == 3


class TestContextConfig:
    def test_stack_context_much_smaller(self):
        ctx = ContextConfig()
        # the headline claim of §4: a few ToS entries vs the whole RF
        assert ctx.stack_context_bits(2) < ctx.full_context_bits / 5

    def test_stack_context_monotone_in_depth(self):
        ctx = ContextConfig()
        sizes = [ctx.stack_context_bits(d) for d in range(10)]
        assert sizes == sorted(sizes)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            ContextConfig().stack_context_bits(-1)


class TestSystemConfig:
    def test_default_is_paper_machine(self):
        cfg = SystemConfig()
        assert cfg.num_cores == 64
        assert cfg.l1.size_bytes == 16 * 1024
        assert cfg.l2.size_bytes == 64 * 1024
        assert cfg.noc.num_virtual_channels == 6

    def test_mesh_dims(self):
        assert (SystemConfig(num_cores=64).width, SystemConfig(num_cores=64).height) == (8, 8)
        cfg = SystemConfig(num_cores=12, mesh_width=4)
        assert (cfg.width, cfg.height) == (4, 3)

    def test_indivisible_mesh_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=10, mesh_width=4)

    def test_word_bytes(self):
        assert SystemConfig().word_bytes == 4

    def test_small_test_config_overrides(self):
        cfg = small_test_config(num_cores=8, guest_contexts=3)
        assert cfg.num_cores == 8
        assert cfg.guest_contexts == 3
