"""Unit tests for the analytical cost model (§3)."""

import numpy as np
import pytest

from repro.arch.config import ContextConfig, SystemConfig, small_test_config
from repro.arch.topology import Mesh2D, TorusTopology
from repro.core.costs import CostModel
from repro.util.errors import ConfigError


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=16))


class TestMatrices:
    def test_diagonals_zero(self, cm):
        assert (np.diag(cm.migration) == 0).all()
        assert (np.diag(cm.remote_read) == 0).all()
        assert (np.diag(cm.remote_write) == 0).all()

    def test_costs_positive_off_diagonal(self, cm):
        off = ~np.eye(16, dtype=bool)
        assert (cm.migration[off] > 0).all()
        assert (cm.remote_read[off] > 0).all()

    def test_migration_symmetric(self, cm):
        assert (cm.migration == cm.migration.T).all()

    def test_costs_monotone_in_distance(self, cm):
        d = cm.topology.distance_matrix
        # farther pairs cost at least as much
        order = np.argsort(d[0])
        assert (np.diff(cm.migration[0][order]) >= 0).all()
        assert (np.diff(cm.remote_read[0][order]) >= 0).all()

    def test_break_even_above_one_everywhere(self, cm):
        """Figure 2's motivation: a run of length 1 should prefer RA,
        i.e. a migration round trip (2x one-way) costs more than one
        RA round trip for every core pair."""
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert cm.break_even_run_length(src, dst) > 1.0

    def test_migration_traffic_dominates_ra_traffic(self, cm):
        """The power argument (§2/§5): a migration moves far more bits
        than a remote access round trip."""
        assert cm.migration_bits() > 3 * cm.remote_access_bits(write=False)
        assert cm.migration_bits() > 3 * cm.remote_access_bits(write=True)

    def test_migration_cheaper_than_many_ras(self, cm):
        """...but a migration amortizes over long runs (§3)."""
        be = cm.break_even_run_length(0, 15)
        assert np.isfinite(be) and be > 1.0
        assert cm.migration[0, 15] < be * 1.5 * cm.remote_read[0, 15]

    def test_remote_write_request_carries_data(self, cm):
        cfg = cm.config
        # write request payload > read request payload; with a 128-bit
        # flit both still fit in the same flit count here, so compare bits
        assert cm.remote_access_bits(True) >= cm.remote_access_bits(False)


class TestOneFormula:
    """Scalar queries, matrices and traffic all charge the payloads of
    ``SystemConfig`` at ``NocConfig.zero_load_latency``."""

    @pytest.mark.parametrize("topo", [None, TorusTopology(4, 4)])
    def test_scalar_queries_equal_matrix_entries(self, topo):
        cm = CostModel(small_test_config(num_cores=16), topology=topo)
        for src in range(16):
            for dst in range(16):
                assert cm.migration_cost(src, dst) == cm.migration[src, dst]
                assert cm.remote_access_cost(src, dst, False) == cm.remote_read[src, dst]
                assert cm.remote_access_cost(src, dst, True) == cm.remote_write[src, dst]

    @pytest.mark.parametrize("write", [False, True])
    def test_round_trip_is_two_zero_load_legs(self, cm, write):
        cfg = cm.config
        noc = cfg.noc
        for dst in range(1, 16):
            h = cm.topology.hop(0, dst)
            assert cm.remote_access(write)[0, dst] == (
                2 * cfg.cost.remote_access_fixed
                + noc.zero_load_latency(h, cfg.ra_request_bits(write))
                + noc.zero_load_latency(h, cfg.ra_reply_bits(write))
            )
            assert cm.migration[0, dst] == cfg.cost.migration_fixed + noc.zero_load_latency(
                h, cfg.context.full_context_bits
            )
        assert cm.remote_access_bits(write) == noc.flit_bits * (
            noc.message_flits(cfg.ra_request_bits(write))
            + noc.message_flits(cfg.ra_reply_bits(write))
        )


class TestContextSizeScaling:
    def test_larger_context_larger_cost(self, cm):
        small = cm.migration_with_context(256)
        large = cm.migration_with_context(4096)
        off = ~np.eye(16, dtype=bool)
        assert (large[off] > small[off]).all()

    def test_stack_migration_between_ra_and_full(self, cm):
        """§4's point: a shallow stack context migrates much cheaper
        than a register-file context."""
        off = ~np.eye(16, dtype=bool)
        stack2 = cm.stack_migration(2)
        assert (stack2[off] < cm.migration[off]).all()

    def test_migration_bits_flit_quantized(self, cm):
        bits = cm.migration_bits()
        assert bits % cm.config.noc.flit_bits == 0
        assert bits >= cm.config.context.full_context_bits


class TestBreakEven:
    def test_zero_write_fraction_uses_reads(self, cm):
        be = cm.break_even_run_length(0, 3, write_fraction=0.0)
        expect = 2 * cm.migration[0, 3] / cm.remote_read[0, 3]
        assert be == pytest.approx(expect)

    def test_write_fraction_interpolates(self, cm):
        be_r = cm.break_even_run_length(0, 3, 0.0)
        be_w = cm.break_even_run_length(0, 3, 1.0)
        be_half = cm.break_even_run_length(0, 3, 0.5)
        assert min(be_r, be_w) <= be_half <= max(be_r, be_w)


def test_topology_core_count_mismatch_rejected():
    with pytest.raises(ConfigError):
        CostModel(small_test_config(num_cores=16), topology=Mesh2D(2, 2))
