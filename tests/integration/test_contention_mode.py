"""Behavioral machines under the link-contention NoC model.

The contention model must preserve all protocol invariants (it only
changes timing) and can only slow things down.
"""

import pytest

from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.decision import NeverMigrate
from repro.core.em2 import EM2Machine
from repro.core.em2ra import EM2RAMachine
from repro.core.remote_access import RemoteAccessMachine
from repro.faults.injector import FaultInjector
from repro.placement import first_touch
from repro.runner import build_scheme
from repro.spec import FaultSpec, SchemeSpec
from repro.trace.synthetic import make_workload
from repro.verify import full_machine_audit


def _cfgs():
    return (
        small_test_config(num_cores=8, guest_contexts=2,
                          noc=NocConfig(contention=False)),
        small_test_config(num_cores=8, guest_contexts=2,
                          noc=NocConfig(contention=True)),
    )


@pytest.fixture(scope="module")
def hotspot():
    return make_workload("hotspot", num_threads=8, accesses_per_thread=64,
                         hot_fraction=0.5, seed=1)


class TestContentionPreservesProtocol:
    def test_em2_audits_clean_under_contention(self, hotspot):
        _, cfg = _cfgs()
        pl = first_touch(hotspot, 8)
        m = EM2Machine(hotspot, pl, cfg)
        m.run()
        full_machine_audit(m)

    def test_em2ra_audits_clean_under_contention(self, hotspot):
        _, cfg = _cfgs()
        pl = first_touch(hotspot, 8)
        m = EM2RAMachine(hotspot, pl, cfg, scheme=NeverMigrate())
        m.run()
        full_machine_audit(m)

    def test_protocol_counts_identical_without_evictions(self, hotspot):
        """With ample guest contexts (no evictions) contention changes
        *when*, never *what*: migrations and traffic are identical.
        (Under context pressure, timing shifts arrival order, which
        changes eviction victims and hence re-migration counts — that
        is protocol-correct behaviour, covered by the audit tests.)"""
        results = []
        pl = first_touch(hotspot, 8)
        for contention in (False, True):
            cfg = small_test_config(num_cores=8, guest_contexts=8,
                                    noc=NocConfig(contention=contention))
            m = EM2Machine(hotspot, pl, cfg)
            m.run()
            assert m.results()["evictions"] == 0
            results.append(m.results())
        a, b = results
        for key in ("migrations", "local_accesses", "flit_hops"):
            assert a[key] == b[key]

    def test_contention_never_faster(self, hotspot):
        pl = first_touch(hotspot, 8)
        times = []
        for cfg in _cfgs():
            m = EM2Machine(hotspot, pl, cfg)
            m.run()
            times.append(m.completion_time)
        assert times[1] >= times[0] - 1e-9

    def test_queueing_latency_recorded(self, hotspot):
        _, cfg = _cfgs()
        pl = first_touch(hotspot, 8)
        m = EM2Machine(hotspot, pl, cfg)
        m.run()
        # converging migrations on the hotspot must queue somewhere
        assert m.network.stats.latency("queueing").count > 0


class TestContendedLegsMatchQuietFaultPlane:
    """Fault-free runs send every leg — migration, eviction,
    remote-access request and reply — from a departure event bound
    straight to ``Network.send``; a fault plane at all-zero rates
    sends the same legs through the retry protocol, which consults the
    injector on every leg. Both must give the same results, apart from
    the fault plane's own keys."""

    FAULT_KEYS = ("retries", "drops_survived", "dup_ignored", "recovery_stall_cycles")

    @pytest.mark.parametrize("contention", [True, False])
    @pytest.mark.parametrize("machine", ["em2", "em2ra", "ra-only"])
    def test_fault_free_equals_zero_rate_plane(self, hotspot, machine, contention):
        quiet_cfg, contended_cfg = _cfgs()
        cfg = contended_cfg if contention else quiet_cfg
        pl = first_touch(hotspot, 8)

        def results(faults):
            kw = dict(faults=faults, fast_path=False)
            if machine == "em2":
                m = EM2Machine(hotspot, pl, cfg, **kw)
            elif machine == "em2ra":
                scheme = build_scheme(SchemeSpec(name="history"), CostModel(cfg))
                m = EM2RAMachine(hotspot, pl, cfg, scheme, **kw)
            else:
                m = RemoteAccessMachine(hotspot, pl, cfg, **kw)
            m.run()
            if contention:
                assert m.network.stats.latency("queueing").count > 0
            return m.results()

        quiet = results(FaultInjector(FaultSpec(name="iid", params={}, seed=0)))
        assert quiet["faults.total"] == 0 and quiet["retries"] == 0
        quiet = {
            k: v for k, v in quiet.items()
            if k not in self.FAULT_KEYS and not k.startswith("faults.")
        }
        plain = results(None)
        assert plain == quiet
        legs = plain["remote_accesses"] if machine != "em2" else plain["migrations"]
        assert legs > 0
