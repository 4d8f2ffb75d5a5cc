"""Property test: the walk over home runs equals the per-access walk.

:func:`repro.core.evaluation.evaluate_scheme` consults a scheme a few
times per home run and charges whole runs; the oracle,
:func:`~repro.core.evaluation.evaluate_thread`, decides and observes
every access. On random multi-thread traces they must agree exactly on
every statistic and on each thread's cost, for every registered scheme
and for the test schemes whose decisions turn on the write flag or on a
predictor table small enough for homes to alias.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.decision import HistoryRunLength
from repro.core.evaluation import evaluate_scheme, evaluate_thread
from repro.placement import first_touch, striped
from repro.registry import SCHEMES
from repro.trace.events import MultiTrace, make_trace
from tests.unit.test_evaluation import _ReadMigrates, _RWGatedHistory, _WriteMigrates

#: 16 cores on links narrow enough that remote reads and writes differ
CM = {
    4: CostModel(small_test_config(num_cores=4)),
    16: CostModel(small_test_config(num_cores=16, noc=NocConfig(flit_bits=32))),
}

EXTRA = {
    "write-migrates": lambda cm: _WriteMigrates(),
    "read-migrates": lambda cm: _ReadMigrates(),
    "rw-gated": lambda cm: _RWGatedHistory(1.5, 3.0),
    "rw-gated-aliased": lambda cm: _RWGatedHistory(3.0, 1.5, table_size=2),
    "history-aliased": lambda cm: HistoryRunLength(2.0, table_size=2),
}

FACTORIES = {**{name: SCHEMES.get(name) for name in SCHEMES.names()}, **EXTRA}


@st.composite
def traces(draw):
    """1-3 threads of runs of consecutive words, so a home run mixes
    addresses, with random write flags."""
    threads = []
    for _ in range(draw(st.integers(1, 3))):
        runs = draw(st.lists(st.tuples(st.integers(0, 95), st.integers(1, 9)), max_size=24))
        addrs = [a + i for a, n in runs for i in range(n)]
        writes = draw(st.lists(st.booleans(), min_size=len(addrs), max_size=len(addrs)))
        threads.append(make_trace(addrs, writes=writes))
    natives = draw(st.lists(st.integers(0, 40), min_size=len(threads), max_size=len(threads)))
    return MultiTrace(threads=threads, thread_native_core=natives)


def _per_access(trace, placement, scheme, cm):
    """The oracle: every thread on a fresh clone, access by access."""
    rows = []
    for t, tr in enumerate(trace.threads):
        per_thread = scheme.clone()
        per_thread.reset()
        start = trace.thread_native_core[t] % cm.config.num_cores
        homes = placement.home_of(tr["addr"])
        rows.append(evaluate_thread(homes, tr["write"], start, per_thread, cm, addrs=tr["addr"]))
    return rows


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=30, deadline=None)
@given(
    trace=traces(),
    cores=st.sampled_from([4, 16]),
    first=st.booleans(),
    block=st.sampled_from([1, 4]),
)
def test_walk_equals_per_access_walk(name, trace, cores, first, block):
    cm = CM[cores]
    placement = first_touch(trace, cores, block) if first else striped(cores, block)
    scheme = FACTORIES[name](cm)
    r = evaluate_scheme(trace, placement, scheme, cm)
    oracle = _per_access(trace, placement, scheme, cm)
    assert r.per_thread_cost == [o[0] for o in oracle]
    assert r.total_cost == sum(o[0] for o in oracle)
    for i, stat in enumerate(("migrations", "remote_accesses", "local_accesses", "traffic_bits")):
        assert getattr(r, stat) == sum(o[i + 1] for o in oracle), stat
    assert r.total_accesses == sum(tr.size for tr in trace.threads)
    assert np.isfinite(r.total_cost)
