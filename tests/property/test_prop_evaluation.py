"""Property tests: both routes of the scheme evaluator equal the
per-access walk.

:func:`repro.core.evaluation.evaluate_scheme` scores a scheme with a
plan for all threads at once, and walks any other scheme a home run at
a time, consulting it a few times per run; the oracle,
:func:`~repro.core.evaluation.evaluate_thread`, decides and observes
every access. On random multi-thread traces they must agree exactly on
every statistic and on each thread's cost: the walk for every
registered scheme and for the test schemes whose decisions turn on the
write flag or on a predictor table small enough for homes to alias; the
plan for every scheme that has one, against the walk with the plan
hidden as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import NocConfig, small_test_config
from repro.core.costs import CostModel
from repro.core.decision import AddressIndexedHistory, HistoryRunLength, NativeFirst
from repro.core.evaluation import evaluate_scheme, evaluate_thread, run_table
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


#: every scheme with a plan: the registered ones, and history variants
#: whose tables alias, never or always migrate, or start out migrating
PLANNED = {
    **{
        name: SCHEMES.get(name)
        for name in ("always-migrate", "never-migrate", "native-first", "history", "addr-history")
    },
    "history-aliased": lambda cm: HistoryRunLength(2.0, table_size=2),
    "history-threshold-0": lambda cm: HistoryRunLength(0.0),
    "history-threshold-1e9": lambda cm: HistoryRunLength(1e9),
    "history-eager": lambda cm: HistoryRunLength(2.0, initial_prediction=3.0),
    "addr-history-words": lambda cm: AddressIndexedHistory(2.0, table_size=2, block_words=1),
    "native-first-history": lambda cm: NativeFirst(away=HistoryRunLength(2.0)),
}


@st.composite
def planned_traces(draw):
    """1-4 threads, each empty, one run (one word, repeated), or runs of
    consecutive words; native cores up to 40, at least P for some."""
    threads = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["empty", "one-run", "runs"]))
        if kind == "empty":
            addrs = []
        elif kind == "one-run":
            addrs = [draw(st.integers(0, 95))] * draw(st.integers(1, 9))
        else:
            runs = draw(
                st.lists(st.tuples(st.integers(0, 95), st.integers(1, 9)), min_size=1, max_size=24)
            )
            addrs = [a + i for a, n in runs for i in range(n)]
        writes = draw(st.lists(st.booleans(), min_size=len(addrs), max_size=len(addrs)))
        threads.append(make_trace(addrs, writes=writes))
    natives = draw(st.lists(st.integers(0, 40), min_size=len(threads), max_size=len(threads)))
    return MultiTrace(threads=threads, thread_native_core=natives)


@pytest.mark.parametrize("name", PLANNED)
@settings(max_examples=40, deadline=None)
@given(
    trace=planned_traces(),
    cores=st.sampled_from([4, 16]),
    first=st.booleans(),
    block=st.sampled_from([1, 4]),
)
def test_plan_equals_walk(name, trace, cores, first, block):
    """A scheme scored from its plan gives the walk's result, with the
    plan hidden, and the per-access oracle's, on every statistic and on
    every thread's cost. The first run of the first thread that has
    accesses is local under first-touch."""
    cm = CM[cores]
    placement = first_touch(trace, cores, block) if first else striped(cores, block)
    scheme = PLANNED[name](cm)
    assert scheme.plan(run_table(trace, placement)) is not None
    planned = evaluate_scheme(trace, placement, scheme, cm)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(type(scheme), "plan", lambda self, table: None)
        walked = evaluate_scheme(trace, placement, scheme, cm)
    assert planned == walked
    oracle = _per_access(trace, placement, scheme, cm)
    assert planned.per_thread_cost == [o[0] for o in oracle]
    for i, stat in enumerate(("migrations", "remote_accesses", "local_accesses", "traffic_bits")):
        assert getattr(planned, stat) == sum(o[i + 1] for o in oracle), stat
