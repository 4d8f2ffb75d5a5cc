"""Property-based tests: engine, topology, caches, stack cache."""

from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.cache.sram import CacheArray, EvictedLine, TileCacheStore
from repro.arch.config import CacheConfig
from repro.arch.topology import Mesh2D, TorusTopology
from repro.sim.engine import Engine
from repro.stackmachine.stack_cache import StackCache


# ---------------------------------------------------------------- engine
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time(delays):
    eng = Engine()
    times = []
    for d in delays:
        eng.schedule(d, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
    st.sets(st.integers(min_value=0, max_value=29)),
)
def test_engine_cancellation_exact(delays, cancel_idx):
    eng = Engine()
    fired = []
    events = [eng.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    for i in cancel_idx:
        if i < len(events):
            events[i].cancel()
    eng.run()
    expected = {i for i in range(len(delays))} - {i for i in cancel_idx if i < len(delays)}
    assert set(fired) == expected


# ---------------------------------------------------------------- topology
mesh_dims = st.tuples(st.integers(1, 8), st.integers(1, 8))


@given(mesh_dims, st.data())
def test_mesh_triangle_inequality(dims, data):
    w, h = dims
    m = Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c)


@given(mesh_dims, st.data())
def test_mesh_route_valid(dims, data):
    w, h = dims
    m = Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    path = m.route(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == m.distance(a, b) + 1
    for u, v in zip(path, path[1:]):
        assert m.distance(u, v) == 1


@given(mesh_dims, st.data())
def test_torus_no_longer_than_mesh(dims, data):
    w, h = dims
    t, m = TorusTopology(w, h), Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    assert t.distance(a, b) <= m.distance(a, b)
    assert t.distance(a, b) == t.distance(b, a)


# ---------------------------------------------------------------- caches
@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2047), st.booleans()), max_size=300))
def test_cache_never_exceeds_capacity_and_tracks_residency(ops):
    cfg = CacheConfig(size_bytes=512, line_bytes=64, associativity=2)
    cache = CacheArray(cfg)
    resident: dict[int, bool] = {}  # line -> present (reference model)
    for addr, _w in ops:
        line = addr // 64
        hit = cache.lookup(addr) is not None
        assert hit == resident.get(line, False)
        if not hit:
            victim = cache.fill(addr)
            resident[line] = True
            if victim is not None:
                si = cache.set_index(addr)
                vline = victim.tag * cfg.num_sets + si
                resident[vline] = False
        assert cache.occupancy() <= cfg.num_lines
    assert cache.occupancy() == sum(resident.values())


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["lookup", "read_fill", "write_fill", "invalidate"]),
            st.integers(0, 1023),  # 16 lines: 4 per set compete for 2 ways
            st.integers(0, 3),
        ),
        max_size=300,
    )
)
# a read refill keeps a dirty line dirty; a full set evicts the LRU line
@example([("write_fill", 0, 1), ("read_fill", 0, 2), ("invalidate", 0, 0)])
@example([("read_fill", 0, 0), ("read_fill", 256, 0), ("lookup", 0, 0),
          ("write_fill", 512, 1), ("read_fill", 768, 0)])
def test_store_backed_array_is_true_lru(ops):
    """A store-backed array (a row view of the pooled columns, as the
    machines build it) against a per-set ``OrderedDict`` LRU: every
    hit, every filled and evicted line's tag, dirty bit and state, and
    the counters agree. Invalidates leave holes that later fills take."""
    cfg = CacheConfig(size_bytes=512, line_bytes=64, associativity=2)
    store = TileCacheStore(2, cfg)
    cache = CacheArray(cfg, store=store, core=1)
    sets = [OrderedDict() for _ in range(cfg.num_sets)]  # tag -> (dirty, state)
    hits = misses = evictions = writebacks = 0
    for op, addr, state in ops:
        line = addr // 64
        ref = sets[line % cfg.num_sets]
        tag = line // cfg.num_sets
        if op == "lookup":
            hit = tag in ref
            assert (cache.lookup(addr) is not None) == hit
            if hit:
                ref.move_to_end(tag)
                hits += 1
            else:
                misses += 1
        elif op == "invalidate":
            want = EvictedLine(tag, *ref.pop(tag)) if tag in ref else None
            assert cache.invalidate(addr) == want
        else:
            write = op == "write_fill"
            dirty = write
            expect = None
            if tag in ref:  # refill in place: dirty is sticky
                dirty = write or ref[tag][0]
            elif len(ref) == cfg.associativity:
                vtag, (vdirty, vstate) = ref.popitem(last=False)
                expect = EvictedLine(vtag, vdirty, vstate)
                evictions += 1
                writebacks += vdirty
            assert cache.fill(addr, dirty=write, state=state) == expect
            ref[tag] = (dirty, state)
            ref.move_to_end(tag)
            slot = cache.probe(addr)
            assert (bool(cache.dirty[slot]), int(cache.state[slot])) == ref[tag]
    assert (cache.hits, cache.misses) == (hits, misses)
    assert (cache.evictions, cache.writebacks) == (evictions, writebacks)
    assert sorted(cache.resident_addrs()) == sorted(
        (tag * cfg.num_sets + si) * 64 for si, ref in enumerate(sets) for tag in ref
    )
    assert (store.tags[0] == -1).all()  # the other core's row is untouched


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["push", "pop", "peek"]), max_size=200))
def test_stack_cache_equals_plain_list(ops):
    """StackCache with spills must behave exactly like an unbounded list."""
    sc = StackCache(4)
    ref: list[int] = []
    counter = 0
    for op in ops:
        if op == "push":
            sc.push(counter)
            ref.append(counter)
            counter += 1
        elif op == "pop" and ref:
            assert sc.pop() == ref.pop()
        elif op == "peek" and ref:
            assert sc.peek(0) == ref[-1]
    assert sc.snapshot() == ref
    assert sc.depth == len(ref)
