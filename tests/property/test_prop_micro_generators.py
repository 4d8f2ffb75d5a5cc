"""The column-emitting ``hotspot`` and ``pingpong`` generators against
their per-access loops.

The oracles below are the loops each generator ran before it emitted
whole columns: one ``TraceBuilder.emit`` or ``emit_one`` per access or
burst, with size-1 array draws. Each rewrite must give the same trace
(same digest) and leave its RNG in the same final state, so any draw
that reorders or changes the PCG64 stream fails here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.synthetic.base import TraceBuilder
from repro.trace.synthetic.micro import HotspotGenerator, PingPongGenerator


class LoopHotspot(HotspotGenerator):
    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        if thread == 0:
            b.emit(
                self.hot_base + np.arange(self.hot_words, dtype=np.int64),
                writes=1,
                icounts=1,
            )
        priv = self.space.private_base(thread)
        emitted = 0
        while emitted < self.apt:
            if self.rng.random() < self.hot_fraction:
                offs = self.rng.integers(0, self.hot_words, self.burst, dtype=np.int64)
                wr = (self.rng.random(self.burst) < 0.5).astype(np.uint8)
                b.emit(self.hot_base + offs, writes=wr, icounts=3)
                emitted += self.burst
            else:
                off = int(self.rng.integers(0, 1024))
                b.emit_one(priv + off, write=self.rng.random() < 0.3, icount=3)
                emitted += 1


class LoopPingPong(PingPongGenerator):
    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        pair = thread // 2
        base = self.buf_base[pair]
        priv = self.space.private_base(thread)
        if thread % 2 == 0:
            b.emit(
                base + np.arange(self.buffer_words, dtype=np.int64), writes=1, icounts=1
            )
            for r in range(self.rounds):
                offs = np.arange(0, min(self.buffer_words, 8), dtype=np.int64)
                b.emit(base + offs, writes=1, icounts=2)
        else:
            for r in range(self.rounds):
                offs = (r + np.arange(self.run, dtype=np.int64)) % self.buffer_words
                b.emit(base + offs, writes=0, icounts=2)
                b.emit_one(priv + (r % 64), write=True, icount=2)


def _same(new, oracle) -> None:
    a, b = new.generate(), oracle.generate()
    assert a.digest() == b.digest()
    assert [t.size for t in a.threads] == [t.size for t in b.threads]
    assert new.rng.bit_generator.state == oracle.rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    threads=st.integers(1, 6),
    accesses=st.integers(1, 120),
    # non-powers of two have a nonzero Lemire rejection threshold in `integers`
    hot_words=st.sampled_from([1, 2, 3, 7, 16, 17, 100, 1000, 4096, 65537]),
    hot_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]),
    burst=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_hotspot_matches_per_access_loop(threads, accesses, hot_words, hot_fraction, burst, seed):
    params = dict(
        num_threads=threads,
        accesses_per_thread=accesses,
        hot_words=hot_words,
        hot_fraction=hot_fraction,
        burst=burst,
        seed=seed,
    )
    _same(HotspotGenerator(**params), LoopHotspot(**params))


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.integers(1, 4),
    rounds=st.integers(1, 150),
    buffer_words=st.integers(1, 100),
    run=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_pingpong_matches_per_access_loop(pairs, rounds, buffer_words, run, seed):
    params = dict(
        num_threads=2 * pairs, rounds=rounds, buffer_words=buffer_words, run=run, seed=seed
    )
    _same(PingPongGenerator(**params), LoopPingPong(**params))


def test_hotspot_matches_through_lemire_rejections():
    """``integers(0, n)`` rejects a 32-bit draw with probability about
    ``(2**32 % n) / 2**32``: 2.4e-4 for ``n = 2**20 + 1``, so 20,000 hot
    offsets take several rejections, and each shifts every later draw.
    Without one, each 16-access burst would advance the PCG64 stream
    by exactly 25 steps (1 + 16/2 + 16); the stream here advances
    further, and the trace still matches the loop's."""
    params = dict(num_threads=1, accesses_per_thread=20_000, hot_words=2**20 + 1,
                  hot_fraction=1.0, burst=16, seed=5)
    new = HotspotGenerator(**params)
    _same(new, LoopHotspot(**params))
    unrejected = np.random.default_rng(5).bit_generator
    unrejected.advance(25 * 20_000 // 16)
    assert new.rng.bit_generator.state != unrejected.state
