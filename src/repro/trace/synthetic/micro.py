"""Micro-workloads with analytically known behaviour.

Used by unit tests and the decision-scheme benchmarks: each generator's
migration/RA trade-off can be computed by hand, so they pin down the
simulators and the DP independent of the SPLASH-like generators.

Every generator emits each thread's accesses as whole columns:
``uniform`` and ``private`` from array draws, ``pingpong`` with no
draws at all. ``hotspot`` cannot draw whole columns: a uniform picks
hot or private for each access (or burst), and the offsets and write
flags drawn next depend on that pick, so each value's place in the
PCG64 stream depends on the picks before it. It draws one scalar per
value in that order into lists, emitted once per thread. Drawing each
kind up front would reorder the stream and change every ``hotspot``
trace; a scalar ``integers`` call costs about a third of the size-1
array draw it replaces.
"""

from __future__ import annotations

import numpy as np

from repro.trace.synthetic.base import TraceBuilder, WorkloadGenerator
from repro.registry import WORKLOADS
from repro.util.errors import ConfigError


@WORKLOADS.register("uniform")
class UniformRandomGenerator(WorkloadGenerator):
    """Every access uniform over a shared region: worst-case locality.

    With striped placement, each access is remote with probability
    (P-1)/P and homes are i.i.d. uniform — run lengths are geometric
    with mean ≈ 1/(1-1/P), i.e. essentially all runs have length 1.
    """

    name = "uniform"

    def __init__(
        self,
        num_threads: int = 16,
        accesses_per_thread: int = 2048,
        region_words: int = 1 << 14,
        write_fraction: float = 0.3,
        seed: int | None = 0,
    ) -> None:
        super().__init__(num_threads=num_threads, seed=seed)
        if accesses_per_thread <= 0 or region_words <= 0:
            raise ConfigError("accesses_per_thread and region_words must be positive")
        if not (0.0 <= write_fraction <= 1.0):
            raise ConfigError("write_fraction must be in [0, 1]")
        self.apt = accesses_per_thread
        self.region_words = region_words
        self.write_fraction = write_fraction
        self.base = self.space.shared_region("uniform", region_words)

    def params(self) -> dict:
        return {
            "num_threads": self.num_threads,
            "accesses_per_thread": self.apt,
            "region_words": self.region_words,
            "write_fraction": self.write_fraction,
        }

    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        offs = self.rng.integers(0, self.region_words, self.apt, dtype=np.int64)
        writes = (self.rng.random(self.apt) < self.write_fraction).astype(np.uint8)
        b.emit(self.base + offs, writes=writes, icounts=2)


@WORKLOADS.register("hotspot")
class HotspotGenerator(WorkloadGenerator):
    """A hot shared block plus private background traffic.

    ``hot_fraction`` of accesses go to a tiny shared region (homed at
    one core under first-touch by thread 0) — the canonical directory/
    home-core hotspot. Run lengths at the hotspot grow with
    ``burst`` (consecutive hot accesses emitted back-to-back).
    """

    name = "hotspot"

    def __init__(
        self,
        num_threads: int = 16,
        accesses_per_thread: int = 2048,
        hot_words: int = 16,
        hot_fraction: float = 0.25,
        burst: int = 1,
        seed: int | None = 0,
    ) -> None:
        super().__init__(num_threads=num_threads, seed=seed)
        if not (0.0 <= hot_fraction <= 1.0):
            raise ConfigError("hot_fraction must be in [0, 1]")
        if burst <= 0 or hot_words <= 0 or accesses_per_thread <= 0:
            raise ConfigError("burst, hot_words, accesses_per_thread must be positive")
        self.apt = accesses_per_thread
        self.hot_words = hot_words
        self.hot_fraction = hot_fraction
        self.burst = burst
        self.hot_base = self.space.shared_region("hot", hot_words)

    def params(self) -> dict:
        return {
            "num_threads": self.num_threads,
            "accesses_per_thread": self.apt,
            "hot_words": self.hot_words,
            "hot_fraction": self.hot_fraction,
            "burst": self.burst,
        }

    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        if thread == 0:
            # first-touch the hot region so it homes at core 0
            b.emit(
                self.hot_base + np.arange(self.hot_words, dtype=np.int64),
                writes=1,
                icounts=1,
            )
        rand, randint = self.rng.random, self.rng.integers
        hot, hot_words, burst = self.hot_base, self.hot_words, self.burst
        priv = self.space.private_base(thread)
        addrs: list[int] = []
        writes: list[bool] = []
        while len(addrs) < self.apt:
            if rand() < self.hot_fraction:
                addrs += [hot + randint(0, hot_words) for _ in range(burst)]
                writes += [rand() < 0.5 for _ in range(burst)]
            else:
                addrs.append(priv + randint(0, 1024))
                writes.append(rand() < 0.3)
        b.emit(addrs, writes=np.array(writes, dtype=np.uint8), icounts=3)


@WORKLOADS.register("private")
class PrivateOnlyGenerator(WorkloadGenerator):
    """Every access private: zero migrations under first-touch.

    The null test — any architecture charging remote traffic here is
    buggy.
    """

    name = "private"

    def __init__(
        self,
        num_threads: int = 16,
        accesses_per_thread: int = 1024,
        working_set: int = 512,
        seed: int | None = 0,
    ) -> None:
        super().__init__(num_threads=num_threads, seed=seed)
        if accesses_per_thread <= 0 or working_set <= 0:
            raise ConfigError("accesses_per_thread and working_set must be positive")
        self.apt = accesses_per_thread
        self.working_set = working_set

    def params(self) -> dict:
        return {
            "num_threads": self.num_threads,
            "accesses_per_thread": self.apt,
            "working_set": self.working_set,
        }

    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        priv = self.space.private_base(thread)
        offs = self.rng.integers(0, self.working_set, self.apt, dtype=np.int64)
        writes = (self.rng.random(self.apt) < 0.3).astype(np.uint8)
        b.emit(priv + offs, writes=writes, icounts=2)


@WORKLOADS.register("pingpong")
class PingPongGenerator(WorkloadGenerator):
    """Producer-consumer pairs bouncing on a shared buffer.

    Threads pair up (2i, 2i+1); each pair shares one buffer homed at
    the even thread. The even thread accesses it in long runs (local);
    the odd thread's accesses alternate buffer/private, so all its
    buffer runs have length ``run`` — a dial for the migration-vs-RA
    crossover (run=1 favours RA; large run favours migration).
    """

    name = "pingpong"

    def __init__(
        self,
        num_threads: int = 16,
        rounds: int = 256,
        buffer_words: int = 64,
        run: int = 1,
        seed: int | None = 0,
    ) -> None:
        super().__init__(num_threads=num_threads, seed=seed)
        if num_threads % 2:
            raise ConfigError("pingpong needs an even number of threads")
        if rounds <= 0 or buffer_words <= 0 or run <= 0:
            raise ConfigError("rounds, buffer_words, run must be positive")
        self.rounds = rounds
        self.buffer_words = buffer_words
        self.run = run
        self.buf_base = [
            self.space.shared_region(f"buf{i}", buffer_words)
            for i in range(num_threads // 2)
        ]

    def params(self) -> dict:
        return {
            "num_threads": self.num_threads,
            "rounds": self.rounds,
            "buffer_words": self.buffer_words,
            "run": self.run,
        }

    def _thread_trace(self, thread: int, b: TraceBuilder) -> None:
        base = self.buf_base[thread // 2]
        if thread % 2 == 0:
            # producer: first-touch the buffer, then long local write runs
            b.emit(
                base + np.arange(self.buffer_words, dtype=np.int64), writes=1, icounts=1
            )
            offs = np.arange(min(self.buffer_words, 8), dtype=np.int64)
            b.emit(np.tile(base + offs, self.rounds), writes=1, icounts=2)
        else:
            # consumer: `run` buffer reads then a private write, repeated
            rounds = np.arange(self.rounds, dtype=np.int64)
            cols = np.empty((self.rounds, self.run + 1), dtype=np.int64)
            cols[:, :-1] = base + (rounds[:, None] + np.arange(self.run)) % self.buffer_words
            cols[:, -1] = self.space.private_base(thread) + rounds % 64
            writes = np.zeros(cols.shape, dtype=np.uint8)
            writes[:, -1] = 1
            b.emit(cols.ravel(), writes=writes.ravel(), icounts=2)
