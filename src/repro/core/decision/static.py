"""Stateless decision schemes.

These bracket the design space: ``AlwaysMigrate`` is pure EM² (§2),
``NeverMigrate`` is the remote-access-only architecture of [15], and
``DistanceThreshold`` is the simplest plausible hardware scheme — the
migration's serialization cost is fixed, so short hops amortize it
fastest.
"""

from __future__ import annotations

import numpy as np

from repro.core.decision.base import Decision, DecisionScheme
from repro.registry import SCHEMES
from repro.util.errors import ConfigError
from repro.util.rng import as_generator


class AlwaysMigrate(DecisionScheme):
    """Pure EM²: every non-local access migrates to the home core."""

    name = "always-migrate"
    stateless = True

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        return Decision.MIGRATE

    def plan(self, table) -> np.ndarray | None:
        if not self._inherits(AlwaysMigrate, "decide"):
            return None
        return np.zeros_like(table.lengths)


class NeverMigrate(DecisionScheme):
    """Remote-access-only (Fensch & Cintra-style [15]): never migrate.

    The thread stays at its native core forever; every non-local word
    costs a round trip.
    """

    name = "never-migrate"
    stateless = True

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        return Decision.REMOTE

    def plan(self, table) -> np.ndarray | None:
        if not self._inherits(NeverMigrate, "decide"):
            return None
        return table.lengths


class NativeFirst(DecisionScheme):
    """Always migrate *home*; delegate the away decision to ``away``.

    Rationale (the scheme family of the follow-up EM² hardware work):
    a thread's private data dominates its accesses, so an access homed
    at the native core almost always starts a long local run — migrate
    back unconditionally. Accesses homed at *other* cores go to the
    ``away`` policy (default: remote access).

    Note the degenerate case, asserted in the tests: with
    ``away=NeverMigrate()`` the thread never leaves its native core,
    so the home rule never fires and the scheme *is* NeverMigrate.
    The composition earns its keep with any away policy that migrates
    (distance thresholds, history) — it guarantees the thread's private
    working set is always reached by migration, never by RA storms.

    The native core is latched at the first consultation: a thread can
    only move via a decision, so at first consult it is still at its
    native core. ``reset`` clears the latch for the next thread.
    """

    name = "native-first"

    def __init__(self, away: DecisionScheme | None = None) -> None:
        self.away = away if away is not None else NeverMigrate()
        self.native_core: int | None = None

    # the native-core latch is fixed after the first consult, so the
    # composition is consulted and observed as its away policy is
    stateless = property(lambda self: self.away.stateless)
    decides_per_access = property(lambda self: self.away.decides_per_access)
    observes_per_access = property(lambda self: self.away.observes_per_access)
    learns_runs = property(lambda self: self.away.learns_runs)

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self.native_core is None:
            self.native_core = current
        if home == self.native_core:
            return Decision.MIGRATE
        return self.away.decide(current, home, addr, write)

    def plan(self, table) -> np.ndarray | None:
        """The away policy's plan, with every run homed at the thread's
        start core migrating at its first access."""
        if not self._inherits(NativeFirst, "decide", "observe_run"):
            return None
        away = self.away.plan(table)
        if away is None:
            return None
        return np.where(table.homes == table.start[table.thread], 0, away)

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        self.away.observe(current, home, addr, write, decision)

    def observe_run(self, home: int, length: int, addr: int) -> None:
        self.away.observe_run(home, length, addr)

    def reset(self) -> None:
        self.native_core = None
        self.away.reset()

    def clone(self) -> "NativeFirst":
        return type(self)(away=self.away.clone())  # fresh latch per thread


class DistanceThreshold(DecisionScheme):
    """Migrate when the home is within ``threshold`` hops, else RA.

    Requires the topology's distance matrix (a small core-local ROM in
    hardware). ``threshold=inf`` degenerates to AlwaysMigrate,
    ``threshold=-1`` to NeverMigrate.
    """

    name = "distance-threshold"
    stateless = True

    def __init__(self, distance_matrix: np.ndarray, threshold: float) -> None:
        self.distance_matrix = np.asarray(distance_matrix)
        if self.distance_matrix.ndim != 2 or (
            self.distance_matrix.shape[0] != self.distance_matrix.shape[1]
        ):
            raise ConfigError("distance_matrix must be square")
        self.threshold = threshold

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self.distance_matrix[current, home] <= self.threshold:
            return Decision.MIGRATE
        return Decision.REMOTE

    def clone(self) -> "DistanceThreshold":
        return DistanceThreshold(self.distance_matrix, self.threshold)


class RandomScheme(DecisionScheme):
    """Migrate with probability ``p`` — the sanity baseline every real
    scheme must beat.

    ``seed`` must be an int: ``reset`` and ``clone`` replay one stream
    per thread, so a spec's row is the same in every run. The generator
    is made at the first draw, and the uniforms are drawn in blocks;
    ``Generator.random(n)`` yields the same stream as ``n`` scalar
    draws, so the k-th consult sees the k-th uniform.
    """

    name = "random"
    decides_per_access = True

    _BLOCK = 1024

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not (0.0 <= p <= 1.0):
            raise ConfigError("p must be in [0, 1]")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ConfigError(
                f"random scheme seed must be an int, got {seed!r}: an unseeded "
                "stream would give a different row in every run"
            )
        self.p = p
        self.seed = int(seed)
        self.reset()

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if not self._draws:
            if self._rng is None:
                self._rng = as_generator(self.seed)
            self._draws = self._rng.random(self._BLOCK).tolist()[::-1]
        return Decision.MIGRATE if self._draws.pop() < self.p else Decision.REMOTE

    def reset(self) -> None:
        self._rng = None
        self._draws = []

    def clone(self) -> "RandomScheme":
        return RandomScheme(self.p, self.seed)


# ------------------------------------------------------------- registry
# Factories take the experiment's CostModel (topology/config context a
# core-local hardware unit would be provisioned with) plus SchemeSpec
# params, and return a fresh scheme instance.
@SCHEMES.register("always-migrate", "pure EM2: migrate on every non-local access")
def _make_always_migrate(cost):
    return AlwaysMigrate()


@SCHEMES.register("never-migrate", "remote-access-only: never migrate")
def _make_never_migrate(cost):
    return NeverMigrate()


@SCHEMES.register("distance-1", "migrate when the home is within 1 hop")
def _make_distance_1(cost, threshold: float = 1):
    return DistanceThreshold(cost.topology.distance_matrix, threshold)


@SCHEMES.register("distance-2", "migrate when the home is within 2 hops")
def _make_distance_2(cost, threshold: float = 2):
    return DistanceThreshold(cost.topology.distance_matrix, threshold)


@SCHEMES.register("random", "migrate with probability p (sanity baseline)")
def _make_random(cost, p: float = 0.5, seed: int = 0):
    return RandomScheme(p=p, seed=seed)


@SCHEMES.register("native-first", "always migrate home; RA when homed away")
def _make_native_first(cost):
    return NativeFirst()
