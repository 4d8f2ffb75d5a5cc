"""Multi-context cores: native and guest execution slots.

Under EM² each core has one *native* context per thread that originated
there, plus a fixed number of *guest* contexts for visiting threads
(§2). A migration arriving at a core with no free guest context evicts
one resident guest, which travels back to its dedicated native context
on a separate virtual network — the native context is always available,
which is the root of the deadlock-freedom argument [10].

:class:`ContextFile` holds one core's slots and raises
:class:`~repro.util.errors.ProtocolError` on native-context violations
(e.g. a thread loaded into a native context it does not own). Guest
admission and victim choice live in
:meth:`~repro.core.machine.MigrationMachineBase._try_admit`, the only
code that knows which guests are evictable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ProtocolError


@dataclass
class ContextSlot:
    """One hardware execution slot."""

    thread: int | None = None
    since: float = 0.0  # occupancy start time (for LRU eviction)


@dataclass
class ContextFile:
    """Execution contexts of one core."""

    core: int
    native_threads: tuple[int, ...]  # threads whose native context lives here
    guest_slots: int
    _guests: list[ContextSlot] = field(default_factory=list)
    _native_home: dict[int, ContextSlot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.guest_slots < 1:
            raise ProtocolError("each core needs at least one guest context")
        self._guests = [ContextSlot() for _ in range(self.guest_slots)]
        self._native_home = {t: ContextSlot() for t in self.native_threads}

    # ------------------------------------------------------------------
    def is_native(self, thread: int) -> bool:
        return thread in self._native_home

    def resident(self, thread: int) -> bool:
        if self.is_native(thread):
            return self._native_home[thread].thread == thread
        return any(s.thread == thread for s in self._guests)

    def occupancy(self) -> int:
        n = sum(1 for s in self._native_home.values() if s.thread is not None)
        return n + sum(1 for s in self._guests if s.thread is not None)

    # ------------------------------------------------------------------
    def admit_native(self, thread: int, now: float) -> None:
        """Load ``thread`` into its native context (always succeeds)."""
        slot = self._native_home.get(thread)
        if slot is None:
            raise ProtocolError(
                f"thread {thread} has no native context at core {self.core}"
            )
        if slot.thread == thread:
            raise ProtocolError(f"thread {thread} already in its native context")
        slot.thread = thread
        slot.since = now

    def guest_slots_info(self) -> list[tuple[int, float]]:
        """(thread, occupancy-start) for each occupied guest slot."""
        return [(s.thread, s.since) for s in self._guests if s.thread is not None]

    def release(self, thread: int) -> None:
        """Unload ``thread`` (it is migrating away or finished)."""
        if self.is_native(thread) and self._native_home[thread].thread == thread:
            self._native_home[thread].thread = None
            return
        for slot in self._guests:
            if slot.thread == thread:
                slot.thread = None
                return
        raise ProtocolError(f"thread {thread} not resident at core {self.core}")

    def guest_threads(self) -> list[int]:
        return [s.thread for s in self._guests if s.thread is not None]


def build_context_files(
    num_cores: int,
    thread_native_core: list[int],
    guest_slots: int,
) -> list[ContextFile]:
    """One :class:`ContextFile` per core given each thread's native core."""
    natives: list[list[int]] = [[] for _ in range(num_cores)]
    for t, c in enumerate(thread_native_core):
        if not (0 <= c < num_cores):
            raise ProtocolError(f"thread {t} native core {c} out of range")
        natives[c].append(t)
    return [
        ContextFile(
            core=c,
            native_threads=tuple(natives[c]),
            guest_slots=guest_slots,
        )
        for c in range(num_cores)
    ]
