"""Decision-scheme interface.

A scheme is consulted once per *non-local* access (the home differs
from the thread's current core) and answers MIGRATE or REMOTE. It sees
only information a per-core hardware unit could have: the current
core, the home core, the address, whether the access writes, and its
own internal state (updated via :meth:`DecisionScheme.observe`).

Schemes are sequential objects: the detailed machines drive them
access by access, mirroring the O(N) "cost of a specific decision"
procedure in §3. The analytical evaluator
(:mod:`repro.core.evaluation`) walks a trace one *home run* at a time
instead, and consults a scheme as rarely as the properties it declares
here allow: :attr:`~DecisionScheme.stateless`,
:attr:`~DecisionScheme.decides_per_access` and a per-run form of
``observe`` (:meth:`~DecisionScheme.observe_run`).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod


class Decision(enum.IntEnum):
    LOCAL = 0  # home == current core; no decision needed
    MIGRATE = 1
    REMOTE = 2


class DecisionScheme(ABC):
    """Stateful per-thread decision unit."""

    name = "abstract"

    #: True for schemes whose ``decide`` is, within one thread, a pure
    #: function of (current, home, write) — no address sensitivity, no
    #: history, no randomness — and whose ``observe`` is a no-op. Only
    #: within one thread: ``native-first`` is stateless, yet its
    #: ``decide`` also reads the native core it latched at the thread's
    #: first consult, so one pair can be decided differently in two
    #: threads. The evaluator therefore keeps one (current, home) table
    #: per thread and consults such a scheme once per pair of a thread.
    stateless = False

    #: True for schemes whose ``decide`` reads the address or draws a
    #: random number, so two accesses of one run can be decided
    #: differently though their current core, home and write flag agree.
    #: The evaluator consults such a scheme access by access inside the
    #: runs homed away from the thread; any other scheme a few times per
    #: run.
    decides_per_access = False

    @abstractmethod
    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        """Return MIGRATE or REMOTE for a non-local access."""

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        """Called after every access (including local ones) so history
        schemes can update their predictors. Default: no state."""

    def observe_run(self, home: int, length: int, addr: int) -> None:
        """The per-run form of :meth:`observe`: a run of ``length``
        accesses homed at ``home``, the first at ``addr``, begins.

        A run is a maximal stretch of accesses homed at one core. This
        call stands for the ``observe`` calls of the run's accesses, so
        it fits a scheme whose ``observe`` changes nothing ``decide``
        reads between one run's first access and the next run's. The
        evaluator calls it after deciding the run's first access and
        before deciding the rest. A scheme that overrides ``observe``
        without it is walked access by access
        (:attr:`observes_per_access`). Default: no state."""

    @property
    def observes_per_access(self) -> bool:
        """True when ``observe`` is overridden with no per-run form."""
        cls = type(self)
        return (
            cls.observe is not DecisionScheme.observe
            and cls.observe_run is DecisionScheme.observe_run
        )

    def reset(self) -> None:
        """Clear per-thread state (called between threads)."""

    def clone(self) -> "DecisionScheme":
        """A fresh instance with the same parameters (per-thread state).

        Default: construct a new object of the same class with the
        attributes stored by ``__init__``; schemes with constructor
        arguments override this.
        """
        return type(self)()
