"""Message and virtual-network definitions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class VirtualNetwork(enum.IntEnum):
    """Protocol classes mapped onto distinct virtual channels.

    EM² needs two virtual networks (migration + eviction) for
    deadlock-free migration [10]; EM²-RA adds the remote-access
    request/reply pair, "requiring six virtual channels in total" (§3)
    — each network here is realized as a pair of VCs in the plans in
    :mod:`repro.arch.noc.deadlock`.
    """

    MIGRATION = 0  # context moving to a home core
    EVICTION = 1  # evicted context returning to its native core
    RA_REQUEST = 2  # remote-access request
    RA_REPLY = 3  # remote-access data/ack reply
    COHERENCE_REQ = 4  # directory-CC requests (baseline)
    COHERENCE_REPLY = 5  # directory-CC replies (baseline)


@dataclass
class Message:
    """One network message (a migration context, RA request, etc.)."""

    src: int
    dst: int
    payload_bits: int
    vnet: VirtualNetwork
    kind: str = "generic"
    body: Any = None
    inject_time: float = float("nan")
    deliver_time: float = float("nan")
    # the engine event Network.send re-arms for this message's
    # delivery; a message is never re-sent while that event is pending
    delivery_event: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bits < 0:
            raise ValueError("payload_bits must be >= 0")

    @property
    def latency(self) -> float:
        return self.deliver_time - self.inject_time
