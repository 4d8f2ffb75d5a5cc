"""A fixed probe of how fast the host runs right now.

On a shared host the speed the benchmark gets moves by tens of percent
for minutes at a time (other tenants' load on the shared cache, memory
and sibling hyperthreads). ``probe()`` runs a fixed mix of the work the
simulator does and returns its host seconds: mostly interpreted
dict/list/int code, whose speed moves most with the host's and tracks
both the event-driven machines and the numpy-heavy evaluator, plus a
little numpy (gathers, a sort, prefix sums). It imports nothing from ``repro``, so a change to the
program never changes it; the run interleaves probes with the timed
work and reports pass time relative to the probe, in seconds at a
fixed reference speed of the probe.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds ``probe()`` takes on the host the benchmark was defined on (a
#: 2-vCPU Xeon VM) at its fastest; host seconds times ``REFERENCE_S``
#: over the probe's seconds at the time give seconds at that speed.
REFERENCE_S = 0.0045

_N = 1 << 15
_rng = np.random.default_rng(12345)
_KEYS = _rng.integers(0, 1 << 20, _N)
_IDX = _rng.integers(0, _N, _N)


def _interpreted() -> int:
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    acc = 0
    for i in range(12_000):
        k = (i * 2654435761) & 0x3FFF
        table[k] = table.get(k, 0) + i
        if i & 7 == 0:
            rows.append((k, i))
        acc += k % 7
    rows.sort()
    return acc + len(rows)


def _vectorised() -> int:
    gathered = _KEYS[_IDX]
    ordered = np.sort(gathered & 0xFFFF)
    runs = np.flatnonzero(np.diff(ordered))
    total = np.cumsum(gathered[::2])
    return int(runs.size) + int(total[-1] & 1)


def probe() -> float:
    """Host seconds of one fixed piece of work."""
    t0 = time.perf_counter()
    _interpreted()
    _vectorised()
    return time.perf_counter() - t0


def at_reference(secs: float, probes: list[float]) -> float:
    """``secs`` of host time scaled to the probe's reference speed, by
    the mean of probes run around that time."""
    return secs * REFERENCE_S / (sum(probes) / len(probes))


def timed(fn, probes: int = 3):
    """Run ``fn()`` between ``probes`` probes on each side; return its
    result, its host seconds and those seconds at reference speed."""
    before = [probe() for _ in range(probes)]
    t0 = time.perf_counter()
    out = fn()
    secs = time.perf_counter() - t0
    after = [probe() for _ in range(probes)]
    return out, secs, at_reference(secs, before + after)
