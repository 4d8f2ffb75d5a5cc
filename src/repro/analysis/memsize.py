"""Per-tile simulator memory accounting and the bytes-per-tile budget.

The 1024+-core scaling work holds a hard line on how much *host* memory
the simulator spends per simulated tile: columnar cache metadata
(:class:`~repro.arch.cache.sram.TileCacheStore`), lazy topology
geometry, pooled counter matrices, and lazily-allocated NoC occupancy
replace the per-core Python object graphs that made a 1024-core build
cost megabytes per tile. :func:`tile_state_bytes` measures the actual
substrate footprint of a built machine so benches and tests can assert
the budget instead of trusting the design.

What counts as tile state: cache metadata columns + presence indexes +
the per-core cache/hierarchy wrapper objects, context files, topology
geometry (coordinates, route cache, what the hop function holds), NoC
occupancy state, and pooled per-core counters. The workload trace and
per-thread decode columns are *not* tile state — they scale with the
workload, not the machine — and are excluded.

``BYTES_PER_TILE_BUDGET`` is the documented ceiling: a freshly built
detailed machine must cost at most this many bytes of substrate per
tile at any core count from 64 to 4096. The dominant term is the cache
metadata columns (18 bytes per cache line: int64 tag + int64 stamp +
bool dirty + uint8 state), so the paper's 16 KB + 64 KB tile caches
land at ~23 KB/tile and the ``mesh-1024``/``cluster-4096`` presets'
trimmed 4 KB + 16 KB caches at ~12 KB/tile.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

#: Hard ceiling on substrate bytes per simulated tile for a freshly
#: built detailed machine (see module docstring for what counts).
BYTES_PER_TILE_BUDGET = 32 * 1024


def _sizeof(obj: Any) -> int:
    """``sys.getsizeof`` with numpy arrays priced by their buffers.

    A view into a shared store (e.g. a :class:`CacheArray` row of a
    :class:`TileCacheStore` matrix) is priced at the view header only —
    the buffer is charged once, at its owning base array.
    """
    if isinstance(obj, np.ndarray):
        header = sys.getsizeof(obj) - obj.nbytes if obj.base is None else sys.getsizeof(obj)
        return max(header, 0) + (obj.nbytes if obj.base is None else 0)
    return sys.getsizeof(obj)


def _container_bytes(obj: Any, seen: set[int]) -> int:
    """Size of ``obj`` plus one level of held references (dicts/lists)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    total = _sizeof(obj)
    if isinstance(obj, dict):
        for v in obj.values():
            if id(v) not in seen and not isinstance(v, (int, float, bool, type(None))):
                seen.add(id(v))
                total += _sizeof(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if id(v) not in seen and not isinstance(v, (int, float, bool, type(None))):
                seen.add(id(v))
                total += _sizeof(v)
    return total


def _cache_array_bytes(arr, seen: set[int]) -> int:
    total = _sizeof(arr)
    for col in (arr.tags, arr.dirty, arr.state, arr.stamps):
        base = col if col.base is None else col.base
        if id(base) not in seen:
            seen.add(id(base))
            total += base.nbytes
        total += sys.getsizeof(col) - (col.nbytes if col.base is None else 0)
    total += _container_bytes(arr._index, seen)
    return total


def _topology_bytes(topology, seen: set[int]) -> int:
    total = _sizeof(topology)
    # cached properties are read from __dict__: getattr would build the
    # state it measures
    for attr in ("_xs", "_ys", "_route_cache"):
        v = topology.__dict__.get(attr)
        if v is not None:
            total += _container_bytes(v, seen)
    hop = topology.__dict__.get("hop")  # cached_property: absent until used
    if hop is not None:  # priced with its geometry (the mesh's coordinate lists)
        total += _sizeof(hop)
        for cell in hop.__closure__ or ():
            total += _container_bytes(cell.cell_contents, seen)
    dm = topology.__dict__.get("distance_matrix")
    if dm is not None:
        total += _sizeof(dm)
    return total


def tile_state_bytes(machine) -> dict:
    """Substrate memory breakdown of a built machine or CC simulator.

    Returns ``{"num_cores", "total_bytes", "bytes_per_tile",
    "components": {...}}``. Accepts a
    :class:`~repro.core.machine.MigrationMachineBase` subclass or a
    :class:`~repro.coherence.simulator.DirectoryCCSimulator`.
    """
    seen: set[int] = set()
    comp: dict[str, int] = {}
    num_cores = machine.config.num_cores

    # -- cache metadata: pooled columns + per-core arrays/indexes -------
    cache_total = 0
    for store_attr in ("l1_store", "l2_store", "cache_store"):
        store = getattr(machine, store_attr, None)
        if store is not None:
            for col in (store.tags, store.dirty, store.state, store.stamps):
                if id(col) not in seen:
                    seen.add(id(col))
                    cache_total += col.nbytes
            cache_total += _sizeof(store)
    caches = getattr(machine, "caches", None)
    if caches:
        for c in caches:
            if hasattr(c, "l1"):  # CacheHierarchy
                cache_total += _sizeof(c)
                cache_total += _cache_array_bytes(c.l1, seen)
                cache_total += _cache_array_bytes(c.l2, seen)
            else:  # bare CacheArray (directory-CC private cache)
                cache_total += _cache_array_bytes(c, seen)
    comp["caches"] = cache_total

    # -- topology geometry + route/hop caches ---------------------------
    comp["topology"] = _topology_bytes(machine.topology, seen)

    # -- NoC occupancy + stats ------------------------------------------
    network = getattr(machine, "network", None)
    if network is not None:
        comp["network"] = _sizeof(network) + _container_bytes(
            network._link_free, seen
        )

    # -- pooled per-core counters ---------------------------------------
    mats = getattr(machine.stats, "_matrices", {})
    comp["counter_matrices"] = sum(m.nbytes for m in mats.values())

    # -- context files ---------------------------------------------------
    contexts = getattr(machine, "contexts", None)
    if contexts:
        ctx_total = 0
        for ctx in contexts:
            ctx_total += _sizeof(ctx)
            ctx_total += _container_bytes(ctx._guests, seen)
            ctx_total += _container_bytes(ctx._native_home, seen)
        comp["contexts"] = ctx_total

    total = sum(comp.values())
    return {
        "num_cores": num_cores,
        "total_bytes": total,
        "bytes_per_tile": total / num_cores,
        "budget_bytes_per_tile": BYTES_PER_TILE_BUDGET,
        "components": comp,
    }
