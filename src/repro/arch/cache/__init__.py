"""Private per-core data caches.

EM² caches data at its *home* core only, so no coherence state is
needed; the directory-CC baseline reuses the same arrays with a
coherence-state field. The paper's configuration is 16 KB L1 +
64 KB L2 data caches per core (Figure 2 caption).
"""

from repro.arch.cache.sram import CacheArray, EvictedLine, TileCacheStore
from repro.arch.cache.hierarchy import CacheHierarchy, AccessResult

__all__ = [
    "CacheArray",
    "EvictedLine",
    "TileCacheStore",
    "CacheHierarchy",
    "AccessResult",
]
