"""On-chip network topologies and routing distance matrices.

The cost model (§3) and the NoC simulator both need hop distances
``dist(i, j)`` between every pair of cores, and the NoC additionally
needs the deterministic route. The default is a 2-D mesh with
dimension-ordered (XY) routing, matching the EM² hardware [8,10].

Geometry is **lazy and bounded** so the same classes serve the paper's
64-core mesh and 1024–4096-core scale studies: distances come from
vectorized per-source rows (:meth:`Topology.distance_row`), the hop
table materializes rows on demand behind a bounded cache
(:class:`LazyHopTable`), the route cache is capped, and link
enumeration is O(P) from coordinates instead of an O(P²) distance scan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from functools import cached_property

import numpy as np

from repro.util.errors import ConfigError


class LazyHopTable:
    """Row-lazy ``hops[src][dst]`` hop-distance view over a topology.

    Drop-in for the old eagerly-materialized nested list: indexing
    ``hops[src]`` yields a plain-int list row (native ints — no numpy
    scalar boxing leaks into latencies or serialized results). Rows are
    built on demand from the topology's vectorized
    :meth:`~Topology.distance_row` and kept in a bounded FIFO cache:
    at 4096 cores the full table would be 16M boxed ints, while any
    single run touches only the rows of cores that actually send.
    """

    #: Max resident rows. Recomputing an evicted row is one O(P)
    #: vectorized call, so the cap trades a little recompute for a hard
    #: memory bound (cap * P ints).
    ROW_CAP = 256

    #: scalar :meth:`hop` misses from one source before its row is
    #: materialized — sources colder than this answer with O(1)
    #: coordinate math instead of paying an O(P) row build
    HOT_PROMOTE = 8

    __slots__ = ("_topology", "_rows", "_misses", "_scalar")

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology
        self._rows: OrderedDict[int, list[int]] = OrderedDict()
        self._misses: dict[int, int] = {}
        self._scalar = topology.scalar_hop_fn()

    def __getitem__(self, src: int) -> list[int]:
        row = self._rows.get(src)
        if row is None:
            row = self._topology.distance_row(src).tolist()
            if len(self._rows) >= self.ROW_CAP:
                self._rows.popitem(last=False)
            self._rows[src] = row
        return row

    def hop(self, src: int, dst: int) -> int:
        """Scalar hop count — the per-message fast path.

        A resident row answers with a list subscript. A missing row
        answers with the topology's O(1) scalar :meth:`~Topology.distance`
        and bumps a per-source miss counter; a source that keeps missing
        gets its row materialized (while the cap has room). This is what
        keeps 4096-core runs off the thrash cliff: with more active
        senders than ROW_CAP, the old always-build-a-row policy paid an
        O(P) rebuild on nearly every message.
        """
        row = self._rows.get(src)
        if row is not None:
            return row[dst]
        misses = self._misses
        n = misses.get(src, 0) + 1
        if n >= self.HOT_PROMOTE and len(self._rows) < self.ROW_CAP:
            misses.pop(src, None)
            return self[src][dst]
        misses[src] = n
        return self._scalar(src, dst)

    def __len__(self) -> int:
        return self._topology.num_cores


class Topology(ABC):
    """Abstract core-interconnect topology."""

    #: Cap on memoized routes (see :meth:`route_cached`). Contention
    #: runs touch O(active pairs) routes, not all P²; evicted routes
    #: are rebuilt on demand, so the cap only bounds memory.
    ROUTE_CACHE_CAP = 4096

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ConfigError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.route_cache_cap = max(self.ROUTE_CACHE_CAP, 4 * num_cores)

    @abstractmethod
    def distance(self, src: int, dst: int) -> int:
        """Hop count of the deterministic route from ``src`` to ``dst``."""

    @abstractmethod
    def route(self, src: int, dst: int) -> list[int]:
        """Core ids along the route, inclusive of both endpoints."""

    def _check_core(self, core: int) -> None:
        if not (0 <= core < self.num_cores):
            raise ConfigError(f"core id {core} out of range [0, {self.num_cores})")

    def distance_row(self, src: int) -> np.ndarray:
        """(P,) int64 hop distances from ``src`` to every core.

        Concrete topologies override with vectorized coordinate math;
        this fallback calls :meth:`distance` per destination.
        """
        self._check_core(src)
        return np.fromiter(
            (self.distance(src, d) for d in range(self.num_cores)),
            dtype=np.int64,
            count=self.num_cores,
        )

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """(P, P) int matrix of hop distances. Cached; used by the DP.

        Built by stacking vectorized :meth:`distance_row` calls — O(P)
        numpy ops per row instead of the old O(P²) pure-Python double
        loop. Scale-sensitive consumers (NoC, directory) should prefer
        :attr:`hop_table` rows, which never materialize the full P².
        """
        mat = np.vstack([self.distance_row(i) for i in range(self.num_cores)])
        mat.setflags(write=False)
        return mat

    def scalar_hop_fn(self):
        """A plain closure ``hop(src, dst) -> int`` with no bounds
        checks — the per-message cold path of :class:`LazyHopTable`.
        Concrete topologies override with closed-over coordinate lists
        so a cold pair costs a few subscripts instead of a method
        dispatch; this fallback is the checked :meth:`distance`.
        Callers must pass valid core ids."""
        return self.distance

    @cached_property
    def hop_table(self) -> LazyHopTable:
        """Bounded row-lazy ``hops[src][dst]`` table.

        The per-access simulator loops index this (``hops[src][dst]``)
        instead of calling :meth:`distance`: a dict probe plus a list
        subscript on native ints, no coordinate math and no numpy
        scalar boxing. Rows materialize on first touch (see
        :class:`LazyHopTable`), so a 4096-core machine never builds the
        16M-entry eager table the old nested lists required.
        """
        return LazyHopTable(self)

    @cached_property
    def _route_cache(self) -> OrderedDict[int, list[int]]:
        return OrderedDict()

    def route_cached(self, src: int, dst: int) -> list[int]:
        """Memoized :meth:`route`. Routes are deterministic per (src,
        dst), so the contention-mode NoC walks a cached list instead of
        rebuilding the path for every message. Callers must not mutate
        the returned list. The cache is FIFO-bounded at
        ``route_cache_cap`` entries so contention runs at scale cannot
        grow it toward P²."""
        key = src * self.num_cores + dst
        route = self._route_cache.get(key)
        if route is None:
            if len(self._route_cache) >= self.route_cache_cap:
                self._route_cache.popitem(last=False)
            route = self._route_cache[key] = self.route(src, dst)
        return route

    def links(self) -> list[tuple[int, int]]:
        """Directed physical links (u, v) with dist(u, v) == 1.

        Ordered ascending by (u, v) — seeded fault draws index into
        this list, so the order is part of the determinism contract.
        Concrete topologies override with O(P) coordinate enumeration;
        this fallback is the O(P²) definitional scan.
        """
        out = []
        for i in range(self.num_cores):
            for j in range(self.num_cores):
                if i != j and self.distance(i, j) == 1:
                    out.append((i, j))
        return out


class Mesh2D(Topology):
    """W x H mesh with XY (dimension-ordered) routing.

    XY routing is deadlock-free within one virtual network, which is
    why the EM² deadlock argument only needs VC separation *between*
    protocol classes [10], not adaptive routing.
    """

    def __init__(self, width: int, height: int) -> None:
        super().__init__(width * height)
        self.width = width
        self.height = height

    @classmethod
    def square(cls, num_cores: int) -> "Mesh2D":
        w = int(round(num_cores**0.5))
        while w > 1 and num_cores % w:
            w -= 1
        return cls(w, num_cores // w)

    def coords(self, core: int) -> tuple[int, int]:
        """(x, y) tile coordinates of ``core``."""
        self._check_core(core)
        return core % self.width, core // self.width

    def core_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigError(f"tile ({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    @cached_property
    def _xs(self) -> np.ndarray:
        return np.arange(self.num_cores, dtype=np.int64) % self.width

    @cached_property
    def _ys(self) -> np.ndarray:
        return np.arange(self.num_cores, dtype=np.int64) // self.width

    def distance(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def distance_row(self, src: int) -> np.ndarray:
        sx, sy = self.coords(src)
        return np.abs(self._xs - sx) + np.abs(self._ys - sy)

    def scalar_hop_fn(self):
        w = self.width

        def hop(src: int, dst: int) -> int:
            return abs(src % w - dst % w) + abs(src // w - dst // w)

        return hop

    def route(self, src: int, dst: int) -> list[int]:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        while x != dx:  # X first
            x += 1 if dx > x else -1
            path.append(self.core_at(x, y))
        while y != dy:  # then Y
            y += 1 if dy > y else -1
            path.append(self.core_at(x, y))
        return path

    def links(self) -> list[tuple[int, int]]:
        out = []
        w, h = self.width, self.height
        for i in range(self.num_cores):
            x, y = i % w, i // w
            if y > 0:
                out.append((i, i - w))
            if x > 0:
                out.append((i, i - 1))
            if x + 1 < w:
                out.append((i, i + 1))
            if y + 1 < h:
                out.append((i, i + w))
        return out


class TorusTopology(Mesh2D):
    """W x H torus: mesh with wraparound links (shorter average distance)."""

    def _axis_step(self, cur: int, dst: int, extent: int) -> int:
        """Next coordinate along the shorter wrap-aware direction."""
        fwd = (dst - cur) % extent
        bwd = (cur - dst) % extent
        step = 1 if fwd <= bwd else -1
        return (cur + step) % extent

    def distance(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        ddx = min((dx - sx) % self.width, (sx - dx) % self.width)
        ddy = min((dy - sy) % self.height, (sy - dy) % self.height)
        return ddx + ddy

    def distance_row(self, src: int) -> np.ndarray:
        sx, sy = self.coords(src)
        dx = np.abs(self._xs - sx)
        dy = np.abs(self._ys - sy)
        return np.minimum(dx, self.width - dx) + np.minimum(dy, self.height - dy)

    def scalar_hop_fn(self):
        w, h = self.width, self.height

        def hop(src: int, dst: int) -> int:
            dx = abs(src % w - dst % w)
            dy = abs(src // w - dst // w)
            return min(dx, w - dx) + min(dy, h - dy)

        return hop

    def route(self, src: int, dst: int) -> list[int]:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        while x != dx:
            x = self._axis_step(x, dx, self.width)
            path.append(self.core_at(x, y))
        while y != dy:
            y = self._axis_step(y, dy, self.height)
            path.append(self.core_at(x, y))
        return path

    def links(self) -> list[tuple[int, int]]:
        out = []
        w, h = self.width, self.height
        for i in range(self.num_cores):
            x, y = i % w, i // w
            neigh = set()
            if w > 1:
                neigh.add(self.core_at((x - 1) % w, y))
                neigh.add(self.core_at((x + 1) % w, y))
            if h > 1:
                neigh.add(self.core_at(x, (y - 1) % h))
                neigh.add(self.core_at(x, (y + 1) % h))
            neigh.discard(i)
            out.extend((i, j) for j in sorted(neigh))
        return out


class ClusterMesh(Mesh2D):
    """Hierarchical mesh-of-meshes with two-level dimension-ordered routing.

    Cores tile a global ``(clusters_x * cluster_width) x (clusters_y *
    cluster_height)`` grid partitioned into rectangular clusters. Each
    cluster is an ordinary XY-routed mesh; its center tile is the
    **hub**, and hubs of adjacent clusters are joined by single-hop
    express links forming a second-level ``clusters_x x clusters_y``
    mesh. Intra-cluster traffic routes XY inside the cluster;
    inter-cluster traffic routes XY to the local hub, hops hub-to-hub
    in cluster-level XY order, then XY from the remote hub to the
    destination — the standard concentrated/hierarchical NoC shape for
    thousand-core machines, where express channels keep hop counts near
    the cluster diameter plus the cluster-grid distance.
    """

    def __init__(
        self,
        clusters_x: int,
        clusters_y: int,
        cluster_width: int,
        cluster_height: int,
    ) -> None:
        for name, val in (
            ("clusters_x", clusters_x),
            ("clusters_y", clusters_y),
            ("cluster_width", cluster_width),
            ("cluster_height", cluster_height),
        ):
            if not isinstance(val, int) or val <= 0:
                raise ConfigError(f"{name} must be a positive int, got {val!r}")
        super().__init__(clusters_x * cluster_width, clusters_y * cluster_height)
        self.clusters_x = clusters_x
        self.clusters_y = clusters_y
        self.cluster_width = cluster_width
        self.cluster_height = cluster_height

    def cluster_of(self, core: int) -> tuple[int, int]:
        """(cx, cy) cluster-grid coordinates of ``core``'s cluster."""
        x, y = self.coords(core)
        return x // self.cluster_width, y // self.cluster_height

    def hub(self, cx: int, cy: int) -> int:
        """Core id of cluster (cx, cy)'s hub (its center tile)."""
        if not (0 <= cx < self.clusters_x and 0 <= cy < self.clusters_y):
            raise ConfigError(
                f"cluster ({cx},{cy}) outside "
                f"{self.clusters_x}x{self.clusters_y} cluster grid"
            )
        return self.core_at(
            cx * self.cluster_width + self.cluster_width // 2,
            cy * self.cluster_height + self.cluster_height // 2,
        )

    def distance(self, src: int, dst: int) -> int:
        scx, scy = self.cluster_of(src)
        dcx, dcy = self.cluster_of(dst)
        if (scx, scy) == (dcx, dcy):
            return Mesh2D.distance(self, src, dst)
        hs = self.hub(scx, scy)
        hd = self.hub(dcx, dcy)
        return (
            Mesh2D.distance(self, src, hs)
            + abs(dcx - scx)
            + abs(dcy - scy)
            + Mesh2D.distance(self, hd, dst)
        )

    def distance_row(self, src: int) -> np.ndarray:
        sx, sy = self.coords(src)
        scx, scy = self.cluster_of(src)
        cw, ch = self.cluster_width, self.cluster_height
        cxs = self._xs // cw
        cys = self._ys // ch
        same = (cxs == scx) & (cys == scy)
        mesh = np.abs(self._xs - sx) + np.abs(self._ys - sy)
        hsx, hsy = self.coords(self.hub(scx, scy))
        # per-destination hub coordinates, then the three legs
        hdx = cxs * cw + cw // 2
        hdy = cys * ch + ch // 2
        to_hub = abs(sx - hsx) + abs(sy - hsy)
        express = np.abs(cxs - scx) + np.abs(cys - scy)
        from_hub = np.abs(self._xs - hdx) + np.abs(self._ys - hdy)
        return np.where(same, mesh, to_hub + express + from_hub)

    def scalar_hop_fn(self):
        w = self.width
        cw, ch = self.cluster_width, self.cluster_height
        hx, hy = cw // 2, ch // 2

        def hop(src: int, dst: int) -> int:
            sx, sy = src % w, src // w
            dx, dy = dst % w, dst // w
            scx, scy = sx // cw, sy // ch
            dcx, dcy = dx // cw, dy // ch
            if scx == dcx and scy == dcy:
                return abs(sx - dx) + abs(sy - dy)
            # src -> own hub, hub-grid XY, remote hub -> dst
            return (
                abs(sx % cw - hx) + abs(sy % ch - hy)
                + abs(scx - dcx) + abs(scy - dcy)
                + abs(dx % cw - hx) + abs(dy % ch - hy)
            )

        return hop

    def route(self, src: int, dst: int) -> list[int]:
        scx, scy = self.cluster_of(src)
        dcx, dcy = self.cluster_of(dst)
        if (scx, scy) == (dcx, dcy):
            return Mesh2D.route(self, src, dst)
        path = Mesh2D.route(self, src, self.hub(scx, scy))
        cx, cy = scx, scy
        while cx != dcx:  # cluster-level X first
            cx += 1 if dcx > cx else -1
            path.append(self.hub(cx, cy))
        while cy != dcy:  # then cluster-level Y
            cy += 1 if dcy > cy else -1
            path.append(self.hub(cx, cy))
        path.extend(Mesh2D.route(self, self.hub(dcx, dcy), dst)[1:])
        return path

    def links(self) -> list[tuple[int, int]]:
        out = []
        w = self.width
        cw, ch = self.cluster_width, self.cluster_height
        for i in range(self.num_cores):
            x, y = i % w, i // w
            # intra-cluster mesh links only: crossing a cluster edge is
            # the hubs' job, matching the hierarchical distance metric
            if y % ch > 0:
                out.append((i, i - w))
            if x % cw > 0:
                out.append((i, i - 1))
            if x % cw + 1 < cw:
                out.append((i, i + 1))
            if y % ch + 1 < ch:
                out.append((i, i + w))
        for cx in range(self.clusters_x):
            for cy in range(self.clusters_y):
                h = self.hub(cx, cy)
                if cx > 0:
                    out.append((h, self.hub(cx - 1, cy)))
                if cx + 1 < self.clusters_x:
                    out.append((h, self.hub(cx + 1, cy)))
                if cy > 0:
                    out.append((h, self.hub(cx, cy - 1)))
                if cy + 1 < self.clusters_y:
                    out.append((h, self.hub(cx, cy + 1)))
        out.sort()
        return out


class RingTopology(Topology):
    """Unidirectional-route bidirectional ring (small-core baselines)."""

    def distance(self, src: int, dst: int) -> int:
        self._check_core(src)
        self._check_core(dst)
        fwd = (dst - src) % self.num_cores
        return min(fwd, self.num_cores - fwd)

    def distance_row(self, src: int) -> np.ndarray:
        self._check_core(src)
        fwd = (np.arange(self.num_cores, dtype=np.int64) - src) % self.num_cores
        return np.minimum(fwd, self.num_cores - fwd)

    def scalar_hop_fn(self):
        n = self.num_cores

        def hop(src: int, dst: int) -> int:
            fwd = (dst - src) % n
            bwd = n - fwd
            return fwd if fwd <= bwd else bwd

        return hop

    def route(self, src: int, dst: int) -> list[int]:
        self._check_core(src)
        self._check_core(dst)
        fwd = (dst - src) % self.num_cores
        step = 1 if fwd <= self.num_cores - fwd else -1
        path = [src]
        cur = src
        while cur != dst:
            cur = (cur + step) % self.num_cores
            path.append(cur)
        return path

    def links(self) -> list[tuple[int, int]]:
        n = self.num_cores
        out = []
        for i in range(n):
            neigh = {(i - 1) % n, (i + 1) % n} - {i}
            out.extend((i, j) for j in sorted(neigh))
        return out


class UnidirectionalRing(Topology):
    """Ring routed strictly clockwise (src -> src+1 -> ... -> dst).

    The canonical deadlock-prone topology: its single channel cycle is
    what virtual-channel datelines were invented for — used by the
    flit-level NoC tests to demonstrate real deadlock and its cure.
    """

    def distance(self, src: int, dst: int) -> int:
        self._check_core(src)
        self._check_core(dst)
        return (dst - src) % self.num_cores

    def distance_row(self, src: int) -> np.ndarray:
        self._check_core(src)
        return (np.arange(self.num_cores, dtype=np.int64) - src) % self.num_cores

    def scalar_hop_fn(self):
        n = self.num_cores

        def hop(src: int, dst: int) -> int:
            return (dst - src) % n

        return hop

    def route(self, src: int, dst: int) -> list[int]:
        self._check_core(src)
        self._check_core(dst)
        path = [src]
        cur = src
        while cur != dst:
            cur = (cur + 1) % self.num_cores
            path.append(cur)
        return path

    def links(self) -> list[tuple[int, int]]:
        return [(i, (i + 1) % self.num_cores) for i in range(self.num_cores)]


def topology_for(config) -> Mesh2D:
    """Build the default mesh for a :class:`~repro.arch.config.SystemConfig`."""
    return Mesh2D(config.width, config.height)


def _split_extent(extent: int) -> int:
    """Largest divisor of ``extent`` not above its square root — the
    default cluster size along one axis (64 -> 8, 32 -> 4, 7 -> 1)."""
    w = int(extent**0.5)
    while w > 1 and extent % w:
        w -= 1
    return max(w, 1)


def cluster_mesh_for(config, clusters_x=None, clusters_y=None,
                     cluster_width=None, cluster_height=None) -> ClusterMesh:
    """A :class:`ClusterMesh` covering ``config``'s core grid.

    Unspecified parameters default to a near-square split of each
    dimension of the configured mesh; specified ones must tile the
    configured ``width x height`` grid exactly.
    """
    if cluster_width is None:
        cluster_width = (
            config.width // clusters_x if clusters_x else _split_extent(config.width)
        )
    if cluster_height is None:
        cluster_height = (
            config.height // clusters_y if clusters_y
            else _split_extent(config.height)
        )
    if clusters_x is None:
        clusters_x = config.width // cluster_width if cluster_width else 0
    if clusters_y is None:
        clusters_y = config.height // cluster_height if cluster_height else 0
    topo = ClusterMesh(clusters_x, clusters_y, cluster_width, cluster_height)
    if (topo.width, topo.height) != (config.width, config.height):
        raise ConfigError(
            f"cluster grid {clusters_x}x{clusters_y} of "
            f"{cluster_width}x{cluster_height} clusters covers "
            f"{topo.width}x{topo.height}, but the system is "
            f"{config.width}x{config.height}"
        )
    return topo


# ------------------------------------------------------------- registry
from repro.registry import TOPOLOGIES  # noqa: E402  (after class definitions)


# Factories take explicit parameters (no **kwargs) so a typo in a
# TopologySpec's params fails loudly instead of being swallowed.
@TOPOLOGIES.register("auto", "the default mesh for the system configuration")
def _make_auto(config):
    return topology_for(config)


@TOPOLOGIES.register("mesh", "2-D mesh with XY routing (EM2 hardware)")
def _make_mesh(config, width=None, height=None):
    return Mesh2D(width or config.width, height or config.height)


@TOPOLOGIES.register("torus", "2-D torus: mesh with wraparound links")
def _make_torus(config, width=None, height=None):
    return TorusTopology(width or config.width, height or config.height)


@TOPOLOGIES.register(
    "cluster", "hierarchical mesh-of-meshes with hub express links"
)
def _make_cluster(config, clusters_x=None, clusters_y=None,
                  cluster_width=None, cluster_height=None):
    return cluster_mesh_for(
        config,
        clusters_x=clusters_x,
        clusters_y=clusters_y,
        cluster_width=cluster_width,
        cluster_height=cluster_height,
    )


@TOPOLOGIES.register("ring", "bidirectional ring")
def _make_ring(config, num_cores=None):
    return RingTopology(num_cores or config.num_cores)


@TOPOLOGIES.register("uni-ring", "unidirectional ring (deadlock showcase)")
def _make_uni_ring(config, num_cores=None):
    return UnidirectionalRing(num_cores or config.num_cores)
