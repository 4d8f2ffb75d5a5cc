"""On-chip network topologies and routing distances.

The cost model (§3) and the NoC simulator both need hop distances
``dist(i, j)`` between every pair of cores, and the NoC additionally
needs the deterministic route. The default is a 2-D mesh with
dimension-ordered (XY) routing, matching the EM² hardware [8,10].

Each topology defines its hop count twice: :attr:`Topology.hop`, a
plain function the per-message simulators call, and
:meth:`Topology.distance_row`, its vectorized form, which the (P, P)
:attr:`~Topology.distance_matrix` of the analytical models stacks.
Both are coordinate math, so the same classes serve the paper's
64-core mesh and 1024–4096-core scale studies: nothing P² is built
unless a caller asks for the matrix, the route cache is capped, and
link enumeration is O(P) from coordinates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from functools import cached_property
from typing import Callable

import numpy as np

from repro.arch.config import near_square_width
from repro.util.errors import ConfigError


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

    @property
    @abstractmethod
    def hop(self) -> Callable[[int, int], int]:
        """``hop(src, dst)``: hop count of the deterministic route. A
        plain function built once (a cached property) that returns plain
        ints and checks no bounds: the per-message simulators call it
        with valid core ids; :meth:`distance` is the checked form."""

    def distance(self, src: int, dst: int) -> int:
        """Hop count of the deterministic route from ``src`` to ``dst``."""
        self._check_core(src)
        self._check_core(dst)
        return self.hop(src, dst)

    @abstractmethod
    def distance_row(self, src: int) -> np.ndarray:
        """(P,) int64 hop distances from ``src`` to every core: the
        vectorized form of :attr:`hop`."""

    @abstractmethod
    def route(self, src: int, dst: int) -> list[int]:
        """Core ids along the route, inclusive of both endpoints."""

    @abstractmethod
    def links(self) -> list[tuple[int, int]]:
        """Directed physical links (u, v) with dist(u, v) == 1.

        Ordered ascending by (u, v) — seeded fault draws index into
        this list, so the order is part of the determinism contract.
        """

    def _check_core(self, core: int) -> None:
        if not (0 <= core < self.num_cores):
            raise ConfigError(f"core id {core} out of range [0, {self.num_cores})")

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """(P, P) int matrix of hop distances. Cached; used by the DP
        and the analytical cost model. The simulators call :attr:`hop`
        instead, so a thousand-core machine never builds it."""
        mat = np.vstack([self.distance_row(i) for i in range(self.num_cores)])
        mat.setflags(write=False)
        return mat

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
        w = near_square_width(num_cores)
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

    def distance_row(self, src: int) -> np.ndarray:
        sx, sy = self.coords(src)
        return np.abs(self._xs - sx) + np.abs(self._ys - sy)

    @cached_property
    def hop(self) -> Callable[[int, int], int]:
        xs, ys = self._xs.tolist(), self._ys.tolist()

        def hop(src: int, dst: int) -> int:
            return abs(xs[src] - xs[dst]) + abs(ys[src] - ys[dst])

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

    def distance_row(self, src: int) -> np.ndarray:
        sx, sy = self.coords(src)
        dx = np.abs(self._xs - sx)
        dy = np.abs(self._ys - sy)
        return np.minimum(dx, self.width - dx) + np.minimum(dy, self.height - dy)

    @cached_property
    def hop(self) -> Callable[[int, int], int]:
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

    @cached_property
    def hop(self) -> Callable[[int, int], int]:
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

    def distance_row(self, src: int) -> np.ndarray:
        self._check_core(src)
        fwd = (np.arange(self.num_cores, dtype=np.int64) - src) % self.num_cores
        return np.minimum(fwd, self.num_cores - fwd)

    @cached_property
    def hop(self) -> Callable[[int, int], int]:
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

    def distance_row(self, src: int) -> np.ndarray:
        self._check_core(src)
        return (np.arange(self.num_cores, dtype=np.int64) - src) % self.num_cores

    @cached_property
    def hop(self) -> Callable[[int, int], int]:
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


def cluster_mesh_for(config, clusters_x=None, clusters_y=None,
                     cluster_width=None, cluster_height=None) -> ClusterMesh:
    """A :class:`ClusterMesh` covering ``config``'s core grid.

    Unspecified parameters default to a near-square split of each
    dimension of the configured mesh (:func:`near_square_width` of the
    extent: 64 -> 8, 32 -> 4, 7 -> 1); specified ones must tile the
    configured ``width x height`` grid exactly.
    """

    def split(extent, clusters, size):  # (clusters, size) along one axis
        if size is None:
            size = extent // clusters if clusters else near_square_width(extent)
        if clusters is None:
            clusters = extent // size if size else 0
        return clusters, size

    clusters_x, cluster_width = split(config.width, clusters_x, cluster_width)
    clusters_y, cluster_height = split(config.height, clusters_y, cluster_height)
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
