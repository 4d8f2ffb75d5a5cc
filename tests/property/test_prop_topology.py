"""Topology conformance properties at scale.

Every registered point-to-point topology must satisfy the same
contract the NoC and cost model rely on: routes are walks over
physical links, route length equals the advertised hop distance,
distances are symmetric (uni-ring excepted by construction), and the
vectorized ``distance_row`` agrees with the scalar ``hop``. The
existing unit tests pin these at toy sizes with exhaustive O(P²)
loops; these tests sample pairs so the same contract is checked at 64,
256, and 1024 cores — the sizes the scaling study actually runs —
without quadratic test cost. They also pin the route cache's memory
bound.
"""

import numpy as np
import pytest

from repro.arch.topology import (
    ClusterMesh,
    Mesh2D,
    RingTopology,
    TorusTopology,
    UnidirectionalRing,
)

# name -> factory(num_cores); cluster shapes chosen so cluster grid and
# cluster size both grow with the machine, like cluster_mesh_for does.
_CLUSTER_SHAPES = {64: (4, 4, 2, 2), 256: (4, 4, 4, 4), 1024: (8, 8, 4, 4)}

TOPOLOGIES = {
    "mesh": lambda n: Mesh2D.square(n),
    "torus": lambda n: TorusTopology.square(n),
    "ring": lambda n: RingTopology(n),
    "uni-ring": lambda n: UnidirectionalRing(n),
    "cluster": lambda n: ClusterMesh(*_CLUSTER_SHAPES[n]),
}

SIZES = [64, 256, 1024]


def _sample_pairs(num_cores: int, seed: int, count: int = 200):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, num_cores, size=(count, 2))
    # always include the corner-to-corner worst case and a self-pair
    return [(0, num_cores - 1), (3, 3)] + [(int(s), int(d)) for s, d in pairs]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_routes_are_link_walks_of_advertised_length(name, size):
    topo = TOPOLOGIES[name](size)
    links = set(topo.links())
    for src, dst in _sample_pairs(size, seed=size + hash(name) % 1000):
        path = topo.route(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) == topo.distance(src, dst) + 1
        for u, v in zip(path, path[1:]):
            assert (u, v) in links, f"{name}@{size}: hop {u}->{v} not a link"


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(set(TOPOLOGIES) - {"uni-ring"}))
def test_distance_symmetric(name, size):
    topo = TOPOLOGIES[name](size)
    for src, dst in _sample_pairs(size, seed=7 * size):
        assert topo.distance(src, dst) == topo.distance(dst, src)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_distance_row_matches_scalar(name, size):
    topo = TOPOLOGIES[name](size)
    rng = np.random.default_rng(size)
    for src in rng.integers(0, size, size=4):
        row = topo.distance_row(int(src))
        assert row.shape == (size,)
        for dst in rng.integers(0, size, size=32):
            assert int(row[dst]) == topo.distance(int(src), int(dst))
        assert int(row[src]) == 0


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_links_are_distance_one_and_sorted(name, size):
    topo = TOPOLOGIES[name](size)
    links = topo.links()
    assert links == sorted(links)  # fault-injection determinism contract
    assert len(links) == len(set(links))
    for u, v in links:
        assert topo.distance(u, v) == 1


def test_cluster_distance_decomposes_through_hubs():
    topo = ClusterMesh(*_CLUSTER_SHAPES[1024])

    def manhattan(a, b):  # XY distance inside the flat grid
        (ax, ay), (bx, by) = topo.coords(a), topo.coords(b)
        return abs(ax - bx) + abs(ay - by)

    for src, dst in _sample_pairs(1024, seed=42):
        scx, scy = topo.cluster_of(src)
        dcx, dcy = topo.cluster_of(dst)
        d = topo.distance(src, dst)
        if (scx, scy) == (dcx, dcy):
            assert d == manhattan(src, dst)
        else:
            hs, hd = topo.hub(scx, scy), topo.hub(dcx, dcy)
            assert d == (
                manhattan(src, hs)
                + abs(dcx - scx)
                + abs(dcy - scy)
                + manhattan(hd, dst)
            )


# ------------------------------------------------------- memory bounds
def test_route_cache_never_exceeds_cap():
    topo = Mesh2D.square(1024)
    cap = topo.route_cache_cap
    assert cap < 1024 * 1024  # the point: far below P² pairs
    rng = np.random.default_rng(0)
    for src, dst in rng.integers(0, 1024, size=(cap + 500, 2)):
        topo.route_cached(int(src), int(dst))
    assert len(topo._route_cache) <= cap
    # evicted entries are rebuilt correctly on demand
    path = topo.route_cached(0, 1023)
    assert path == topo.route(0, 1023)
    assert len(topo._route_cache) <= cap

