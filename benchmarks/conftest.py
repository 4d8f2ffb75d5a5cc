"""Shared benchmark fixtures.

Workloads are generated once per session and cached; each bench prints
its experiment table (visible with ``pytest -s`` and in the saved
``bench_output.txt``) in addition to pytest-benchmark's timing table.
"""

from __future__ import annotations

import sys

import pytest

from repro.arch.config import SystemConfig, small_test_config
from repro.core.costs import CostModel
from repro.placement import first_touch
from repro.trace.synthetic import make_workload

sys.stdout.reconfigure(line_buffering=True)


@pytest.fixture(scope="session")
def paper_config() -> SystemConfig:
    """The paper's machine: 64 cores, 16 KB L1 + 64 KB L2 (Fig. 2)."""
    return SystemConfig(num_cores=64)


@pytest.fixture(scope="session")
def paper_cost(paper_config) -> CostModel:
    return CostModel(paper_config)


@pytest.fixture(scope="session")
def bench_config() -> SystemConfig:
    """Scaled-down config for the DES machines (16 cores)."""
    return small_test_config(num_cores=16, guest_contexts=4)


@pytest.fixture(scope="session")
def bench_cost(bench_config) -> CostModel:
    return CostModel(bench_config)


_WORKLOAD_CACHE: dict = {}


def cached_workload(name: str, **kwargs):
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = make_workload(name, **kwargs)
    return _WORKLOAD_CACHE[key]


_PLACEMENT_CACHE: dict = {}


def cached_first_touch(trace, num_cores):
    key = (id(trace), num_cores)
    if key not in _PLACEMENT_CACHE:
        _PLACEMENT_CACHE[key] = first_touch(trace, num_cores)
    return _PLACEMENT_CACHE[key]


def emit(title: str, body: str) -> None:
    print(f"\n===== {title} =====\n{body}\n", flush=True)
