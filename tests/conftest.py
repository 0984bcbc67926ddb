"""Shared fixtures for the test suite.

Small, deterministic metric spaces and pre-built engines; the
integration tests layer random instances on top via their own seeds.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import (
    EuclideanMetric,
    ManhattanMetric,
    MetricSpace,
    TopKDominatingEngine,
)
from repro.metric.counting import CountingMetric
from repro.mtree import MTree
from repro.storage.buffer import BufferPool, LRUBuffer
from repro.storage.pages import PageManager


def make_vector_space(
    n: int,
    dims: int = 3,
    seed: int = 0,
    grid: int | None = None,
    metric=None,
) -> MetricSpace:
    """A random vector space; ``grid`` quantizes to force ties."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, dims))
    if grid is not None:
        points = np.round(points * grid) / grid
    return MetricSpace(
        list(points),
        CountingMetric(metric or EuclideanMetric()),
        name=f"test-{n}x{dims}",
    )


def run_threads(*workers, timeout=60.0):
    """Run each worker on its own thread, switching threads as often
    as the interpreter allows, and fail unless all of them finished."""
    import sys
    import threading

    threads = [threading.Thread(target=w) for w in workers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def make_engine(
    n: int = 120,
    dims: int = 3,
    seed: int = 0,
    grid: int | None = None,
    node_capacity: int = 12,
) -> TopKDominatingEngine:
    space = make_vector_space(n, dims, seed, grid)
    return TopKDominatingEngine(
        space,
        index_options={"node_capacity": node_capacity},
        rng=random.Random(seed),
    )


@pytest.fixture
def small_space() -> MetricSpace:
    return make_vector_space(n=80, dims=3, seed=1)

@pytest.fixture
def tie_space() -> MetricSpace:
    """A grid-quantized space with many exact distance ties."""
    return make_vector_space(n=90, dims=2, seed=2, grid=4)


@pytest.fixture
def small_engine() -> TopKDominatingEngine:
    return make_engine(n=120, dims=3, seed=3)


@pytest.fixture
def tie_engine() -> TopKDominatingEngine:
    return make_engine(n=100, dims=2, seed=4, grid=4)


@pytest.fixture
def buffer_pool() -> BufferPool:
    return BufferPool(index_capacity=16, aux_capacity=64)


@pytest.fixture
def small_tree(small_space, buffer_pool) -> MTree:
    return MTree.build(
        small_space,
        buffer_pool.index_buffer,
        node_capacity=8,
        rng=random.Random(0),
    )


@pytest.fixture
def fresh_buffer() -> LRUBuffer:
    return LRUBuffer(PageManager(), capacity=32)
