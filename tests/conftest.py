"""Shared fixtures.

Expensive artefacts (scenes, detection runs) are session-scoped: tests
treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    HeterogeneousPlatform,
    ProcessorSpec,
    fully_heterogeneous,
    uniform_network,
)
from repro.hsi import SceneConfig, make_wtc_scene


@pytest.fixture(scope="session")
def small_scene():
    """A small but fully featured WTC scene (rows=64, cols=32, bands=32)."""
    return make_wtc_scene(SceneConfig(rows=64, cols=32, bands=32, seed=7))


@pytest.fixture(scope="session")
def default_scene():
    """The default experiment scene (96 x 64 x 48, seed 7)."""
    return make_wtc_scene(SceneConfig())


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def het_platform():
    """The paper's fully heterogeneous 16-node platform."""
    return fully_heterogeneous()


def make_tiny_platform(
    cycle_times=(0.002, 0.004, 0.008, 0.008), capacity: float = 10.0
) -> HeterogeneousPlatform:
    """A small heterogeneous platform for fast engine tests."""
    procs = [
        ProcessorSpec(f"t{i}", w, memory_mb=4096, cache_kb=512)
        for i, w in enumerate(cycle_times)
    ]
    return HeterogeneousPlatform(
        "tiny", procs, uniform_network(len(procs), capacity)
    )


@pytest.fixture()
def tiny_platform():
    return make_tiny_platform()


def op_schedule(ops, network):
    """What a timing core's clocks and ledgers depend on: each rank's
    op subsequence and each serial link's transfer order."""
    per_rank: dict = {}
    per_link: dict = {}
    for op in ops:
        per_rank.setdefault(op.rank, []).append(op)
        if op.kind == "transfer":
            if op.dst != op.rank:
                per_rank.setdefault(op.dst, []).append(op)
            link = network.link_resource(op.rank, op.dst)
            if link is not None:
                per_link.setdefault(link, []).append(op)
    return per_rank, per_link
