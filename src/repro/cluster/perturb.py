"""Declarative platform perturbations for what-if studies.

Each helper returns a *new* :class:`HeterogeneousPlatform` — the
original is never mutated — so a perturbed platform can be handed to
the virtual-time engine and compared against a what-if replay of the
same perturbation.  That round trip (edit the platform table, run the
engine, match the replay to 1e-9 relative) is the validation contract
of :mod:`repro.obs.whatif`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.cluster.accelerator import AcceleratorSpec
from repro.cluster.network import CommunicationNetwork
from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import PlatformError

__all__ = [
    "upgrade_ranks",
    "scale_rank_compute",
    "scale_latency",
    "extend_platform",
]


def scale_rank_compute(
    platform: HeterogeneousPlatform,
    rank: int,
    factor: float,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Scale one rank's modelled compute cost (cycle time) by ``factor``.

    Factors above 1 downgrade the node's calibrated speed — the
    adaptive repartitioner's response to a detected straggler: the WEA
    fractions computed from the edited platform assign the slowed rank
    proportionally fewer rows, while memory bounds and the network are
    untouched.  The node is renamed ``<old>~x<factor>`` so partitions
    and reports show which calibration entries were adapted.
    """
    if not 0 <= rank < platform.size:
        raise PlatformError(f"rank {rank} outside [0, {platform.size})")
    if factor <= 0 or not np.isfinite(factor):
        raise PlatformError(
            f"compute scale factor must be positive and finite, got {factor}"
        )
    procs = list(platform.processors)
    procs[rank] = dataclasses.replace(
        procs[rank],
        name=f"{procs[rank].name}~x{factor:g}",
        cycle_time=procs[rank].cycle_time * factor,
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name} [rank {rank} ~x{factor:g}]",
        processors=procs,
        network=platform.network,
        master_rank=platform.master_rank,
    )


def upgrade_ranks(
    platform: HeterogeneousPlatform,
    ranks: Sequence[int],
    accelerator: AcceleratorSpec,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Replace the processors at ``ranks`` with an accelerator tier.

    Each upgraded node keeps its own memory (the accelerator is an
    attached device; partition-size limits still come from host RAM)
    and is renamed ``<old>+<accelerator>`` so reports show which nodes
    were upgraded.
    """
    ranks = list(ranks)
    if not ranks:
        raise PlatformError("tier upgrade needs at least one rank")
    for r in ranks:
        if not 0 <= r < platform.size:
            raise PlatformError(f"rank {r} outside [0, {platform.size})")
    if len(set(ranks)) != len(ranks):
        raise PlatformError("tier-upgrade ranks must be distinct")
    procs = list(platform.processors)
    for r in ranks:
        procs[r] = dataclasses.replace(
            accelerator,
            name=f"{procs[r].name}+{accelerator.name}",
            memory_mb=procs[r].memory_mb,
        )
    return HeterogeneousPlatform(
        name=name or f"{platform.name}+{accelerator.name}x{len(ranks)}",
        processors=procs,
        network=platform.network,
        master_rank=platform.master_rank,
    )


def scale_latency(
    platform: HeterogeneousPlatform,
    factor: float,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """Scale the fixed per-message latency by ``factor``."""
    if factor < 0:
        raise PlatformError(f"latency factor must be >= 0, got {factor}")
    net = platform.network
    new_net = CommunicationNetwork(
        np.array(net.capacity_matrix, dtype=float, copy=True),
        segments=net.segments,
        latency_s=net.latency_s * factor,
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name} [latency x{factor:g}]",
        processors=platform.processors,
        network=new_net,
        master_rank=platform.master_rank,
    )


def extend_platform(
    platform: HeterogeneousPlatform,
    n: int,
    name: str | None = None,
) -> HeterogeneousPlatform:
    """A platform resized to exactly ``n`` ranks for capacity sweeps.

    ``n <= size`` keeps the first ``n`` ranks (a plain
    :meth:`~HeterogeneousPlatform.subset`).  ``n > size`` clones the
    existing non-master ranks round-robin: each clone joins its
    source's segment and inherits its source's capacity row; capacity
    between a clone and (a clone of) its own source uses the source
    segment's intra-segment capacity, falling back to the network mean
    when the segment had a single member.  Deterministic by
    construction.
    """
    if n < 1:
        raise PlatformError(f"platform size must be >= 1, got {n}")
    if n <= platform.size:
        return platform.subset(
            range(n), name=name or f"{platform.name}[{n} nodes]"
        )
    size = platform.size
    sources = [r for r in range(size) if r != platform.master_rank] or [
        platform.master_rank
    ]
    src_of = list(range(size)) + [
        sources[k % len(sources)] for k in range(n - size)
    ]
    net = platform.network

    def intra_capacity(segment: str) -> float:
        members = net.segments[segment]
        for i in members:
            for j in members:
                if i != j:
                    return net.capacity(i, j)
        return net.mean_capacity() or 1.0

    cap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            si, sj = src_of[i], src_of[j]
            if si != sj:
                cap[i, j] = net.capacity(si, sj)
            else:
                cap[i, j] = intra_capacity(net.segment_of(si))
    segments: dict[str, list[int]] = {}
    for i in range(n):
        segments.setdefault(net.segment_of(src_of[i]), []).append(i)
    new_net = CommunicationNetwork(
        cap, segments=segments, latency_s=net.latency_s
    )
    return HeterogeneousPlatform(
        name=name or f"{platform.name}[{n} nodes]",
        processors=[platform.processors[src_of[i]] for i in range(n)],
        network=new_net,
        master_rank=platform.master_rank,
    )
