"""The evaluation platforms of Section 3.1 (Tables 1–2) plus NASA
Goddard's Thunderhead Beowulf cluster.

The four 16-node networks are meant to be mutually "equivalent" under
the Lastovetsky–Reddy framework: same processor count, homogeneous
speed = the average heterogeneous speed, aggregate communication
preserved.  The paper's *stated* homogeneous constants do not satisfy
its own framework, however: Table 1's speeds average 117.9 relative
Mflop/s (cycle-time 0.00848), not the stated 0.0131, and Table 2's
capacities average 77.9 ms/megabit, not the stated 26.64.  The
homogeneous presets therefore default to the *computed* equivalents
(so the equivalence-based evaluation is internally consistent), and
accept ``published=True`` to reproduce the stated constants instead.
"""

from __future__ import annotations

from repro.cluster.network import (
    CommunicationNetwork,
    segmented_network,
    uniform_network,
)
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.processor import ProcessorSpec
from repro.errors import ConfigurationError

__all__ = [
    "HETEROGENEOUS_PROCESSORS",
    "HOMOGENEOUS_CYCLE_TIME",
    "HOMOGENEOUS_CAPACITY",
    "SEGMENT_CAPACITIES",
    "equivalent_homogeneous_capacity",
    "equivalent_homogeneous_cycle_time",
    "fully_heterogeneous",
    "fully_homogeneous",
    "partially_heterogeneous",
    "partially_homogeneous",
    "thunderhead",
    "all_networks",
    "platform_by_name",
]

#: Table 1 — specifications of the 16 heterogeneous workstations.
HETEROGENEOUS_PROCESSORS: tuple[ProcessorSpec, ...] = (
    ProcessorSpec("p1", 0.0058, 2048, 1024, "FreeBSD - i386 Intel Pentium 4"),
    ProcessorSpec("p2", 0.0102, 1024, 512, "Linux - Intel Xeon"),
    ProcessorSpec("p3", 0.0026, 7748, 512, "Linux - AMD Athlon"),
    ProcessorSpec("p4", 0.0072, 1024, 1024, "Linux - Intel Xeon"),
    ProcessorSpec("p5", 0.0102, 1024, 512, "Linux - Intel Xeon"),
    ProcessorSpec("p6", 0.0072, 1024, 1024, "Linux - Intel Xeon"),
    ProcessorSpec("p7", 0.0072, 1024, 1024, "Linux - Intel Xeon"),
    ProcessorSpec("p8", 0.0102, 1024, 512, "Linux - Intel Xeon"),
    ProcessorSpec("p9", 0.0072, 1024, 1024, "Linux - Intel Xeon"),
    ProcessorSpec("p10", 0.0451, 512, 2048, "SunOS - SUNW UltraSparc-5"),
    ProcessorSpec("p11", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
    ProcessorSpec("p12", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
    ProcessorSpec("p13", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
    ProcessorSpec("p14", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
    ProcessorSpec("p15", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
    ProcessorSpec("p16", 0.0131, 2048, 1024, "Linux - AMD Athlon"),
)

#: Cycle-time of the identical workstations as *stated* in the paper.
HOMOGENEOUS_CYCLE_TIME = 0.0131
#: Capacity of the homogeneous network (ms/megabit) as *stated*.
HOMOGENEOUS_CAPACITY = 26.64

#: Table 2 — capacities by segment pair (ms to move one megabit).
SEGMENT_CAPACITIES: dict[tuple[str, str], float] = {
    ("s1", "s1"): 19.26,
    ("s1", "s2"): 48.31,
    ("s1", "s3"): 96.62,
    ("s1", "s4"): 154.76,
    ("s2", "s2"): 17.65,
    ("s2", "s3"): 48.31,
    ("s2", "s4"): 106.45,
    ("s3", "s3"): 16.38,
    ("s3", "s4"): 58.14,
    ("s4", "s4"): 14.05,
}

#: Segment membership: s1 = p1–p4, s2 = p5–p8, s3 = p9–p10, s4 = p11–p16.
_SEGMENT_SIZES = {"s1": 4, "s2": 4, "s3": 2, "s4": 6}


def _heterogeneous_network() -> CommunicationNetwork:
    return segmented_network(_SEGMENT_SIZES, SEGMENT_CAPACITIES)


def equivalent_homogeneous_cycle_time() -> float:
    """Cycle-time of the speed-equivalent homogeneous node (principle 2:
    the reciprocal of the average Table 1 speed, ≈ 0.00848 s/Mflop)."""
    speeds = [1.0 / p.cycle_time for p in HETEROGENEOUS_PROCESSORS]
    return 1.0 / (sum(speeds) / len(speeds))


def equivalent_homogeneous_capacity() -> float:
    """Uniform capacity preserving the aggregate of Table 2 (principle 3:
    the mean off-diagonal capacity, ≈ 77.9 ms/megabit)."""
    return _heterogeneous_network().mean_capacity()


def _homogeneous_processors(cycle_time: float) -> list[ProcessorSpec]:
    return [
        ProcessorSpec(f"q{i + 1}", cycle_time, 2048, 1024,
                      "Linux - AMD Athlon (equivalent homogeneous)")
        for i in range(16)
    ]


def fully_heterogeneous() -> HeterogeneousPlatform:
    """16 different workstations (Table 1) on the 4-segment network (Table 2)."""
    return HeterogeneousPlatform(
        "fully heterogeneous",
        HETEROGENEOUS_PROCESSORS,
        _heterogeneous_network(),
    )


def fully_homogeneous(published: bool = False) -> HeterogeneousPlatform:
    """16 identical workstations on a uniform network.

    Defaults to the Lastovetsky–Reddy *equivalent* constants computed
    from Tables 1–2; ``published=True`` uses the paper's stated
    w = 0.0131 / 26.64 ms instead (see module docstring).
    """
    w = HOMOGENEOUS_CYCLE_TIME if published else equivalent_homogeneous_cycle_time()
    cap = HOMOGENEOUS_CAPACITY if published else equivalent_homogeneous_capacity()
    return HeterogeneousPlatform(
        "fully homogeneous",
        _homogeneous_processors(w),
        uniform_network(16, cap),
    )


def partially_heterogeneous(published: bool = False) -> HeterogeneousPlatform:
    """The heterogeneous workstations on the homogeneous network."""
    cap = HOMOGENEOUS_CAPACITY if published else equivalent_homogeneous_capacity()
    return HeterogeneousPlatform(
        "partially heterogeneous",
        HETEROGENEOUS_PROCESSORS,
        uniform_network(16, cap),
    )


def partially_homogeneous(published: bool = False) -> HeterogeneousPlatform:
    """Identical workstations on the heterogeneous (Table 2) network."""
    w = HOMOGENEOUS_CYCLE_TIME if published else equivalent_homogeneous_cycle_time()
    return HeterogeneousPlatform(
        "partially homogeneous",
        _homogeneous_processors(w),
        _heterogeneous_network(),
    )


#: Thunderhead node cycle-time.  Table 1's cycle-times are
#: application-relative benchmark figures, not peak ratings, and the
#: paper's single-node times (Table 8: ATDCA 1263 s) put a Thunderhead
#: node in the same delivered-speed class as the homogeneous UMD
#: workstations — so we use the same relative figure (0.0131 s/Mflop);
#: peak (2457.6 Gflops / 256 nodes) would be ~130x faster than measured.
_THUNDERHEAD_CYCLE_TIME = 0.0131
#: 2 Gbit/s Myrinet → 0.5 ms per megabit.
_THUNDERHEAD_CAPACITY = 0.5


def thunderhead(n_nodes: int = 256) -> HeterogeneousPlatform:
    """NASA GSFC's Thunderhead Beowulf cluster (or its first ``n_nodes``).

    256 dual 2.4 GHz Xeon nodes, 1 GB memory each, 2 Gbit/s Myrinet.
    """
    if not 1 <= n_nodes <= 256:
        raise ConfigurationError(f"n_nodes must be in [1, 256], got {n_nodes}")
    procs = [
        ProcessorSpec(
            f"th{i:03d}", _THUNDERHEAD_CYCLE_TIME, 1024, 512,
            "Linux - dual Intel Xeon 2.4 GHz",
        )
        for i in range(n_nodes)
    ]
    return HeterogeneousPlatform(
        f"Thunderhead[{n_nodes}]",
        procs,
        uniform_network(n_nodes, _THUNDERHEAD_CAPACITY, latency_s=5e-5),
    )


def all_networks() -> dict[str, HeterogeneousPlatform]:
    """The four 16-node evaluation networks keyed by the paper's names."""
    return {
        "fully heterogeneous": fully_heterogeneous(),
        "fully homogeneous": fully_homogeneous(),
        "partially heterogeneous": partially_heterogeneous(),
        "partially homogeneous": partially_homogeneous(),
    }


def platform_by_name(name: str) -> HeterogeneousPlatform:
    """The evaluation network of that name (the CLIs' ``--platform``)."""
    platforms = all_networks()
    if name not in platforms:
        raise ConfigurationError(
            f"unknown platform {name!r} (choose from {sorted(platforms)})"
        )
    return platforms[name]
