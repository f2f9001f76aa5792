"""Heterogeneous cluster model: processors, networks, virtual-time engine."""

from repro.cluster.accelerator import AcceleratorSpec
from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.engine import (
    RankContext,
    SimulationEngine,
    SimulationResult,
    run_program,
)
from repro.cluster.mailbox import ANY_TAG, Router, payload_wire_megabits
from repro.cluster.network import (
    CommunicationNetwork,
    segmented_network,
    uniform_network,
)
from repro.cluster.perturb import (
    extend_platform,
    scale_latency,
    upgrade_ranks,
)
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.presets import (
    HETEROGENEOUS_PROCESSORS,
    HOMOGENEOUS_CAPACITY,
    HOMOGENEOUS_CYCLE_TIME,
    SEGMENT_CAPACITIES,
    all_networks,
    fully_heterogeneous,
    fully_homogeneous,
    partially_heterogeneous,
    partially_homogeneous,
    thunderhead,
)
from repro.cluster.processor import ProcessorSpec
from repro.cluster.simtime import (
    Op,
    Phase,
    PhaseLedger,
    TimingCore,
    VirtualClock,
)

__all__ = [
    "ANY_TAG",
    "AcceleratorSpec",
    "CommunicationNetwork",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "HETEROGENEOUS_PROCESSORS",
    "HOMOGENEOUS_CAPACITY",
    "HOMOGENEOUS_CYCLE_TIME",
    "HeterogeneousPlatform",
    "Op",
    "Phase",
    "PhaseLedger",
    "ProcessorSpec",
    "RankContext",
    "Router",
    "SEGMENT_CAPACITIES",
    "SimulationEngine",
    "SimulationResult",
    "TimingCore",
    "VirtualClock",
    "all_networks",
    "extend_platform",
    "fully_heterogeneous",
    "fully_homogeneous",
    "partially_heterogeneous",
    "partially_homogeneous",
    "payload_wire_megabits",
    "run_program",
    "scale_latency",
    "segmented_network",
    "thunderhead",
    "uniform_network",
    "upgrade_ranks",
]
