"""The Lastovetsky–Reddy heterogeneous-algorithm evaluation framework.

Section 3.1 evaluates heterogeneous algorithms by the principle that "a
heterogeneous algorithm cannot be executed on a heterogeneous network
faster than its homogeneous version on the equivalent homogeneous
network".  The equivalent homogeneous environment must have (1) the
same processor count, (2) per-processor speed equal to the average
heterogeneous speed, and (3) the same aggregate communication
characteristics.  This module checks platform equivalence under those
three principles.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError

__all__ = ["EquivalenceReport", "check_equivalence"]


@dataclasses.dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the three-principle equivalence check.

    Attributes:
        same_processor_count: principle 1.
        speed_ratio: homogeneous speed / mean heterogeneous speed
            (principle 2; 1.0 is exact).
        capacity_ratio: homogeneous mean capacity / heterogeneous mean
            capacity (principle 3; 1.0 is exact).
        equivalent: all three principles hold within tolerance.
    """

    same_processor_count: bool
    speed_ratio: float
    capacity_ratio: float
    tolerance: float

    @property
    def equivalent(self) -> bool:
        return (
            self.same_processor_count
            and abs(self.speed_ratio - 1.0) <= self.tolerance
            and abs(self.capacity_ratio - 1.0) <= self.tolerance
        )


def check_equivalence(
    heterogeneous: HeterogeneousPlatform,
    homogeneous: HeterogeneousPlatform,
    tolerance: float = 0.05,
) -> EquivalenceReport:
    """Check whether ``homogeneous`` is the Lastovetsky–Reddy equivalent
    of ``heterogeneous`` within a relative ``tolerance``.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    same_count = heterogeneous.size == homogeneous.size
    mean_speed = float(heterogeneous.speeds.mean())
    homo_speed = float(homogeneous.speeds.mean())
    speed_ratio = homo_speed / mean_speed if mean_speed > 0 else np.inf
    het_cap = heterogeneous.network.mean_capacity()
    hom_cap = homogeneous.network.mean_capacity()
    capacity_ratio = hom_cap / het_cap if het_cap > 0 else np.inf
    return EquivalenceReport(
        same_processor_count=same_count,
        speed_ratio=speed_ratio,
        capacity_ratio=capacity_ratio,
        tolerance=tolerance,
    )
