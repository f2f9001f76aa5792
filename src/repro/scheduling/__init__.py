"""Heterogeneity-aware scheduling: WEA partitioning and its baselines."""

from repro.scheduling.dynamic import dynamic_master_worker
from repro.scheduling.iterative import (
    iterative_makespan,
    optimal_iterative_fractions,
)
from repro.scheduling.heho import (
    EquivalenceReport,
    check_equivalence,
    heterogeneous_efficiency,
)
from repro.scheduling.static_part import (
    RowPartition,
    dlt_fractions,
    halo_compensated_rows,
    heterogeneous_fractions,
    homogeneous_fractions,
    rows_from_fractions,
    wea_partition,
)

__all__ = [
    "EquivalenceReport",
    "RowPartition",
    "check_equivalence",
    "dlt_fractions",
    "dynamic_master_worker",
    "halo_compensated_rows",
    "iterative_makespan",
    "optimal_iterative_fractions",
    "heterogeneous_efficiency",
    "heterogeneous_fractions",
    "homogeneous_fractions",
    "rows_from_fractions",
    "wea_partition",
]
