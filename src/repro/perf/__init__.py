"""Performance analysis: phase breakdowns, imbalance, scaling, reports."""

from repro.perf.imbalance import ImbalanceScores, imbalance, imbalance_of_run
from repro.perf.report import format_table
from repro.perf.speedup import (
    ScalingCurve,
    amdahl_serial_fraction,
    efficiencies,
    speedups,
)
from repro.perf.timers import PhaseBreakdown, breakdown_of_run

__all__ = [
    "ImbalanceScores",
    "PhaseBreakdown",
    "ScalingCurve",
    "amdahl_serial_fraction",
    "breakdown_of_run",
    "efficiencies",
    "format_table",
    "imbalance",
    "imbalance_of_run",
    "speedups",
]
