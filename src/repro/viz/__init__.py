"""Visualization: PPM writers, composites, terminal charts."""

from repro.viz.ascii_chart import line_chart
from repro.viz.composite import (
    DEFAULT_CLASS_PALETTE,
    PAPER_COMPOSITE_BANDS_UM,
    classification_to_rgb,
    false_color_composite,
    mark_targets,
    stretch,
)
from repro.viz.ppm import write_ppm
from repro.viz.timeline import ascii_gantt, gantt_of_run, gantt_of_trace

__all__ = [
    "ascii_gantt",
    "gantt_of_run",
    "gantt_of_trace",
    "DEFAULT_CLASS_PALETTE",
    "PAPER_COMPOSITE_BANDS_UM",
    "classification_to_rgb",
    "false_color_composite",
    "line_chart",
    "mark_targets",
    "stretch",
    "write_ppm",
]
