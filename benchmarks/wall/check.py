"""Output checker: every call is an attempted operation.

Detectors must reproduce the sequential target set bit for bit (the
invariant ``tests/test_parallel_equivalence.py`` pins); classifiers must
label identically on both backends and score within ten points of the
sequential run; the regenerated tables must be complete and finite and
every exported trace file must parse.  References are computed here,
outside the timed passes, and their cost is reported as
``bench.reference_s``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.hsi import score_classification

from workloads import SEQUENTIAL, Context, Op, parallel, retrying

#: Allowed gap between a parallel classifier's overall accuracy and the
#: sequential run's, in percentage points.  PCT and MORPH select their
#: class representatives per partition, so the two legitimately differ:
#: over seeds 0-69 on the grid scene the gap reached 6.6 points (PCT)
#: and 5.2 (MORPH), the parallel run as often the better one.
ACCURACY_POINTS = 10.0


class References:
    """Reference outputs per (algorithm, scene variant, parameters),
    computed once each."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.seconds = 0.0
        self._sequential: dict[tuple, Any] = {}
        self._labels: dict[tuple, Any] = {}

    def sequential(self, op: Op) -> Any:
        """The sequential output on ``op``'s scene with its parameters.
        A sequential call's own first output becomes the reference the
        later ones must reproduce, so ``seq`` runs nothing twice."""
        key = (op.algorithm, op.variant, op.cfg.n_targets)
        if key not in self._sequential:
            if op.backend == "seq":
                self._sequential[key] = op.output
            else:
                start = time.perf_counter()
                self._sequential[key] = SEQUENTIAL[op.algorithm](
                    self.ctx.grid_scene(op.variant).image, op.cfg
                )
                self.seconds += time.perf_counter() - start
        return self._sequential[key]

    def labels(self, op: Op, backend: str) -> Any:
        """Labels of a run of ``op``'s classifier on the other backend."""
        key = (op.algorithm, op.variant, backend)
        if key not in self._labels:
            start = time.perf_counter()
            self.ctx.variant = op.variant
            self._labels[key] = retrying(self.ctx, lambda: parallel(
                self.ctx, "reference", op.algorithm, backend
            )).output.labels
            self.seconds += time.perf_counter() - start
        return self._labels[key]

    def overall(self, labels: Any, variant: int) -> float:
        scene = self.ctx.grid_scene(variant)
        return score_classification(
            scene.truth.class_map,
            np.asarray(labels).reshape(scene.truth.class_map.shape),
            scene.class_names,
        ).overall


def _finite_positive(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _check_detector(refs: References, op: Op) -> list[str]:
    expected = refs.sequential(op).flat_indices
    if not np.array_equal(op.output.flat_indices, expected):
        return ["flat_indices differ from the sequential reference"]
    return []


def _check_classifier(refs: References, op: Op) -> list[str]:
    sequential = refs.sequential(op)
    if op.backend == "seq":
        if not np.array_equal(op.output.labels, sequential.labels):
            return ["sequential labels are not reproducible"]
        return []
    failures = []
    other = "inproc" if op.backend == "sim" else "sim"
    if not np.array_equal(op.output.labels, refs.labels(op, other)):
        failures.append(f"labels differ between {op.backend} and {other}")
    gap = abs(
        refs.overall(op.output.labels, op.variant)
        - refs.overall(sequential.labels, op.variant)
    )
    if not gap <= ACCURACY_POINTS:
        failures.append(
            f"overall accuracy {gap:.2f} points from the sequential run"
        )
    return failures


def _check_grid(refs: References, op: Op) -> list[str]:
    grid = op.output
    failures = []
    if (len(grid.row_labels), len(grid.network_names)) != (6, 4):
        failures.append(
            f"grid is {len(grid.row_labels)} rows x "
            f"{len(grid.network_names)} networks, expected 6 x 4"
        )
    if not all(_finite_positive(c.total) for c in grid.cells.values()):
        failures.append("a grid cell's makespan is not finite and positive")
    return failures


def _check_tables(refs: References, op: Op) -> list[str]:
    out = op.output
    grid = out["table5"].grid
    failures = []
    for label in grid.row_labels:
        for network in grid.network_names:
            breakdown = out["table6"].breakdowns[label][network]
            scores = out["table7"].scores[label][network]
            values = (
                out["table5"].times[label][network],
                breakdown.com, breakdown.seq, breakdown.par,
                scores.d_all, scores.d_minus,
            )
            if not all(_finite_positive(v) for v in values):
                failures.append(f"tables 5-7 ({label}, {network}): {values}")
    table8 = out["table8"]
    if len(table8.cpus) != 9:
        failures.append(f"table 8 has {len(table8.cpus)} CPU counts, not 9")
    for algorithm, series in table8.times.items():
        if not all(_finite_positive(series[p]) for p in table8.cpus):
            failures.append(f"table 8 {algorithm}: {series}")
    for path in (out["figure1"].composite_path,
                 out["figure1"].thermal_map_path,
                 out["figure1"].class_map_path):
        if not Path(path).stat().st_size:
            failures.append(f"{path} is empty")
    if not all(_finite_positive(s.overall) for s in out["table4"].scores.values()):
        failures.append("table 4 accuracy is not finite and positive")
    return failures


def _check_plan(refs: References, op: Op) -> list[str]:
    return [
        f"plan for {plan.algorithm} predicts {plan.predicted_makespan_s!r}"
        for plan in op.output
        if not _finite_positive(plan.predicted_makespan_s)
    ]


def _parses(path: Path) -> bool:
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".json":
            json.loads(text)
        elif path.suffix == ".jsonl":
            for line in text.splitlines():
                json.loads(line)
    except json.JSONDecodeError:
        return False
    return bool(text.strip())


def _check_traced(refs: References, op: Op) -> list[str]:
    return [
        f"exported file {path.name} does not parse"
        for run in op.output for path in run.files
        if not _parses(path)
    ]


_CHECKS = {
    "detector": _check_detector,
    "classifier": _check_classifier,
    "grid": _check_grid,
    "tables": _check_tables,
    "plan": _check_plan,
    "traced": _check_traced,
}


def check_op(refs: References, op: Op) -> list[str]:
    """Why ``op`` failed, or ``[]``."""
    return [f"{op.name}: {why}" for why in _CHECKS[op.kind](refs, op)]
