"""Table 4 — classification accuracy of PCT vs MORPH.

Runs the sequential classifiers on the WTC scene and scores them
against the dust/debris ground truth (majority cluster-to-class
mapping, per-class producer's accuracy, overall accuracy).

Note the published Table 4's Hetero-MORPH column is corrupted (it
repeats Table 3's SAD values); the text's claim — MORPH above 93%
overall, substantially better than PCT (~80%) — is the comparison
target (DESIGN.md §4).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from repro.core.morph import morph_classify
from repro.core.pct import pct_classify
from repro.experiments.config import PAPER_TABLE4, ExperimentConfig
from repro.hsi.evaluation import ClassificationScore, score_classification
from repro.hsi.scene import WTCScene, make_wtc_scene
from repro.perf.report import format_table

__all__ = ["Table4Result", "run_table4"]


@dataclasses.dataclass(frozen=True)
class Table4Result:
    """Measured Table 4.

    Attributes:
        scores: algorithm → :class:`ClassificationScore`.
        wall_seconds: algorithm → sequential wall time.
        paper: published values (PCT column + MORPH overall claim).
    """

    scores: Mapping[str, ClassificationScore]
    wall_seconds: Mapping[str, float]
    paper: Mapping = dataclasses.field(default_factory=lambda: PAPER_TABLE4)

    def overall(self, algorithm: str) -> float:
        return self.scores[algorithm].overall

    def to_text(self) -> str:
        pct = self.scores["PCT"]
        morph = self.scores["MORPH"]
        rows = []
        for i, name in enumerate(pct.class_names):
            rows.append(
                [
                    name,
                    float(pct.per_class[i]),
                    self.paper["PCT"].get(name),
                    float(morph.per_class[i]),
                ]
            )
        rows.append(["Overall", pct.overall, self.paper["PCT"]["Overall"],
                     morph.overall])
        title = (
            "Table 4: classification accuracy (percent)\n"
            f"(paper's sequential times: PCT "
            f"{self.paper['times']['PCT']:.0f}s, MORPH "
            f"{self.paper['times']['MORPH']:.0f}s; paper MORPH column is "
            f"corrupt — text claims >{self.paper['MORPH']['Overall']:.0f}% overall)"
        )
        return format_table(
            ["Dust/debris class", "PCT", "PCT(paper)", "MORPH"],
            rows,
            title=title,
            precision=2,
        )


def run_table4(
    config: ExperimentConfig | None = None, scene: WTCScene | None = None
) -> Table4Result:
    """Measure Table 4 on the configured scene."""
    cfg = config or ExperimentConfig()
    scn = scene or make_wtc_scene(cfg.scene)
    truth = scn.truth.class_map

    scores: dict[str, ClassificationScore] = {}
    wall: dict[str, float] = {}

    start = time.perf_counter()
    pct = pct_classify(scn.image, cfg.n_classes)
    wall["PCT"] = time.perf_counter() - start
    scores["PCT"] = score_classification(truth, pct.labels, scn.class_names)

    start = time.perf_counter()
    morph = morph_classify(
        scn.image, cfg.n_classes, iterations=cfg.iterations
    )
    wall["MORPH"] = time.perf_counter() - start
    scores["MORPH"] = score_classification(truth, morph.labels, scn.class_names)

    return Table4Result(scores=scores, wall_seconds=wall)
