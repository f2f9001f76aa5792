"""Table 8 — Thunderhead execution times vs processor count.

Uses the analytic model (validated against the engine at small P) at
the paper's *full* scene dimensions with unscaled compute costs —
Thunderhead's cycle-time is in the same application-relative units as
Table 1, so the P=1 column lands directly at paper magnitudes.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping

import numpy as np

from repro.cluster.costs import CostModel
from repro.cluster.presets import thunderhead
from repro.core.runner import ALGORITHM_NAMES
from repro.experiments.config import (
    COMM_STREAMING_FACTOR,
    PAPER_BANDS,
    PAPER_COLS,
    PAPER_ROWS,
    PAPER_TABLE8,
    ExperimentConfig,
)
from repro.experiments.model import model_run
from repro.perf.report import format_table
from repro.perf.speedup import ScalingCurve
from repro.scheduling.static_part import RowPartition, rows_from_fractions

__all__ = ["Table8Result", "run_table8"]


@dataclasses.dataclass(frozen=True)
class Table8Result:
    """Measured Table 8: ``times[algorithm][cpus]`` in seconds."""

    times: Mapping[str, Mapping[int, float]]
    cpus: tuple[int, ...]
    paper: Mapping = dataclasses.field(default_factory=lambda: PAPER_TABLE8)

    def curve(self, algorithm: str) -> ScalingCurve:
        """The algorithm's scaling curve (input to Figure 2)."""
        series = self.times[algorithm.upper()]
        return ScalingCurve(
            algorithm=algorithm.upper(),
            cpus=self.cpus,
            times=tuple(series[p] for p in self.cpus),
        )

    def speedup_at(self, algorithm: str, cpus: int) -> float:
        series = self.times[algorithm.upper()]
        return series[self.cpus[0]] / series[cpus]

    def to_text(self) -> str:
        headers = ["CPUs"]
        for alg in ALGORITHM_NAMES:
            headers += [alg.upper(), f"{alg.upper()}(paper)"]
        rows = []
        for p in self.cpus:
            row: list = [p]
            for alg in ALGORITHM_NAMES:
                row += [
                    self.times[alg.upper()][p],
                    self.paper[alg.upper()].get(p),
                ]
            rows.append(row)
        return format_table(
            headers, rows,
            title="Table 8: Thunderhead execution times (s) by CPU count",
            precision=1,
        )


#: Each Thunderhead size, built once per process: the model only reads
#: a platform, and every Table 8 run sweeps the same sizes.
_thunderhead = functools.cache(thunderhead)


def run_table8(config: ExperimentConfig | None = None) -> Table8Result:
    """Model the Thunderhead sweep at full paper dimensions."""
    cfg = config or ExperimentConfig()
    cost = CostModel(comm_scale=1.0 / COMM_STREAMING_FACTOR)
    times: dict[str, dict[int, float]] = {a.upper(): {} for a in ALGORITHM_NAMES}
    for cpus in cfg.thunderhead_cpus:
        platform = _thunderhead(cpus)
        fractions = np.full(cpus, 1.0 / cpus)
        partition = RowPartition(
            rows_from_fractions(PAPER_ROWS, fractions, min_rows=1)
        )
        for alg in ALGORITHM_NAMES:
            result = model_run(
                alg,
                platform,
                partition,
                PAPER_ROWS,
                PAPER_COLS,
                PAPER_BANDS,
                params=cfg.params_for(alg),
                cost_model=cost,
            )
            times[alg.upper()][cpus] = result.total
    return Table8Result(times=times, cpus=tuple(cfg.thunderhead_cpus))
