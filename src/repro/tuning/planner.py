"""Cost-model-driven autotuning planner.

Prices each **WEA partition variant** (``hetero``/``dlt``/``homo``) of
one run with the analytic platform model
(:func:`repro.experiments.model.model_run`, the same op-program engine
the what-if replay executes) and picks the one minimizing predicted
makespan: each candidate is partitioned via
:func:`repro.core.runner.make_row_partition_for_dims` and priced by
``model_run`` under the run's cost model.  The plan chooses nothing it
does not price, and depends on nothing but its arguments.

Every plan ships with its prediction (*and* the default variant's
prediction, so improvement claims are checkable), making each planner
decision auditable in ``analysis.json``.

Because the default partition variant is always in the candidate set and
ties break toward it in candidate order, the chosen plan's predicted
makespan is ≤ the default's **by construction**; the ``bench plan`` gate
(:mod:`repro.obs.bench`) additionally checks the prediction against the
executed run (≤ 1e-9 relative error on the virtual-time backend) and the
measured improvement against the committed floor.

This module is deliberately *not* re-exported from
:mod:`repro.tuning`: it imports the runner and experiments layers,
which ``import repro.tuning`` need not load.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.platform import HeterogeneousPlatform
from repro.core.runner import ALGORITHM_NAMES, make_row_partition_for_dims
from repro.errors import ConfigurationError
from repro.experiments.model import model_run
from repro.scheduling.static_part import RowPartition

__all__ = [
    "PLAN_SCHEMA",
    "PARTITION_VARIANTS",
    "TuningPlan",
    "plan_run",
]

#: Schema tag stamped into every serialized plan document.
PLAN_SCHEMA = "repro.tuning.plan/1"

#: Candidate WEA partition variants, in tie-break order.
PARTITION_VARIANTS: tuple[str, ...] = ("hetero", "dlt", "homo")


@dataclasses.dataclass(frozen=True)
class TuningPlan:
    """One planner decision, with its checkable prediction.

    Attributes:
        algorithm / backend / rows / cols / bands: the planned workload.
        platform_name / platform_size: identity of the planned platform
            (plans are validated against the run's platform at dispatch).
        partition_variant: the chosen WEA variant.
        partition_counts: the chosen partition's per-rank row counts.
        predicted_makespan_s: ``model_run`` total under the run's cost
            model for the chosen configuration.
        candidates: partition variant → predicted makespan, for every
            candidate evaluated (auditable alternatives).
        default_variant / default_predicted_s: the static default this
            plan is measured against.
        params: scalar algorithm parameters the plan was made for.
    """

    algorithm: str
    backend: str
    rows: int
    cols: int
    bands: int
    platform_name: str
    platform_size: int
    partition_variant: str
    partition_counts: tuple[int, ...]
    predicted_makespan_s: float
    candidates: Mapping[str, float]
    default_variant: str
    default_predicted_s: float
    params: Mapping[str, Any]

    @property
    def improvement(self) -> float:
        """Predicted default/chosen makespan ratio (≥ 1 by construction)."""
        if self.predicted_makespan_s <= 0:
            return 1.0
        return self.default_predicted_s / self.predicted_makespan_s

    def row_partition(self) -> RowPartition:
        """The planned partition as an executable :class:`RowPartition`."""
        return RowPartition(self.partition_counts)

    def check_matches(
        self, algorithm: str, rows: int, cols: int, bands: int,
        platform_size: int,
    ) -> None:
        """Raise unless the plan was made for this algorithm, scene
        shape and rank count — a plan for anything else would dispatch a
        partition the run cannot execute."""
        mismatches = [
            f"{what}: plan has {got!r}, run has {want!r}"
            for what, got, want in (
                ("algorithm", self.algorithm, algorithm),
                ("rows", self.rows, int(rows)),
                ("cols", self.cols, int(cols)),
                ("bands", self.bands, int(bands)),
                ("platform size", self.platform_size, int(platform_size)),
            )
            if got != want
        ]
        if mismatches:
            raise ConfigurationError(
                "tuning plan does not match this run — "
                + "; ".join(mismatches)
            )

    def to_document(self) -> dict[str, Any]:
        """Serialize to a stable, schema-versioned JSON document."""
        return {
            "schema": PLAN_SCHEMA,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "scene": {
                "rows": int(self.rows),
                "cols": int(self.cols),
                "bands": int(self.bands),
            },
            "platform": {
                "name": self.platform_name,
                "size": int(self.platform_size),
            },
            "partition_variant": self.partition_variant,
            "partition_counts": [int(c) for c in self.partition_counts],
            "predicted_makespan_s": float(self.predicted_makespan_s),
            "candidates": {
                name: float(value)
                for name, value in self.candidates.items()
            },
            "default_variant": self.default_variant,
            "default_predicted_s": float(self.default_predicted_s),
            "params": dict(self.params),
        }

    @classmethod
    def from_document(cls, doc: Mapping[str, Any]) -> "TuningPlan":
        """Rehydrate a plan from :meth:`to_document` output.

        Keys the plan does not read are ignored, so a document written
        when plans also named kernel variants, a checkpoint cadence or
        calibration scales still loads.
        """
        schema = doc.get("schema")
        if schema != PLAN_SCHEMA:
            raise ConfigurationError(
                f"expected schema {PLAN_SCHEMA!r}, got {schema!r}"
            )
        scene = doc["scene"]
        platform = doc["platform"]
        return cls(
            algorithm=str(doc["algorithm"]),
            backend=str(doc["backend"]),
            rows=int(scene["rows"]),
            cols=int(scene["cols"]),
            bands=int(scene["bands"]),
            platform_name=str(platform["name"]),
            platform_size=int(platform["size"]),
            partition_variant=str(doc["partition_variant"]),
            partition_counts=tuple(
                int(c) for c in doc["partition_counts"]
            ),
            predicted_makespan_s=float(doc["predicted_makespan_s"]),
            candidates={
                str(k): float(v) for k, v in doc["candidates"].items()
            },
            default_variant=str(doc["default_variant"]),
            default_predicted_s=float(doc["default_predicted_s"]),
            params=dict(doc.get("params", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TuningPlan":
        """Read a serialized plan from ``path``."""
        return cls.from_document(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def plan_run(
    algorithm: str,
    platform: HeterogeneousPlatform,
    rows: int,
    cols: int,
    bands: int,
    params: Mapping[str, Any] | None = None,
    *,
    backend: str = "sim",
    cost_model: CostModel | None = None,
    default_variant: str = "hetero",
) -> TuningPlan:
    """Plan one run: the WEA partition variant it predicts fastest.

    Args:
        algorithm: one of :data:`repro.core.runner.ALGORITHM_NAMES`.
        platform: processors + network the run will execute on.
        rows / cols / bands: scene dimensions (the planner never needs
            pixel data — partitions and the analytic model depend only
            on shape, which is what makes plans reproducible artifacts).
        params: algorithm parameters, as for ``run_parallel``.
        backend: which backend the plan targets, recorded in the plan
            (predictions are exact on ``"sim"`` for the detectors and
            upper bounds for pct/morph).
        cost_model: the cost model the candidates are priced under.
        default_variant: the static choice the plan is measured against;
            always included in the candidate set, and ties break in
            candidate order, so the plan's prediction is ≤ the
            default's by construction.

    Returns:
        A :class:`TuningPlan` carrying the chosen configuration, its
        prediction and every candidate's prediction.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{ALGORITHM_NAMES}"
        )
    if default_variant not in PARTITION_VARIANTS:
        raise ConfigurationError(
            f"unknown default variant {default_variant!r}; expected one "
            f"of {PARTITION_VARIANTS}"
        )
    params = dict(params or {})
    cost = cost_model or DEFAULT_COST_MODEL

    candidates: dict[str, float] = {}
    partitions: dict[str, RowPartition] = {}
    for variant in PARTITION_VARIANTS:
        partition = make_row_partition_for_dims(
            platform, rows, cols, bands, algorithm, params,
            variant=variant, cost_model=cost,
        )
        partitions[variant] = partition
        candidates[variant] = float(model_run(
            algorithm, platform, partition, rows, cols, bands,
            params=params, cost_model=cost,
        ).total)

    best = default_variant
    for variant in PARTITION_VARIANTS:
        if candidates[variant] < candidates[best]:
            best = variant

    scalar_params = {
        k: v for k, v in params.items()
        if isinstance(v, (int, float, str, bool))
    }
    return TuningPlan(
        algorithm=algorithm,
        backend=backend,
        rows=int(rows),
        cols=int(cols),
        bands=int(bands),
        platform_name=platform.name,
        platform_size=int(platform.size),
        partition_variant=best,
        partition_counts=tuple(
            int(c) for c in partitions[best].counts
        ),
        predicted_makespan_s=candidates[best],
        candidates=candidates,
        default_variant=default_variant,
        default_predicted_s=candidates[default_variant],
        params=scalar_params,
    )
