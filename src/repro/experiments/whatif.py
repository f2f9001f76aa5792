"""The ``whatif`` experiment: causal profile + capacity plan.

Backs two CLI surfaces:

* the ``whatif`` experiment name — a traced demo run followed by a
  causal (virtual-speedup) profile and a capacity-planning sweep,
  rendered into the experiments transcript like any table;
* the ``--whatif PLAN`` flag — replay the traced demo run under a JSON
  what-if plan and report the predicted makespan change.

Everything downstream of the single sim run is deterministic replay
(:mod:`repro.obs.whatif`), so repeated invocations produce
byte-identical JSON artifacts.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from repro.cluster.presets import fully_heterogeneous
from repro.experiments.config import ExperimentConfig
from repro.experiments.traced import TracedRun, demo_run
from repro.obs.causal import CausalProfile, causal_profile
from repro.obs.export import write_json
from repro.obs.whatif import (
    WhatIfPlan,
    capacity_sweep,
    predict,
    sweep_table,
)

__all__ = ["WhatIfResult", "run_whatif", "DEFAULT_SWEEP_SIZES"]

#: Cluster sizes of the default capacity sweep (recorded size is 16).
DEFAULT_SWEEP_SIZES = (4, 8, 12, 16, 24)


@dataclasses.dataclass(frozen=True)
class WhatIfResult:
    """Causal profile + capacity sweep (+ optional plan prediction)."""

    causal: CausalProfile
    sweep: dict[str, Any]
    prediction: dict[str, Any] | None
    plan: WhatIfPlan | None
    files: tuple[Path, ...]

    def to_text(self) -> str:
        parts = [self.causal.to_text(), "", sweep_table(self.sweep)]
        if self.prediction is not None:
            doc = self.prediction
            name = (self.plan.name if self.plan else "") or "<unnamed>"
            parts += [
                "",
                f"what-if plan {name!r}: baseline "
                f"{doc['baseline_makespan_s']:.6f}s -> predicted "
                f"{doc['predicted_makespan_s']:.6f}s "
                f"({doc['delta_pct']:+.2f}%, "
                f"speedup {doc['speedup']:.3f}x)",
            ]
        return "\n".join(parts)


def run_whatif(
    config: ExperimentConfig | None = None,
    plan: WhatIfPlan | None = None,
    traced: TracedRun | None = None,
    outdir: Path | str | None = None,
    sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
    speedup_pct: float = 10.0,
    jobs: int | None = None,
) -> WhatIfResult:
    """Causal-profile and capacity-plan one traced demo run.

    Pass ``traced`` to reuse an existing sim :class:`TracedRun` (the
    CLI reuses the ``--trace`` run); otherwise a fresh demo run
    executes.  With ``outdir`` the JSON artifacts are written as
    ``whatif_causal.json`` / ``whatif_sweep.json`` (and
    ``whatif_predict.json`` when a plan is given).
    """
    cfg = config or ExperimentConfig()
    platform = fully_heterogeneous()
    source = (
        traced if traced is not None
        else demo_run(cfg, "sim", "atdca", None)
    )
    obs = source.obs
    causal = causal_profile(
        obs, platform, speedup_pct=speedup_pct, jobs=jobs
    )
    sweep = capacity_sweep(obs, platform, sizes, jobs=jobs)
    prediction = predict(obs, platform, plan) if plan is not None else None
    files: list[Path] = []
    if outdir is not None:
        out = Path(outdir)
        files.append(write_json(out / "whatif_causal.json", causal.to_dict()))
        files.append(write_json(out / "whatif_sweep.json", sweep))
        if prediction is not None:
            files.append(write_json(out / "whatif_predict.json", prediction))
    return WhatIfResult(
        causal=causal,
        sweep=sweep,
        prediction=prediction,
        plan=plan,
        files=tuple(files),
    )
