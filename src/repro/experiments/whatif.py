"""The ``whatif`` experiment: causal profile + capacity plan.

A traced demo run followed by a causal (virtual-speedup) profile and
a capacity-planning sweep, rendered into the experiments transcript
like any table.  The prediction under a what-if plan is
``python -m repro whatif predict <stem>.jsonl PLAN`` on a ``--trace``
run's JSONL.

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
from repro.hsi.scene import WTCScene
from repro.obs.causal import CausalProfile, causal_profile
from repro.obs.export import write_json
from repro.obs.whatif import capacity_sweep, sweep_table

__all__ = ["WhatIfResult", "run_whatif", "DEFAULT_SWEEP_SIZES"]

#: Cluster sizes of the default capacity sweep (recorded size is 16).
DEFAULT_SWEEP_SIZES = (4, 8, 12, 16, 24)


@dataclasses.dataclass(frozen=True)
class WhatIfResult:
    """Causal profile + capacity sweep."""

    causal: CausalProfile
    sweep: dict[str, Any]
    files: tuple[Path, ...]

    def to_text(self) -> str:
        return "\n".join(
            [self.causal.to_text(), "", sweep_table(self.sweep)]
        )


def run_whatif(
    config: ExperimentConfig | None = None,
    traced: TracedRun | None = None,
    outdir: Path | str | None = None,
    sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
    speedup_pct: float = 10.0,
    scene: WTCScene | None = None,
) -> WhatIfResult:
    """Causal-profile and capacity-plan one traced demo run.

    Pass ``traced`` to reuse an existing sim :class:`TracedRun` (the
    CLI reuses the ``--trace`` run); otherwise a fresh demo run
    executes, on ``scene`` when given.  With ``outdir`` the JSON
    artifacts are written as ``whatif_causal.json`` /
    ``whatif_sweep.json``.
    """
    cfg = config or ExperimentConfig()
    platform = fully_heterogeneous()
    source = (
        traced if traced is not None
        else demo_run(cfg, "sim", "atdca", None, scene=scene)
    )
    obs = source.obs
    causal = causal_profile(obs, platform, speedup_pct=speedup_pct)
    sweep = capacity_sweep(obs, platform, sizes)
    files: list[Path] = []
    if outdir is not None:
        out = Path(outdir)
        files.append(write_json(out / "whatif_causal.json", causal.to_dict()))
        files.append(write_json(out / "whatif_sweep.json", sweep))
    return WhatIfResult(causal=causal, sweep=sweep, files=tuple(files))
