"""Traced demonstration runs for the ``--trace`` CLI flag.

Runs one algorithm end to end with a fresh :class:`ObsSession` on the
requested backend and dumps every export format next to each other:

* ``<algorithm>_<backend>.trace.json`` — Chrome trace-event JSON
  (load in Perfetto / ``chrome://tracing``);
* ``<algorithm>_<backend>.metrics.json`` — the metrics registry;
* ``<algorithm>_<backend>.jsonl`` — spans + metrics, one object per line;
* ``<algorithm>_<backend>.summary.txt`` — per-rank category table and
  the span-derived COM/SEQ/PAR triple;
* ``<algorithm>_<backend>.analysis.json`` / ``.analysis.txt`` — the
  :func:`repro.obs.analyze_trace` report (critical path, blocked-time
  attribution, link utilization, and — on the sim backend — WEA
  imbalance attribution).

The CLI writes ``<algorithm>_<backend>.prom`` (the registry as
OpenMetrics text) beside them; every other view of the run is
computed from its ``.jsonl`` (``python -m repro profile analyze``,
``python -m repro whatif predict|causal|sweep``).

On the sim backend the span triple is additionally cross-checked
against the engine's phase ledger (:func:`breakdown_of_run`) — the two
are computed from independent code paths, so agreement is a strong
end-to-end test of the instrumentation.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.cluster.presets import fully_heterogeneous
from repro.core.runner import ParallelRun, run_parallel
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.hsi.scene import WTCScene, make_wtc_scene

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.recovery import RecoveredRun
    from repro.tuning.planner import TuningPlan
from repro.obs import (
    ObsSession,
    TraceAnalysis,
    analyze_trace,
    breakdown_from_spans,
    summary_table,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.perf.timers import breakdown_of_run

__all__ = ["TracedRun", "demo_run", "run_traced"]

#: Tolerance for the span-ledger COM/SEQ/PAR cross-check.
CROSSCHECK_TOL = 1e-9


def _resolve_plan(
    plan_mode: "str | None",
    cfg: ExperimentConfig,
    algorithm: str,
    backend: str,
    platform,
) -> "TuningPlan | None":
    """``--plan`` flag value → an executable plan (or ``None``).

    ``"auto"`` invokes the planner on the run's scene dimensions and
    platform; ``"default"``/``None`` keeps the static configuration;
    any other string is read as a serialized plan document (the
    ``bench plan``/``run_traced`` export format).
    """
    if plan_mode is None or plan_mode == "default":
        return None
    from repro.tuning.planner import TuningPlan, plan_run

    if plan_mode == "auto":
        return plan_run(
            algorithm, platform,
            cfg.scene.rows, cfg.scene.cols, cfg.scene.bands,
            cfg.params_for(algorithm), backend=backend,
        )
    return TuningPlan.load(plan_mode)


@dataclasses.dataclass(frozen=True)
class TracedRun:
    """Outcome of one traced demo run (``files`` is empty until exported)."""

    run: Union[ParallelRun, "RecoveredRun"]
    obs: ObsSession
    files: tuple[Path, ...]
    analysis: TraceAnalysis
    plan: "TuningPlan | None" = None

    @property
    def n_spans(self) -> int:
        return len(self.obs.tracer)


def demo_run(
    cfg: ExperimentConfig,
    backend: str,
    algorithm: str,
    fault_plan: "FaultPlan | None",
    plan_mode: "str | None" = None,
    scene: WTCScene | None = None,
) -> TracedRun:
    """One traced demo run, nothing exported yet: execute on the
    Table 1/2 platform, cross-check the span ledger on fault-free sim
    runs, analyze the trace.  ``scene`` reuses an existing accuracy
    scene (else built from the config)."""
    scene = scene or make_wtc_scene(cfg.scene)
    platform = fully_heterogeneous()
    tuning = _resolve_plan(plan_mode, cfg, algorithm, backend, platform)
    obs = ObsSession.create()
    run: ParallelRun | RecoveredRun
    if fault_plan is not None:
        from repro.faults.recovery import run_with_recovery

        run = run_with_recovery(
            algorithm,
            scene.image,
            platform,
            params=cfg.params_for(algorithm),
            backend=backend,
            plan=fault_plan,
            obs=obs,
            tuning=tuning,
        )
    else:
        run = run_parallel(
            algorithm,
            scene.image,
            platform,
            params=cfg.params_for(algorithm),
            backend=backend,
            obs=obs,
            plan=tuning,
        )

    if backend == "sim" and fault_plan is None:
        assert run.sim is not None
        ledger = breakdown_of_run(run.sim)
        spans = breakdown_from_spans(obs)
        for key, ledger_value in (
            ("com", ledger.com), ("seq", ledger.seq), ("par", ledger.par)
        ):
            if abs(spans[key] - ledger_value) > CROSSCHECK_TOL:
                raise ExperimentError(
                    f"span-derived {key.upper()} {spans[key]!r} disagrees "
                    f"with the phase ledger {ledger_value!r}"
                )

    analysis = analyze_trace(
        obs,
        result=run.sim,
        partition=run.partition if run.sim is not None else None,
        platform=getattr(run, "platform", platform),
    )
    return TracedRun(
        run=run, obs=obs, files=(), analysis=analysis, plan=tuning
    )


def run_traced(
    config: ExperimentConfig | None = None,
    outdir: Path | str = "experiments_output",
    backend: str = "sim",
    algorithm: str = "atdca",
    fault_plan: "FaultPlan | None" = None,
    plan_mode: "str | None" = None,
    scene: WTCScene | None = None,
) -> TracedRun:
    """Run ``algorithm`` traced on ``backend`` and export everything.

    Uses the fully heterogeneous Table 1/2 platform and the accuracy
    scene (small enough that the wall-clock backend finishes quickly).

    With ``fault_plan`` the run goes through the fault-tolerant driver
    (:func:`repro.faults.recovery.run_with_recovery`): the plan's
    faults are injected, planned crashes recover onto survivor
    subsets, and the exported trace carries the ``fault``-category
    spans that :func:`repro.obs.fault_windows` reads.  The COM/SEQ/PAR
    ledger cross-check is skipped for such runs — the trace spans
    cover every attempt while the engine ledger covers only the final
    one, so they legitimately disagree.

    With ``plan_mode`` the run is configured by the autotuning planner
    (``"auto"``), a serialized plan document (a path), or the static
    defaults (``"default"``/``None``).  Planned runs additionally
    export ``<stem>.plan.json`` — the plan document with its checkable
    makespan prediction.  ``scene`` reuses an existing accuracy scene.
    """
    cfg = config or ExperimentConfig()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{algorithm}_{backend}"
    demo = demo_run(
        cfg, backend, algorithm, fault_plan, plan_mode=plan_mode, scene=scene
    )
    obs, analysis, tuning = demo.obs, demo.analysis, demo.plan
    trace_path = out / f"{stem}.trace.json"
    metrics_path = out / f"{stem}.metrics.json"
    jsonl_path = out / f"{stem}.jsonl"
    summary_path = out / f"{stem}.summary.txt"
    analysis_json = out / f"{stem}.analysis.json"
    analysis_txt = out / f"{stem}.analysis.txt"
    write_chrome_trace(trace_path, obs)
    write_metrics_json(metrics_path, obs)
    write_jsonl(jsonl_path, obs)
    summary_path.write_text(summary_table(obs) + "\n", encoding="utf-8")
    analysis.write_json(analysis_json)
    analysis.write_text(analysis_txt)
    files = [
        trace_path, metrics_path, jsonl_path, summary_path,
        analysis_json, analysis_txt,
    ]
    if tuning is not None:
        import json

        plan_path = out / f"{stem}.plan.json"
        plan_path.write_text(
            json.dumps(tuning.to_document(), sort_keys=True, indent=2)
            + "\n",
            encoding="utf-8",
        )
        files.append(plan_path)

    return dataclasses.replace(demo, files=tuple(files))

