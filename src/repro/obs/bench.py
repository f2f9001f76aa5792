"""Benchmark artifacts: the autotuning planner grid.

``python -m repro bench plan`` runs the planner against the static
default on a pinned grid of virtual-time cells and gates its
predictions, writing a schema-versioned JSON artifact.  The paper's
Tables 5–8 are gated exactly by ``experiments_output/grid.json``, which
``python -m repro experiments`` writes; wall-clock numbers, end to end
and per kernel, come from the paired runs of ``benchmarks/wall``.

Usage::

    python -m repro bench plan --gate          # autotuning planner gate

See README "Benchmarking & the regression gate" and EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.cluster.costs import CostModel
from repro.core.runner import run_parallel
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.hsi.scene import SceneConfig, make_wtc_scene
from repro.obs.export import write_json
from repro.obs.provenance import provenance
from repro.perf.fanout import job_count, ordered_map
from repro.perf.report import format_table

__all__ = [
    "PLAN_BENCH_SCHEMA",
    "BenchConfig",
    "run_plan_bench",
    "gate_plan",
    "plan_report",
    "main",
]

#: Schema stamp of the ``plan`` subcommand's artifact.
PLAN_BENCH_SCHEMA = "repro.obs.bench.plan/1"


#: Default grid for the ``plan`` subcommand: the two iterative
#: detectors only — their analytic models mirror the engine exactly
#: (data-independent charges), which is what makes the ≤1e-9 prediction
#: gate meaningful.  pct/morph predictions are upper bounds and are
#: validated by the what-if engine's looser crosscheck instead.
PLAN_ALGORITHMS: tuple[str, ...] = ("atdca", "ufcls")


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """The pinned grid of the planner benchmark.

    Defaults pin 8 cells: the two detectors whose analytic models are
    exact (:data:`PLAN_ALGORITHMS`), each planned against the hetero
    and the homo static default, on the most and least favourable
    16-node networks.
    """

    algorithms: tuple[str, ...] = PLAN_ALGORITHMS
    variants: tuple[str, ...] = ("hetero", "homo")
    networks: tuple[str, ...] = (
        "fully heterogeneous", "partially homogeneous",
    )
    rows: int = 384
    cols: int = 8
    bands: int = 32
    seed: int = 7
    n_targets: int = 18
    n_classes: int = 24

    def scene_config(self) -> SceneConfig:
        return SceneConfig(
            rows=self.rows, cols=self.cols, bands=self.bands, seed=self.seed
        )

    def params_for(self, algorithm: str) -> dict[str, Any]:
        if algorithm in ("atdca", "ufcls"):
            return {"n_targets": self.n_targets}
        return {"n_classes": self.n_classes}

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _cell_id(algorithm: str, variant: str, network: str) -> str:
    return f"{algorithm}/{variant}/{network}/sim"


def _sequential_reference_indices(
    algorithm: str, scene: Any, params: Mapping[str, Any]
) -> Any:
    from repro.core.atdca import atdca_pixels
    from repro.core.ufcls import ufcls_pixels

    pix = scene.image.flatten_pixels()
    t = int(params.get("n_targets", 18))
    if algorithm == "atdca":
        return atdca_pixels(pix, t).flat_indices
    return ufcls_pixels(pix, t).flat_indices


def _plan_cell(
    config: BenchConfig,
    scene: Any,
    cost: CostModel,
    task: tuple[str, str, str],
) -> tuple[str, dict[str, Any]]:
    """One planner-vs-default ``(network, algorithm, variant)`` cell →
    ``(cell_id, cell_doc)``.

    Plans the run with ``variant`` as the static default, executes both
    the default and the auto-planned configuration on the virtual-time
    backend, and compares each measured makespan against its prediction
    plus the auto result against the sequential reference.  Everything
    is deterministic, so the grid parallelizes byte-identically.
    """
    import numpy as np

    from repro.cluster.presets import all_networks
    from repro.tuning.planner import plan_run

    network, algorithm, variant = task
    cid = _cell_id(algorithm, variant, network)
    platform = all_networks()[network]
    params = config.params_for(algorithm)
    plan = plan_run(
        algorithm, platform, config.rows, config.cols, config.bands,
        params, backend="sim", cost_model=cost, default_variant=variant,
    )
    default_run = run_parallel(
        algorithm, scene.image, platform, params=params, variant=variant,
        backend="sim", cost_model=cost,
    )
    auto_run = run_parallel(
        algorithm, scene.image, platform, params=params,
        backend="sim", cost_model=cost, plan=plan,
    )
    assert default_run.sim is not None and auto_run.sim is not None
    seq_idx = _sequential_reference_indices(algorithm, scene, params)
    result_equal = bool(
        np.array_equal(auto_run.output.flat_indices, seq_idx)
    )

    def _rel_error(measured: float, predicted: float) -> float:
        if predicted == 0.0:
            return 0.0 if measured == 0.0 else float("inf")
        return abs(measured - predicted) / predicted

    auto_measured = float(auto_run.sim.makespan)
    default_measured = float(default_run.sim.makespan)
    return cid, {
        "backend": "sim",
        "network": network,
        "algorithm": algorithm,
        "default_variant": variant,
        "plan": plan.to_document(),
        "auto": {
            "measured_s": auto_measured,
            "predicted_s": float(plan.predicted_makespan_s),
            "rel_error": _rel_error(
                auto_measured, float(plan.predicted_makespan_s)
            ),
        },
        "default": {
            "measured_s": default_measured,
            "predicted_s": float(plan.default_predicted_s),
            "rel_error": _rel_error(
                default_measured, float(plan.default_predicted_s)
            ),
        },
        "improvement_predicted": float(plan.improvement),
        "improvement_measured": (
            default_measured / auto_measured if auto_measured > 0
            else float("inf")
        ),
        "result_equal": result_equal,
    }


def _check_plan_config(config: BenchConfig) -> None:
    """Raise :class:`~repro.errors.ReproError` naming ``config``'s
    invalid scene or its first unknown network, variant or algorithm."""
    from repro.cluster.presets import all_networks
    from repro.tuning.planner import PARTITION_VARIANTS

    config.scene_config()
    for what, values, known in (
        ("network", config.networks, tuple(all_networks())),
        ("variant", config.variants, PARTITION_VARIANTS),
    ):
        unknown = sorted(set(values) - set(known))
        if unknown:
            raise ReproError(
                f"unknown {what}(s) {unknown}; choose from {sorted(known)}"
            )
    for algorithm in config.algorithms:
        if algorithm not in PLAN_ALGORITHMS:
            raise ReproError(
                f"plan bench supports {list(PLAN_ALGORITHMS)} (exact "
                f"analytic models); got {algorithm!r}"
            )


def run_plan_bench(
    config: BenchConfig,
    date: str,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Execute the planner-vs-default grid and return the artifact.

    Every cell runs on the virtual-time backend only (predictions are
    checkable there), and the grid fans out over a process pool
    byte-identically when ``jobs`` is given.  Every algorithm, variant
    and network is checked (:func:`_check_plan_config`) before the
    first cell runs.
    """
    _check_plan_config(config)
    scene = make_wtc_scene(config.scene_config())
    cost = ExperimentConfig().cost_model(config.scene_config())
    tasks = [
        (network, algorithm, variant)
        for network in config.networks
        for algorithm in config.algorithms
        for variant in config.variants
    ]
    cells = dict(ordered_map(
        _plan_cell, tasks, jobs, shared=(config, scene, cost)
    ))
    return {
        "schema": PLAN_BENCH_SCHEMA,
        "date": date,
        "config": config.to_dict(),
        "cells": cells,
        "provenance": provenance(),
    }


def gate_plan(
    artifact: Mapping[str, Any], gate: Mapping[str, Any]
) -> list[str]:
    """Check a plan-bench artifact against the committed tuning gate.

    Returns failure descriptions (empty = pass).  Per cell: the plan's
    prediction must not exceed the default's (auto ≤ default by
    construction — a violation means the tie-break broke), both
    predictions must match their measured makespans within
    ``max_prediction_rel_error``, and the auto-planned run must
    reproduce the sequential reference exactly.  Across the grid, the
    best measured improvement must reach ``min_best_improvement`` — the
    committed floor proving the planner actually beats the static
    default somewhere on the grid.
    """
    if artifact.get("schema") != PLAN_BENCH_SCHEMA:
        raise ReproError(
            f"unsupported plan-bench schema {artifact.get('schema')!r} "
            f"(expected {PLAN_BENCH_SCHEMA!r})"
        )
    max_rel = float(gate.get("max_prediction_rel_error", 1e-9))
    min_best = float(gate.get("min_best_improvement", 1.0))
    failures: list[str] = []
    best = 0.0
    best_cell = "(none)"
    cells = artifact.get("cells", {})
    if not cells:
        return ["no cells measured"]
    for cid in sorted(cells):
        cell = cells[cid]
        auto, default = cell["auto"], cell["default"]
        if auto["predicted_s"] > default["predicted_s"] * (1.0 + 1e-12):
            failures.append(
                f"{cid}: auto prediction {auto['predicted_s']:.6f}s "
                f"exceeds default {default['predicted_s']:.6f}s"
            )
        for side, doc in (("auto", auto), ("default", default)):
            if doc["rel_error"] > max_rel:
                failures.append(
                    f"{cid}: {side} prediction off by "
                    f"{doc['rel_error']:.3e} (> {max_rel:.0e}; predicted "
                    f"{doc['predicted_s']:.6f}s, measured "
                    f"{doc['measured_s']:.6f}s)"
                )
        if not cell.get("result_equal", False):
            failures.append(
                f"{cid}: auto-planned run diverged from the sequential "
                "reference"
            )
        if cell["improvement_measured"] > best:
            best = cell["improvement_measured"]
            best_cell = cid
    if best < min_best:
        failures.append(
            f"best measured improvement {best:.2f}x ({best_cell}) below "
            f"committed floor {min_best}x"
        )
    return failures


def plan_report(artifact: Mapping[str, Any]) -> str:
    """Render a plan-bench artifact as a monospace table."""
    rows = []
    for cid in sorted(artifact.get("cells", {})):
        cell = artifact["cells"][cid]
        rows.append([
            cid,
            cell["plan"]["partition_variant"],
            cell["default"]["measured_s"],
            cell["auto"]["measured_s"],
            cell["improvement_measured"],
            f"{max(cell['auto']['rel_error'], cell['default']['rel_error']):.1e}",
            "yes" if cell.get("result_equal") else "NO",
        ])
    headers = ["cell", "chosen", "default (s)", "auto (s)", "speedup",
               "pred err", "result=seq"]
    return format_table(
        headers, rows,
        title=(
            f"autotuning planner benchmark {artifact.get('date', '?')} "
            f"({artifact.get('schema')})"
        ),
        precision=4,
    )


# -- CLI ----------------------------------------------------------------------

def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_plan_parser(sub: Any) -> None:
    p = sub.add_parser(
        "plan",
        help="benchmark the autotuning planner against the static "
             "default and gate its predictions (exact on sim)",
    )
    p.add_argument("--out", default=None,
                   help="write the plan-bench artifact JSON here")
    p.add_argument("--date", default=None,
                   help="ISO date stamped into the artifact")
    p.add_argument("--algorithms", type=_csv, default=None,
                   help=f"subset of {','.join(PLAN_ALGORITHMS)} "
                        "(exact-model detectors only)")
    p.add_argument("--variants", type=_csv, default=None,
                   help="static default variants to plan against")
    p.add_argument("--networks", type=_csv, default=None,
                   help="comma-separated network subset")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--bands", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=job_count, default=None,
                   help="fan cells out over N worker processes; the "
                        "artifact is byte-identical to a serial run")
    p.add_argument("--gate", nargs="?", metavar="GATE",
                   const="benchmarks/baselines/tuning.json",
                   default=None,
                   help="fail (exit 1) when predictions drift, auto "
                        "exceeds default, results diverge from the "
                        "sequential reference, or the best measured "
                        "improvement falls below the committed floor "
                        "(default: %(const)s)")


def _run_plan_command(args: argparse.Namespace) -> int:
    overrides = {
        name: getattr(args, name)
        for name in (
            "algorithms", "variants", "networks", "rows", "cols", "bands",
            "seed",
        )
        if getattr(args, name) is not None
    }
    config = dataclasses.replace(BenchConfig(), **overrides)
    date = args.date or datetime.date.today().isoformat()
    try:
        _check_plan_config(config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = run_plan_bench(config, date=date, jobs=args.jobs)
    print(plan_report(artifact))
    if args.out is not None:
        write_json(args.out, artifact)
        print(f"{len(artifact['cells'])} cells -> {args.out}")
    if args.gate is not None:
        try:
            gate = json.loads(Path(args.gate).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read gate {args.gate}: {exc}",
                  file=sys.stderr)
            return 2
        failures = gate_plan(artifact, gate)
        if failures:
            print("PLAN GATE FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"plan gate: {len(artifact['cells'])} cells satisfied")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark artifacts: the autotuning planner grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_plan_parser(sub)
    return _run_plan_command(parser.parse_args(argv))
