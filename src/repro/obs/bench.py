"""Continuous benchmarking: the pinned grid and its artifacts.

``python -m repro bench`` runs a *pinned* subset of the Table 5–8
experiment grid on the virtual-time backend and persists, per cell,
the makespan plus the Table 6 COM/SEQ/PAR triple and the Table 7
``D_all``/``D_minus`` scores as a schema-versioned
``BENCH_<iso-date>.json`` artifact.  Virtual seconds are *exact*: two
runs of the same code produce byte-identical artifacts.  This module
produces artifacts only; ``python -m repro history record``/``gate``
(:mod:`repro.obs.history`) decide what is gated.  Wall-clock claims are
judged by the paired runs of ``benchmarks/wall``.

Usage::

    python -m repro bench run                      # BENCH_<date>.json
    python -m repro bench run --out bench.json --jobs 2
    python -m repro bench report BENCH_a.json
    python -m repro bench microbench --gate    # fast-path kernel floors
    python -m repro bench plan --gate          # autotuning planner gate

See README "Benchmarking & the regression gate" and EXPERIMENTS.md for
how these artifacts relate to the paper's Tables 5–8.
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
from repro.core.runner import ParallelRun, run_parallel
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import run_grid_tasks, variant_label
from repro.hsi.scene import SceneConfig, make_wtc_scene
from repro.obs.export import write_json
from repro.obs.provenance import provenance, warn_if_unstamped
from repro.perf.fanout import ordered_map
from repro.perf.imbalance import imbalance_of_run
from repro.perf.report import format_table
from repro.perf.timers import breakdown_of_run

__all__ = [
    "SCHEMA",
    "PLAN_BENCH_SCHEMA",
    "BenchConfig",
    "run_bench",
    "run_plan_bench",
    "gate_plan",
    "plan_report",
    "report_text",
    "main",
]

SCHEMA = "repro.obs.bench/1"

#: Schema stamp of the ``plan`` subcommand's artifact.
PLAN_BENCH_SCHEMA = "repro.obs.bench.plan/1"


@dataclasses.dataclass(frozen=True)
class BenchConfig:
    """The pinned benchmark grid.

    Defaults pin a representative 8-cell subset of the paper's grid —
    one detector (ATDCA) and one classifier (PCT), both variants, on
    the most and least favourable 16-node networks — small enough for
    CI, sensitive enough that compute, per-link communication, and
    partitioning regressions all move at least one cell.
    """

    algorithms: tuple[str, ...] = ("atdca", "pct")
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
    comm_factor: float = 1.0

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


def _cell_filename(cell_id: str) -> str:
    """Cell id → filesystem-safe trace name (slashes/spaces collapsed)."""
    import re

    return re.sub(r"[^A-Za-z0-9._-]+", "_", cell_id) + ".jsonl"


def _bench_cost(config: BenchConfig) -> CostModel:
    base_cost = ExperimentConfig().cost_model(config.scene_config())
    return CostModel(
        compute_scale=base_cost.compute_scale,
        comm_scale=base_cost.comm_scale * config.comm_factor,
        efficiency=base_cost.efficiency,
        bytes_per_value=base_cost.bytes_per_value,
    )


def _run_sim_cell(
    config: BenchConfig,
    scene: Any,
    cost: CostModel,
    traces_out: Path | None,
    task: tuple[str, str, str],
) -> ParallelRun:
    """Execute one sim ``(network, algorithm, variant)`` cell.

    Deterministic given its inputs, so the grid can run these serially
    or on a process pool with byte-identical artifacts.
    """
    from repro.cluster.presets import all_networks

    network, algorithm, variant = task
    cid = _cell_id(algorithm, variant, network)
    obs = None
    if traces_out is not None:
        from repro.obs import ObsSession

        obs = ObsSession.create()
    run = run_parallel(
        algorithm, scene.image, all_networks()[network],
        params=config.params_for(algorithm), variant=variant,
        backend="sim", cost_model=cost, obs=obs,
    )
    if obs is not None and traces_out is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(traces_out / _cell_filename(cid), obs)
    return run


def _sim_cell_doc(
    task: tuple[str, str, str], run: ParallelRun
) -> dict[str, Any]:
    """A sim cell's artifact entry: makespan, Table 6 triple, Table 7
    scores."""
    network, algorithm, variant = task
    assert run.sim is not None
    breakdown = breakdown_of_run(run.sim)
    scores = imbalance_of_run(run.sim)
    return {
        "backend": "sim",
        "label": variant_label(algorithm, variant),
        "network": network,
        "virtual": {
            "makespan": run.sim.makespan,
            "com": breakdown.com,
            "seq": breakdown.seq,
            "par": breakdown.par,
            "d_all": scores.d_all,
            "d_minus": scores.d_minus,
        },
    }


def run_bench(
    config: BenchConfig,
    date: str,
    trace_dir: Path | str | None = None,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Execute the pinned grid and return the artifact document.

    With ``trace_dir``, every sim cell additionally runs under an
    :class:`~repro.obs.ObsSession` and its spans+metrics are written as
    ``<trace_dir>/<cell>.jsonl``, ready for ``profile``, ``whatif`` or
    :func:`~repro.obs.analyze.analyze_trace`.  Tracing is passive:
    virtual timings (and thus the artifact) are unchanged.

    Sim cells are grouped as the network grid groups them
    (:func:`~repro.experiments.grid.run_grid_tasks`): each distinct
    program is executed once and the other cells re-price its op log,
    so the default 8 cells execute 4 programs; traced cells are all
    executed.  ``jobs`` fans the executed programs out over a process
    pool: virtual timings are exact functions of the inputs and results
    merge back in serial-loop order, so the artifact is byte-identical
    to a serial run.
    """
    from repro.cluster.presets import all_networks

    scene_cfg = config.scene_config()
    scene = make_wtc_scene(scene_cfg)
    cost = _bench_cost(config)
    platforms = all_networks()
    unknown = set(config.networks) - set(platforms)
    if unknown:
        raise ReproError(
            f"unknown network(s) {sorted(unknown)}; "
            f"choose from {sorted(platforms)}"
        )
    traces_out = Path(trace_dir) if trace_dir is not None else None
    if traces_out is not None:
        traces_out.mkdir(parents=True, exist_ok=True)

    tasks = [
        (network, algorithm, variant)
        for network in config.networks
        for algorithm in config.algorithms
        for variant in config.variants
    ]
    runs, _ = run_grid_tasks(
        _run_sim_cell, tasks, scene.image, config.params_for, cost,
        observed=traces_out is not None, jobs=jobs,
        shared=(config, scene, cost, traces_out),
    )
    cells = {
        _cell_id(algorithm, variant, network): _sim_cell_doc(
            (network, algorithm, variant), run
        )
        for (network, algorithm, variant), run in zip(tasks, runs)
    }
    return {
        "schema": SCHEMA,
        "date": date,
        "config": config.to_dict(),
        "cells": cells,
        "provenance": provenance(),
    }


# -- autotuning planner benchmark ---------------------------------------------

#: Default grid for the ``plan`` subcommand: the two iterative
#: detectors only — their analytic models mirror the engine exactly
#: (data-independent charges), which is what makes the ≤1e-9 prediction
#: gate meaningful.  pct/morph predictions are upper bounds and are
#: validated by the what-if engine's looser crosscheck instead.
PLAN_ALGORITHMS: tuple[str, ...] = ("atdca", "ufcls")


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


def run_plan_bench(
    config: BenchConfig,
    date: str,
    jobs: int | None = None,
) -> dict[str, Any]:
    """Execute the planner-vs-default grid and return the artifact.

    Every cell runs on the virtual-time backend only (predictions are
    checkable there), and — like ``run`` — the grid fans out over a
    process pool byte-identically when ``jobs`` is given.
    """
    from repro.cluster.presets import all_networks

    scene = make_wtc_scene(config.scene_config())
    cost = _bench_cost(config)
    unknown = set(config.networks) - set(all_networks())
    if unknown:
        raise ReproError(
            f"unknown network(s) {sorted(unknown)}; "
            f"choose from {sorted(all_networks())}"
        )
    for algorithm in config.algorithms:
        if algorithm not in PLAN_ALGORITHMS:
            raise ReproError(
                f"plan bench supports {list(PLAN_ALGORITHMS)} (exact "
                f"analytic models); got {algorithm!r}"
            )
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


def write_artifact(artifact: Mapping[str, Any], path: Path) -> Path:
    return write_json(path, artifact)


def load_artifact(path: str | Path) -> dict[str, Any]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ReproError(
            f"{path}: unsupported benchmark schema {schema!r} "
            f"(expected {SCHEMA!r})"
        )
    warn_if_unstamped(doc, path)
    return doc


def report_text(artifact: Mapping[str, Any]) -> str:
    """Render one artifact as a monospace table."""
    rows = []
    for cid in sorted(artifact.get("cells", {})):
        v = artifact["cells"][cid]["virtual"]
        rows.append([
            cid, v["makespan"], v["com"], v["seq"], v["par"],
            v["d_all"], v["d_minus"],
        ])
    headers = ["cell", "time (s)", "COM", "SEQ", "PAR", "D_all", "D_minus"]
    return format_table(
        headers, rows,
        title=(
            f"benchmark artifact {artifact.get('date', '?')} "
            f"({artifact.get('schema')})"
        ),
        precision=3,
    )


# -- CLI ----------------------------------------------------------------------

def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_run_parser(sub: Any) -> None:
    p = sub.add_parser("run", help="execute the pinned grid, write BENCH_*.json")
    p.add_argument("--out", default=None,
                   help="artifact path (default <outdir>/BENCH_<date>.json)")
    p.add_argument("--outdir", default=".",
                   help="directory for the default artifact name")
    p.add_argument("--date", default=None,
                   help="ISO date stamped into the artifact "
                        "(default: today; pin for reproducible names)")
    p.add_argument("--algorithms", type=_csv, default=None,
                   help="comma-separated algorithm subset")
    p.add_argument("--variants", type=_csv, default=None,
                   help="comma-separated variant subset")
    p.add_argument("--networks", type=_csv, default=None,
                   help="comma-separated network subset")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--bands", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--comm-factor", type=float, default=None,
                   help="scale all message volumes (ablation / regression "
                        "injection; 2.0 doubles every link cost)")
    p.add_argument("--trace-dir", metavar="DIR", default=None,
                   help="also write each sim cell's spans+metrics as "
                        "<DIR>/<cell>.jsonl; every traced cell is "
                        "executed, none re-priced")
    p.add_argument("--jobs", type=int, default=None,
                   help="fan sim cells out over N worker processes; the "
                        "artifact is byte-identical to a serial run")


def _add_microbench_parser(sub: Any) -> None:
    from repro.obs.microbench import MicrobenchConfig

    defaults = MicrobenchConfig()
    p = sub.add_parser(
        "microbench",
        help="time each fast-path kernel against its scratch reference, "
             "gate on the committed speedup floors",
    )
    p.add_argument("--out", default=None,
                   help="write the microbench artifact JSON here")
    p.add_argument("--date", default=None,
                   help="ISO date stamped into the artifact")
    p.add_argument("--repeats", type=int, default=defaults.repeats,
                   help="timing repetitions per side (best-of wins)")
    p.add_argument("--rows", type=int, default=defaults.rows)
    p.add_argument("--cols", type=int, default=defaults.cols)
    p.add_argument("--bands", type=int, default=defaults.bands)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--paper-scale", action="store_true",
                   help="use the paper's 614x512x224 cube (float64 cube "
                        "~563 MB, reference MEI peak ~2 GB — check memory)")
    p.add_argument("--gate", nargs="?", metavar="FLOORS",
                   const="benchmarks/baselines/MICROBENCH_floors.json",
                   default=None,
                   help="fail (exit 1) when any measured speedup is below "
                        "the committed floors file (default: %(const)s)")


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
    p.add_argument("--jobs", type=int, default=None,
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
    overrides.setdefault("algorithms", PLAN_ALGORITHMS)
    config = dataclasses.replace(BenchConfig(), **overrides)
    date = args.date or datetime.date.today().isoformat()
    artifact = run_plan_bench(config, date=date, jobs=args.jobs)
    print(plan_report(artifact))
    if args.out is not None:
        write_artifact(artifact, Path(args.out))
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


def _run_microbench_command(args: argparse.Namespace) -> int:
    from repro.obs.microbench import (
        MicrobenchConfig,
        gate_microbench,
        microbench_report,
        run_microbench,
    )

    scale = {"rows": args.rows, "cols": args.cols, "bands": args.bands}
    if args.paper_scale:
        from repro.obs.microbench import PAPER_SCALE

        scale = dict(PAPER_SCALE)
    config = MicrobenchConfig(seed=args.seed, repeats=args.repeats, **scale)
    date = args.date or datetime.date.today().isoformat()
    artifact = run_microbench(config, date=date)
    print(microbench_report(artifact))
    if args.out is not None:
        out = write_json(args.out, artifact)
        print(f"{len(artifact['kernels'])} kernels -> {out}")
    if args.gate is not None:
        try:
            floors = json.loads(Path(args.gate).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read floors {args.gate}: {exc}",
                  file=sys.stderr)
            return 2
        failures = gate_microbench(artifact, floors)
        if failures:
            print("MICROBENCH GATE FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        floors_map = floors.get("floors", {})
        print(f"microbench gate: {len(floors_map)} floors satisfied")
    return 0


def _build_config(args: argparse.Namespace) -> BenchConfig:
    overrides = {
        name: getattr(args, name)
        for name in (
            "algorithms", "variants", "networks", "rows", "cols", "bands",
            "seed", "comm_factor",
        )
        if getattr(args, name) is not None
    }
    return dataclasses.replace(BenchConfig(), **overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Continuous benchmarking: the pinned grid and its "
                    "artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_microbench_parser(sub)
    _add_plan_parser(sub)
    p_rep = sub.add_parser("report", help="print one artifact as a table")
    p_rep.add_argument("artifact")
    args = parser.parse_args(argv)

    if args.command == "run":
        config = _build_config(args)
        date = args.date or datetime.date.today().isoformat()
        artifact = run_bench(
            config, date=date, trace_dir=args.trace_dir, jobs=args.jobs
        )
        out = (
            Path(args.out) if args.out
            else Path(args.outdir) / f"BENCH_{date}.json"
        )
        write_artifact(artifact, out)
        print(f"{len(artifact['cells'])} cells -> {out}")
        if args.trace_dir is not None:
            print(f"{len(artifact['cells'])} sim cell traces -> "
                  f"{args.trace_dir}")
        return 0

    if args.command == "microbench":
        return _run_microbench_command(args)

    if args.command == "plan":
        return _run_plan_command(args)

    # report
    try:
        artifact = load_artifact(args.artifact)
    except (OSError, json.JSONDecodeError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_text(artifact))
    return 0
