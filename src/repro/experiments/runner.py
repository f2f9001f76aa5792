"""Experiment CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro experiments all
    python -m repro experiments table3 table5 --outdir results/
    python -m repro experiments figure2

Tables 5–7 share one grid; requesting several of them in the same
invocation computes the grid once, and the grid executes each distinct
program once (its other cells re-price that run on their own networks).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.grid import run_network_grid
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.experiments.table8 import run_table8
from repro.experiments.traced import (
    export_metrics,
    run_calibration,
    run_metrics,
    run_traced,
)
from repro.experiments.whatif import run_whatif
from repro.hsi.scene import SceneConfig, make_wtc_scene

__all__ = ["main", "EXPERIMENT_NAMES"]

EXPERIMENT_NAMES = (
    "table3", "table4", "table5", "table6", "table7", "table8",
    "figure1", "figure2", "whatif",
)
_GRID_EXPERIMENTS = {"table5", "table6", "table7"}
#: flag -> what an empty value of it is missing.
_REQUIRED_VALUES = {
    "trace": "a directory name",
    "metrics": "a directory name",
    "calibrate": "a directory name",
    "whatif": "a plan file name",
    "plan": "'auto', 'default', or a plan file",
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    scene = SceneConfig(
        rows=args.rows, cols=args.cols, bands=args.bands, seed=args.seed
    )
    grid_scene = SceneConfig(
        rows=768, cols=8, bands=args.bands, seed=args.seed
    )
    return ExperimentConfig(scene=scene, grid_scene=grid_scene)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate the paper's tables and figures.",
    )
    # No argparse ``choices`` here: with ``nargs="*"`` some Python
    # versions validate the empty list itself against the choices.
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="which tables/figures to run: "
             f"{', '.join(EXPERIMENT_NAMES)}, or 'all'",
    )
    parser.add_argument("--outdir", default="experiments_output",
                        help="directory for rendered files and transcripts")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="write Chrome traces + metrics + trace analysis "
                             "for a demo run on both backends (and per-cell "
                             "grid traces) into DIR")
    parser.add_argument("--metrics", metavar="DIR", default=None,
                        help="export the metric registry of a demo run as "
                             "JSON + OpenMetrics text into DIR (standalone; "
                             "reuses the --trace runs when both are given)")
    parser.add_argument("--calibrate", metavar="DIR", default=None,
                        help="calibrate the analytic cost model on both "
                             "backends and write calibration_{sim,inproc}"
                             ".json/.txt into DIR (gate with "
                             "python -m repro profile gate)")
    parser.add_argument("--plan", metavar="MODE", default=None,
                        help="configure the traced demo runs through the "
                             "autotuning planner: 'auto' plans kernel "
                             "variants, WEA partition, and checkpoint "
                             "cadence from the calibrated cost model; "
                             "'default' keeps the static configuration; "
                             "any other value is read as a serialized "
                             "plan JSON file; planned runs export "
                             "<stem>.plan.json with the makespan "
                             "prediction")
    parser.add_argument("--fault-plan", metavar="FILE", default=None,
                        help="inject the JSON fault plan into the traced "
                             "demo runs and the table5-7 grid cells; runs "
                             "go through the fault-tolerant driver, so "
                             "planned crashes recover onto the survivors")
    parser.add_argument("--whatif", metavar="PLAN", default=None,
                        help="replay the traced sim demo run under the JSON "
                             "what-if plan (rank/op/link scaling, tier "
                             "upgrades, cluster resizing): writes "
                             "whatif_predict.json + whatif_causal.json + "
                             "whatif_sweep.json next to the traces and "
                             "prints the predicted makespan change")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fan the table5-7 grid's executed programs out "
                             "over N worker processes; results (and trace "
                             "files) are identical to a serial run")
    parser.add_argument("--rows", type=int, default=96, help="scene rows")
    parser.add_argument("--cols", type=int, default=64, help="scene cols")
    parser.add_argument("--bands", type=int, default=48, help="scene bands")
    parser.add_argument("--seed", type=int, default=7, help="scene seed")
    args = parser.parse_args(argv)
    valid = {*EXPERIMENT_NAMES, "all"}
    for name in args.experiments:
        if name not in valid:
            parser.error(
                f"unknown experiment {name!r} "
                f"(choose from {', '.join(sorted(valid))})"
            )
    for flag, what in _REQUIRED_VALUES.items():
        if getattr(args, flag) == "":
            parser.error(f"--{flag} requires {what}")
    if (args.plan is not None and args.plan not in ("auto", "default")
            and not Path(args.plan).exists()):
        parser.error(f"--plan file not found: {args.plan}")
    if (not args.experiments and args.trace is None and args.metrics is None
            and args.calibrate is None and args.whatif is None):
        parser.error("nothing to do: name experiments and/or pass "
                     "--trace DIR / --metrics DIR / --calibrate DIR / "
                     "--whatif PLAN")

    wanted = list(EXPERIMENT_NAMES) if "all" in args.experiments else [
        name for name in EXPERIMENT_NAMES if name in args.experiments
    ]
    config = _build_config(args)
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults.plan import load_fault_plan

        fault_plan = load_fault_plan(args.fault_plan)
        print(f"fault plan {fault_plan.name!r}: "
              f"{len(fault_plan)} faults loaded", flush=True)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_dir = None
    sim_traced = None
    metrics_dir = Path(args.metrics) if args.metrics is not None else None
    if args.trace is not None:
        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for backend in ("sim", "inproc"):
            print(f"tracing a demo atdca run ({backend} backend)...",
                  flush=True)
            traced = run_traced(
                config, trace_dir, backend=backend, fault_plan=fault_plan,
                plan_mode=args.plan,
            )
            if backend == "sim":
                sim_traced = traced
            print(f"  {traced.n_spans} spans -> "
                  + ", ".join(p.name for p in traced.files))
            if traced.plan is not None:
                tp = traced.plan
                print(f"  plan: {tp.partition_variant} partition, "
                      f"kernels {tp.kernels}, predicted "
                      f"{tp.predicted_makespan_s:.3f}s vs default "
                      f"{tp.default_predicted_s:.3f}s "
                      f"({tp.improvement:.2f}x)")
            if getattr(traced.run, "recovered", False):
                print(f"  recovered from rank loss "
                      f"{traced.run.crashed_ranks} in "
                      f"{len(traced.run.attempts)} attempts")
            cp = traced.analysis.critical_path
            print(f"  critical path: {cp.length_s:.3f}s of "
                  f"{cp.makespan:.3f}s makespan "
                  f"(compute {cp.compute_s:.3f}s, comm {cp.comm_s:.3f}s, "
                  f"dominant rank {cp.dominant_rank})")
            blocked = traced.analysis.blocked
            print(f"  blocked time: {blocked.total_blocked_s:.3f}s total "
                  f"across {len(blocked.ranks)} ranks")
            if metrics_dir is not None:
                files = export_metrics(
                    traced.obs, metrics_dir, f"atdca_{backend}"
                )
                print("  metrics -> " + ", ".join(p.name for p in files))
    elif metrics_dir is not None:
        print("exporting metrics for a demo atdca run (sim backend)...",
              flush=True)
        files = run_metrics(config, metrics_dir, backend="sim")
        print("  metrics -> " + ", ".join(p.name for p in files))

    if args.calibrate is not None:
        print("calibrating the cost model (sim + inproc backends)...",
              flush=True)
        calib_files = run_calibration(config, args.calibrate)
        print("  calibration -> "
              + ", ".join(p.name for p in calib_files))
    if args.whatif is not None:
        from repro.obs.whatif import load_whatif_plan

        whatif_plan = load_whatif_plan(args.whatif)
        print(f"what-if plan {whatif_plan.name!r}: "
              f"{len(whatif_plan)} perturbations loaded", flush=True)
        print("replaying the traced sim demo run under the plan...",
              flush=True)
        # A fault-injected trace may span several recovery attempts, so
        # the replay baseline reuses the --trace run only when it was
        # fault-free; otherwise a clean demo run is traced here.
        whatif_result = run_whatif(
            config,
            plan=whatif_plan,
            traced=sim_traced if fault_plan is None else None,
            outdir=trace_dir if trace_dir is not None else outdir,
            jobs=args.jobs,
        )
        doc = whatif_result.prediction
        assert doc is not None
        print(f"  baseline {doc['baseline_makespan_s']:.6f}s -> "
              f"predicted {doc['predicted_makespan_s']:.6f}s "
              f"({doc['delta_pct']:+.2f}%, speedup {doc['speedup']:.3f}x)")
        print("  whatif json -> "
              + ", ".join(p.name for p in whatif_result.files))
    scene = make_wtc_scene(config.scene)
    grid = None
    if _GRID_EXPERIMENTS & set(wanted):
        print("building the network grid...", flush=True)
        grid = run_network_grid(
            config, trace_dir=trace_dir, fault_plan=fault_plan,
            jobs=args.jobs,
        )
        print(f"  {len(grid.cells)} cells: {grid.programs} programs "
              f"executed, {len(grid.cells) - grid.programs} re-priced")

    sections: list[str] = []
    table8 = None  # wanted runs table8 before figure2, which plots it
    for name in wanted:
        print(f"running {name}...", flush=True)
        if name == "table3":
            text = run_table3(config, scene=scene).to_text()
        elif name == "table4":
            text = run_table4(config, scene=scene).to_text()
        elif name == "table5":
            text = run_table5(config, grid=grid).to_text()
        elif name == "table6":
            text = run_table6(config, grid=grid).to_text()
        elif name == "table7":
            text = run_table7(config, grid=grid).to_text()
        elif name == "table8":
            table8 = run_table8(config)
            text = table8.to_text()
        elif name == "figure1":
            text = run_figure1(config, scene=scene, output_dir=outdir).to_text()
        elif name == "whatif":
            text = run_whatif(
                config,
                traced=sim_traced if fault_plan is None else None,
                outdir=outdir,
                jobs=args.jobs,
            ).to_text()
        else:  # figure2
            text = run_figure2(config, table8).to_text()
        sections.append(text)
        print(text)
        print()

    if sections:
        transcript = outdir / "experiments.txt"
        transcript.write_text("\n\n".join(sections) + "\n", encoding="utf-8")
        print(f"transcript written to {transcript}")

    return 0
