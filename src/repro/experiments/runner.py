"""Experiment CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro experiments all
    python -m repro experiments table3 table5 --outdir results/
    python -m repro experiments figure2
    python -m repro experiments --trace traces/

``--trace DIR`` is the one way to the traced demo run: it writes every
export and ``<stem>.prom``; ``profile analyze`` and ``whatif predict``
compute the calibration and the what-if prediction from its
``<stem>.jsonl``, and the ``whatif`` experiment reuses its sim run.

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
from repro.experiments.traced import run_traced
from repro.experiments.whatif import run_whatif
from repro.hsi.scene import SceneConfig, make_wtc_scene
from repro.obs import write_openmetrics

__all__ = ["main", "EXPERIMENT_NAMES"]

EXPERIMENT_NAMES = (
    "table3", "table4", "table5", "table6", "table7", "table8",
    "figure1", "figure2", "whatif",
)
_GRID_EXPERIMENTS = {"table5", "table6", "table7"}
#: flag -> what an empty value of it is missing.
_REQUIRED_VALUES = {
    "trace": "a directory name",
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
                        help="write Chrome traces, metrics (JSON + "
                             "OpenMetrics text), JSONL and trace analysis "
                             "for a demo run on both backends (and per-cell "
                             "grid traces) into DIR; profile analyze and "
                             "whatif predict read its <stem>.jsonl")
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
    if not args.experiments and args.trace is None:
        parser.error("nothing to do: name experiments and/or pass --trace DIR")

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
            # The registry's OpenMetrics text is written here, not in
            # run_traced, so the benchmark's traced runs do no extra work.
            prom_path = trace_dir / f"atdca_{backend}.prom"
            write_openmetrics(prom_path, traced.obs)
            print(f"  {traced.n_spans} spans -> "
                  + ", ".join(p.name for p in (*traced.files, prom_path)))
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
