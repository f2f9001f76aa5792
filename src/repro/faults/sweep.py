"""Chaos-sweep harness: fault-plan grids through adaptive recovery.

A sweep *grid* (JSON) names a scene, a platform, one or more detector
algorithms/backends, and up to four fault axes — ``crash`` ×
``slowdown`` × ``link_degrade`` × ``delay`` — each a list of options
(``null`` = that axis inactive).  The harness enumerates the cross
product in a fixed order and, per cell:

1. builds the cell's :class:`~repro.faults.plan.FaultPlan` and runs
   the fault-tolerant driver **with** adaptive repartitioning;
2. on the sim backend, also runs the same plan **without** adaptation
   and replays the cell's own plan — its slowdown and degrade windows
   are the what-if vocabulary's timing perturbations — over a clean
   traced baseline: the model-side prediction of the no-adapt
   perturbed makespan (a cell that also crashes or delays is not
   replayable and gets no prediction);
3. checks the detection output byte-identically against the
   sequential reference.

Two CI invariants gate the result (:func:`sweep_gate`):

* **result equality** — every cell's output equals the sequential
  reference, adaptation or not;
* **makespan agreement** — the no-adapt run lands within a committed
  relative error of the what-if prediction, and adaptive runs beat the
  predicted no-adapt makespan by a committed factor on
  slowdown-bearing cells.

Sweep artifacts are deterministic by construction — virtual-time
makespans only, no wall-clock values — so a serial sweep and a
``--jobs N`` sweep of the same grid are byte-identical.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.cluster.network import uniform_network
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.processor import ProcessorSpec
from repro.errors import FaultPlanError
from repro.faults.adaptive import AdaptiveConfig
from repro.faults.plan import (
    FaultPlan,
    LinkScale,
    MessageDelay,
    RankComputeScale,
    RankCrash,
)
from repro.obs.export import read_json, write_json
from repro.perf.fanout import job_count, ordered_map

__all__ = [
    "AXES",
    "SWEEP_SCHEMA",
    "GATE_SCHEMA",
    "load_sweep_grid",
    "enumerate_cells",
    "plan_of_cell",
    "run_sweep",
    "write_sweep",
    "sweep_gate",
    "sweep_table",
    "main",
]

SWEEP_SCHEMA = "repro.faults.sweep/1"
GATE_SCHEMA = "repro.faults.sweep.gate/1"

#: Axis enumeration order — fixed, so cell order (and therefore the
#: artifact bytes) never depends on dict ordering in the grid file.
AXES: tuple[str, ...] = ("crash", "slowdown", "link_degrade", "delay")

#: Detector algorithms the adaptive driver supports.
_ALGORITHMS = ("atdca", "ufcls")


# -- grid loading -------------------------------------------------------------

def load_sweep_grid(path: str | Path) -> dict[str, Any]:
    """Read + validate a sweep grid file."""
    doc = validate_grid(read_json(path, "sweep grid", FaultPlanError))
    doc.setdefault("name", Path(path).stem)
    return doc


def validate_grid(doc: Any) -> dict[str, Any]:
    """Check a sweep-grid document; returns it (with defaults filled)."""
    if not isinstance(doc, Mapping):
        raise FaultPlanError(f"sweep grid must be an object, got {type(doc).__name__}")
    doc = dict(doc)
    schema = doc.setdefault("schema", SWEEP_SCHEMA)
    if schema != SWEEP_SCHEMA:
        raise FaultPlanError(f"unknown sweep schema {schema!r} (expected {SWEEP_SCHEMA!r})")
    algorithms = doc.setdefault("algorithms", ["atdca"])
    for alg in algorithms:
        if alg not in _ALGORITHMS:
            raise FaultPlanError(
                f"sweep algorithm {alg!r} is not an adaptive-capable "
                f"detector {_ALGORITHMS}"
            )
    backends = doc.setdefault("backends", ["sim"])
    for backend in backends:
        if backend not in ("sim", "inproc"):
            raise FaultPlanError(f"unknown sweep backend {backend!r}")
    axes = doc.setdefault("axes", {})
    if not isinstance(axes, Mapping):
        raise FaultPlanError("sweep axes must be an object")
    for axis in axes:
        if axis not in AXES:
            raise FaultPlanError(f"unknown sweep axis {axis!r} (have {AXES})")
        options = axes[axis]
        if not isinstance(options, Sequence) or isinstance(options, str):
            raise FaultPlanError(f"axis {axis!r} must be a list of options")
        for opt in options:
            if opt is not None and not isinstance(opt, Mapping):
                raise FaultPlanError(
                    f"axis {axis!r} options must be objects or null"
                )
    # Exercise plan construction for every cell up front so a bad
    # option fails fast, before any engine time is spent.
    for cell in enumerate_cells(doc):
        plan_of_cell(cell)
    return doc


def _platform_of(doc: Mapping[str, Any]) -> HeterogeneousPlatform:
    spec = doc.get("platform") or {}
    cycle_times = spec.get("cycle_times", (0.002, 0.004, 0.008, 0.008))
    capacity = float(spec.get("capacity_ms_per_megabit", 10.0))
    procs = [
        ProcessorSpec(f"n{i}", float(w), memory_mb=4096, cache_kb=512)
        for i, w in enumerate(cycle_times)
    ]
    return HeterogeneousPlatform(
        str(spec.get("name", "sweep")),
        procs,
        uniform_network(len(procs), capacity),
    )


# -- enumeration --------------------------------------------------------------

def enumerate_cells(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The grid's cells, in the committed deterministic order:
    algorithms (file order) × backends (file order) × the cross
    product of the four axes in :data:`AXES` order."""
    axes = doc.get("axes", {})
    options = [list(axes.get(axis) or [None]) for axis in AXES]
    cells = []
    for algorithm in doc.get("algorithms", ["atdca"]):
        for backend in doc.get("backends", ["sim"]):
            for combo in itertools.product(*options):
                cell = {"algorithm": algorithm, "backend": backend}
                cell.update(dict(zip(AXES, combo)))
                cells.append(cell)
    return cells


def _window(opt: Mapping[str, Any]) -> tuple[float, float]:
    return float(opt.get("start_s", 0.0)), float(opt.get("end_s", 1e9))


def plan_of_cell(cell: Mapping[str, Any]) -> FaultPlan | None:
    """The cell's fault plan (``None`` for the all-axes-inactive cell)."""
    faults: list[Any] = []
    opt = cell.get("crash")
    if opt:
        faults.append(RankCrash(
            rank=int(opt["rank"]),
            at_virtual_s=opt.get("at_virtual_s"),
            at_op_index=opt.get("at_op_index"),
        ))
    opt = cell.get("slowdown")
    if opt:
        start_s, end_s = _window(opt)
        faults.append(RankComputeScale(
            rank=int(opt["rank"]), factor=float(opt["factor"]),
            start_s=start_s, end_s=end_s,
        ))
    opt = cell.get("link_degrade")
    if opt:
        start_s, end_s = _window(opt)
        faults.append(LinkScale(
            segment_a=str(opt["segment_a"]), segment_b=str(opt["segment_b"]),
            factor=float(opt["factor"]), start_s=start_s, end_s=end_s,
        ))
    opt = cell.get("delay")
    if opt:
        faults.append(MessageDelay(
            delay_s=float(opt["delay_s"]),
            src=opt.get("src"), dst=opt.get("dst"), tag=opt.get("tag"),
            count=opt.get("count"),
        ))
    if not faults:
        return None
    return FaultPlan(tuple(faults), name=_cell_label(cell))


def _cell_label(cell: Mapping[str, Any]) -> str:
    parts = [str(cell.get("algorithm", "?")), str(cell.get("backend", "?"))]
    for axis in AXES:
        opt = cell.get(axis)
        parts.append(f"{axis}=off" if not opt else f"{axis}=on")
    return "/".join(parts)


# -- execution ---------------------------------------------------------------

def _adaptive_of(doc: Mapping[str, Any]) -> AdaptiveConfig:
    spec = doc.get("adaptive")
    if spec is None or spec is True:
        return AdaptiveConfig()
    if isinstance(spec, Mapping):
        return AdaptiveConfig(**{str(k): v for k, v in spec.items()})
    raise FaultPlanError(f"sweep adaptive must be true or an object, got {spec!r}")


def _prepare_state(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Shared per-process context: scene, platform, sequential
    references and a clean traced baseline per algorithm (the replay
    source for what-if predictions)."""
    from repro.core.atdca import atdca
    from repro.core.ufcls import ufcls
    from repro.faults.recovery import run_with_recovery
    from repro.hsi.scene import SceneConfig, make_wtc_scene
    from repro.obs import ObsSession
    from repro.obs.whatif import replay_ops_from_trace

    scene_spec = {str(k): v for k, v in (doc.get("scene") or {}).items()}
    scene = make_wtc_scene(SceneConfig(**scene_spec))
    platform = _platform_of(doc)
    params = dict(doc.get("params") or {})
    variant = str(doc.get("variant", "hetero"))
    sequential = {"atdca": atdca, "ufcls": ufcls}
    refs: dict[str, Any] = {}
    baselines: dict[str, Any] = {}
    for algorithm in doc.get("algorithms", ["atdca"]):
        n_targets = int(params.get("n_targets", 18))
        refs[algorithm] = sequential[algorithm](scene.image, n_targets)
        # The baseline must charge exactly what the no-adapt recovery
        # driver charges (checkpointing included), so the what-if
        # prediction targets the right program — a fault-free
        # run_with_recovery, traced and lifted into replay ops.
        obs = ObsSession.create()
        run_with_recovery(
            algorithm, scene.image, platform,
            params={"n_targets": n_targets}, variant=variant, obs=obs,
        )
        ops, _meta = replay_ops_from_trace(obs)
        baselines[algorithm] = ops
    return {
        "doc": dict(doc),
        "image": scene.image,
        "platform": platform,
        "params": {"n_targets": int(params.get("n_targets", 18))},
        "variant": variant,
        "refs": refs,
        "baselines": baselines,
    }


def _outputs_equal(output: Any, reference: Any) -> bool:
    return (
        output is not None
        and np.array_equal(output.flat_indices, reference.flat_indices)
        and np.array_equal(output.signatures, reference.signatures)
    )


def run_cell(state: Mapping[str, Any], cell: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one sweep cell → a JSON-serializable record.

    The record carries virtual-time quantities only (inproc cells
    report correctness and trigger points, never wall seconds), so
    sweep artifacts are bytewise reproducible.
    """
    from repro.faults.recovery import run_with_recovery
    from repro.obs.whatif import replay

    doc = state["doc"]
    algorithm = cell["algorithm"]
    backend = cell["backend"]
    plan = plan_of_cell(cell)
    overhead = float(doc.get("repartition_overhead_s", 0.0))
    record: dict[str, Any] = {
        "cell": {k: cell.get(k) for k in ("algorithm", "backend", *AXES)},
        "ok": False,
    }
    try:
        adaptive = run_with_recovery(
            algorithm, state["image"], state["platform"],
            params=state["params"], variant=state["variant"],
            backend=backend, plan=plan,
            repartition_overhead_s=overhead,
            adaptive=_adaptive_of(doc),
        )
    except Exception as exc:  # noqa: BLE001 - a cell failure is data
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    reference = state["refs"][algorithm]
    record["ok"] = True
    record["result_equal"] = _outputs_equal(adaptive.output, reference)
    record["adaptations"] = [
        {"step": e.step, "rank": e.rank, "factor": e.factor}
        for e in adaptive.adaptations
    ]
    record["crashed_ranks"] = list(adaptive.crashed_ranks)
    if backend != "sim":
        return record
    record["makespan"] = adaptive.makespan
    try:
        noadapt = run_with_recovery(
            algorithm, state["image"], state["platform"],
            params=state["params"], variant=state["variant"],
            backend="sim", plan=plan, repartition_overhead_s=overhead,
        )
    except Exception as exc:  # noqa: BLE001
        record["ok"] = False
        record["error"] = f"no-adapt: {type(exc).__name__}: {exc}"
        return record
    record["result_equal"] = (
        record["result_equal"] and _outputs_equal(noadapt.output, reference)
    )
    record["makespan_noadapt"] = noadapt.makespan
    perturbations = () if plan is None else plan.timing_perturbations
    if perturbations is not None:
        predicted = replay(
            state["baselines"][algorithm], state["platform"],
            plan=perturbations,
        ).makespan
        record["predicted_noadapt"] = predicted
        record["prediction_rel_error"] = (
            abs(predicted - noadapt.makespan) / noadapt.makespan
            if noadapt.makespan else 0.0
        )
        record["ratio_vs_predicted"] = (
            adaptive.makespan / predicted if predicted else None
        )
    return record


def run_sweep(
    doc: Mapping[str, Any], jobs: int | None = None
) -> dict[str, Any]:
    """Run every cell of a validated grid → the sweep result document.

    Cells are pure functions of the grid, so ``jobs > 1`` fans them
    out over a process pool and merges results back in enumeration
    order — any ``jobs`` value produces byte-identical artifacts.
    """
    doc = validate_grid(doc)
    cells = enumerate_cells(doc)
    records = ordered_map(
        run_cell, cells, jobs, shared=(_prepare_state(doc),)
    )
    n_adapted = sum(1 for r in records if r.get("adaptations"))
    return {
        "schema": SWEEP_SCHEMA,
        "name": str(doc.get("name", "sweep")),
        "grid": dict(doc),
        "cells": records,
        "summary": {
            "n_cells": len(records),
            "n_ok": sum(1 for r in records if r.get("ok")),
            "n_result_equal": sum(1 for r in records if r.get("result_equal")),
            "n_adapted": n_adapted,
        },
    }


def write_sweep(doc: Mapping[str, Any], path: str | Path) -> Path:
    """Write a sweep result deterministically (sorted keys, compact
    separators, trailing newline) so artifact diffs are meaningful."""
    return write_json(path, doc)


# -- gating -------------------------------------------------------------------

def sweep_gate(
    result: Mapping[str, Any], thresholds: Mapping[str, Any]
) -> list[str]:
    """Check a sweep result against committed thresholds.

    Returns the list of violations (empty = gate passes):

    * every cell ran and matched the sequential reference;
    * replayable cells (timing faults only): the no-adapt makespan
      agrees with the prediction within ``max_prediction_rel_error``;
    * adapted slowdown cells (no crash): the adaptive makespan is at
      most ``max_adaptive_over_predicted`` × the predicted no-adapt
      makespan — the committed recovery-beats-model factor;
    * at least ``min_adapted_cells`` cells actually adapted.
    """
    if thresholds.get("schema", GATE_SCHEMA) != GATE_SCHEMA:
        raise FaultPlanError(
            f"unknown gate schema {thresholds.get('schema')!r}"
        )
    max_err = float(thresholds.get("max_prediction_rel_error", 1e-6))
    max_ratio = float(thresholds.get("max_adaptive_over_predicted", 1.0))
    min_adapted = int(thresholds.get("min_adapted_cells", 1))
    violations: list[str] = []
    n_adapted = 0
    for record in result.get("cells", []):
        label = _cell_label(record.get("cell", {}))
        if not record.get("ok"):
            violations.append(
                f"{label}: failed ({record.get('error', 'unknown error')})"
            )
            continue
        if not record.get("result_equal"):
            violations.append(
                f"{label}: output differs from the sequential reference"
            )
        if record.get("adaptations"):
            n_adapted += 1
        err = record.get("prediction_rel_error")
        if err is not None and err > max_err:
            violations.append(
                f"{label}: no-adapt makespan is {err:.3g} rel. from the "
                f"what-if prediction (max {max_err:.3g})"
            )
        cell = record.get("cell", {})
        ratio = record.get("ratio_vs_predicted")
        if (
            cell.get("slowdown")
            and not cell.get("crash")
            and record.get("adaptations")
            and ratio is not None
            and ratio > max_ratio
        ):
            violations.append(
                f"{label}: adaptive makespan is {ratio:.3f}x the predicted "
                f"no-adapt makespan (max {max_ratio:.3f}x)"
            )
    if n_adapted < min_adapted:
        violations.append(
            f"only {n_adapted} cells adapted (min {min_adapted})"
        )
    return violations


def sweep_table(result: Mapping[str, Any]) -> str:
    """A human-readable per-cell summary of a sweep result."""
    lines = [
        f"chaos sweep: {result.get('name', '?')} "
        f"({result.get('summary', {}).get('n_cells', 0)} cells)",
        f"{'cell':<44} {'equal':>5} {'adapt':>5} "
        f"{'makespan':>10} {'predicted':>10} {'ratio':>7}",
    ]
    def fmt(value: Any, width: int, spec: str) -> str:
        if value is None:
            return f"{'-':>{width}}"
        return f"{value:>{width}{spec}}"

    for record in result.get("cells", []):
        label = _cell_label(record.get("cell", {}))
        equal = "yes" if record.get("result_equal") else "NO"
        if not record.get("ok"):
            equal = "ERR"
        lines.append(
            f"{label:<44} {equal:>5} "
            f"{len(record.get('adaptations', [])):>5} "
            + fmt(record.get("makespan"), 10, ".5f")
            + fmt(record.get("predicted_noadapt"), 11, ".5f")
            + fmt(record.get("ratio_vs_predicted"), 8, ".3f")
        )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro sweep`` — run or gate a chaos sweep."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Chaos-sweep fault grids through adaptive recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a sweep grid")
    run_p.add_argument("grid", help="sweep grid JSON file")
    run_p.add_argument("--out", default=None, help="result JSON path")
    run_p.add_argument("--jobs", type=job_count, default=None,
                       help="fan cells over N worker processes")
    run_p.add_argument("--gate", default=None,
                       help="also gate against this thresholds JSON")
    gate_p = sub.add_parser("gate", help="gate an existing sweep result")
    gate_p.add_argument("result", help="sweep result JSON file")
    gate_p.add_argument("thresholds", help="gate thresholds JSON file")
    cells_p = sub.add_parser("cells", help="list a grid's cells")
    cells_p.add_argument("grid", help="sweep grid JSON file")
    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except FaultPlanError as exc:
        print(f"invalid sweep input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def _gate(result: Mapping[str, Any], thresholds_path: str) -> int:
    violations = sweep_gate(
        result, read_json(thresholds_path, "gate thresholds", FaultPlanError)
    )
    for violation in violations:
        print(f"GATE: {violation}", file=sys.stderr)
    print("gate: " + ("FAIL" if violations else "PASS"))
    return 1 if violations else 0


def _dispatch(args: Any) -> int:
    if args.command == "cells":
        doc = load_sweep_grid(args.grid)
        for cell in enumerate_cells(doc):
            print(_cell_label(cell))
        return 0
    if args.command == "gate":
        return _gate(
            read_json(args.result, "sweep result", FaultPlanError),
            args.thresholds,
        )
    doc = load_sweep_grid(args.grid)
    result = run_sweep(doc, jobs=args.jobs)
    print(sweep_table(result))
    if args.out:
        path = write_sweep(result, args.out)
        print(f"wrote {path}")
    if args.gate:
        return _gate(result, args.gate)
    return 0
