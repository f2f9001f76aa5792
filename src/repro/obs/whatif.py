"""Deterministic what-if replay of recorded traces.

A recorded sim trace fixes two things exactly: the *op program* (which
compute charges and which messages, in which per-rank order) and the
*happens-before structure* (per-rank program order plus serialized
inter-segment links).  In the master-centric programs this repo runs,
any two transfers that share a serial link are themselves
happens-before ordered — scatter/gather are sequenced at the master and
the binomial trees order parent before child — so the engine's
link-claim order is determined by program structure, not by timing.
That is the load-bearing fact of this module: handing the ops to the
engine's own :class:`~repro.cluster.simtime.TimingCore` sequentially,
in any happens-before-topological order, reproduces the engine's
virtual times **exactly**, under *arbitrary* timing perturbations.
The recorded global span order
``(start, rank, seq)`` is such an order (all durations are positive, so
per-rank starts strictly increase).

On top of that replay sit declarative perturbations
(:class:`WhatIfPlan`): the four timing perturbations of
:mod:`repro.cluster.perturb` (per-rank and per-op-class compute
scaling, link capacity and latency edits — spelled
``rank_compute_scale`` / ``op_class_scale`` / ``link_scale`` /
``latency_scale`` in a what-if file), accelerator tier upgrades, and
worker add/remove with WEA re-partitioning (the structural cases
regenerate the op program analytically via
:func:`repro.experiments.model.emit_op_program` from the trace's
``run.meta`` descriptor).  A fault plan's slowdown and degrade windows
are the same timing-perturbation objects, so :func:`replay` takes them
as they stand, and every perturbation that is also runnable on the
engine (under a fault plan or an edited platform table) is
*self-validating*: the replayed prediction must match an actual
sim-engine run to 1e-9 relative (``python -m repro whatif validate``
gates exactly that in CI, with one object on both sides).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.cluster.accelerator import AcceleratorSpec
from repro.cluster.costs import CostModel
from repro.cluster.perturb import (
    LatencyScale,
    LinkScale,
    OpClassScale,
    PerturbationHook,
    PlanDocument,
    RankComputeScale,
    TimingPerturbation,
    extend_platform,
    upgrade_ranks,
)
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.presets import platform_by_name
from repro.cluster.simtime import Op as ReplayOp, TimingCore
from repro.errors import ConfigurationError, WhatIfPlanError, require
from repro.obs.export import read_json, spans_of, write_json
from repro.obs.provenance import provenance

__all__ = [
    "RankComputeScale",
    "OpClassScale",
    "LinkScale",
    "LatencyScale",
    "TierUpgrade",
    "ResizeCluster",
    "WhatIfPlan",
    "load_whatif_plan",
    "ReplayOp",
    "ReplayResult",
    "replay",
    "replay_ops_from_trace",
    "run_meta_of",
    "trace_platform",
    "predict",
    "capacity_sweep",
    "run_validation",
    "main",
    "PREDICT_SCHEMA",
    "SWEEP_SCHEMA",
    "VALIDATE_SCHEMA",
]

PREDICT_SCHEMA = "repro.obs.whatif/1"
SWEEP_SCHEMA = "repro.obs.whatif.sweep/1"
VALIDATE_SCHEMA = "repro.obs.whatif.validate/1"

#: The validation tolerance (the calibration sim exactness bound).
DEFAULT_REL_TOLERANCE = 1e-9


@dataclasses.dataclass(frozen=True)
class TierUpgrade:
    """Replace the processors at ``ranks`` with an accelerator tier.

    The accelerator keeps each node's memory and charges
    ``launch_overhead_s + mflops * (device_cycle_time +
    hd_transfer_s_per_mflop)`` per compute op — a pure function of the
    charged megaflops, so the same upgrade is independently runnable on
    the sim engine via :func:`repro.cluster.perturb.upgrade_ranks`.
    """

    ranks: tuple[int, ...]
    device_cycle_time: float
    name: str = "gpu"
    launch_overhead_s: float = 0.0
    hd_transfer_s_per_mflop: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    def validate(self) -> None:
        require(len(self.ranks) > 0, "ranks must be non-empty")
        require(all(r >= 0 for r in self.ranks), "ranks must be >= 0")
        require(
            math.isfinite(self.device_cycle_time)
            and self.device_cycle_time > 0,
            f"device_cycle_time must be positive, "
            f"got {self.device_cycle_time}",
        )
        require(
            self.launch_overhead_s >= 0
            and self.hd_transfer_s_per_mflop >= 0,
            "overheads must be >= 0",
        )

    def accelerator(self) -> AcceleratorSpec:
        return AcceleratorSpec(
            name=self.name,
            device_cycle_time=self.device_cycle_time,
            launch_overhead_s=self.launch_overhead_s,
            hd_transfer_s_per_mflop=self.hd_transfer_s_per_mflop,
        )


@dataclasses.dataclass(frozen=True)
class ResizeCluster:
    """Re-run the workload on a platform resized to ``n_ranks``.

    Structural: the op program is regenerated analytically with a fresh
    WEA partition over the resized platform (shrinking keeps the first
    ``n_ranks`` ranks; growing clones workers round-robin).  Requires
    the trace to carry a ``run.meta`` descriptor.
    """

    n_ranks: int

    def validate(self) -> None:
        require(self.n_ranks >= 1, f"n_ranks must be >= 1, got {self.n_ranks}")


Perturbation = TimingPerturbation | TierUpgrade | ResizeCluster


@dataclasses.dataclass(frozen=True)
class WhatIfPlan(PlanDocument):
    """An immutable, validated, ordered set of perturbations."""

    perturbations: tuple[Perturbation, ...] = ()
    name: str = ""

    ITEMS = "perturbations"
    KINDS = {
        "rank_compute_scale": RankComputeScale,
        "op_class_scale": OpClassScale,
        "link_scale": LinkScale,
        "latency_scale": LatencyScale,
        "tier_upgrade": TierUpgrade,
        "resize_cluster": ResizeCluster,
    }
    ERROR = WhatIfPlanError

    def apply_platform(
        self, platform: HeterogeneousPlatform
    ) -> HeterogeneousPlatform:
        """The platform with every ``tier_upgrade`` applied."""
        for pert in self.of_kind("tier_upgrade"):
            platform.processor(max(pert.ranks))  # range check
            platform = upgrade_ranks(platform, pert.ranks, pert.accelerator())
        return platform


def load_whatif_plan(path: str | Path) -> WhatIfPlan:
    """Read and validate a JSON what-if plan file."""
    plan = WhatIfPlan.from_dict(
        read_json(path, "what-if plan", WhatIfPlanError)
    )
    if not plan.name:
        plan = dataclasses.replace(plan, name=Path(path).stem)
    return plan


# -- replay ops ---------------------------------------------------------------

def run_meta_of(source: Any) -> dict[str, Any] | None:
    """The trace's ``run.meta`` workload descriptor (last one wins)."""
    meta = None
    for span in spans_of(source):
        if span.category == "meta" and span.name == "run.meta":
            meta = dict(span.attrs)
    return meta


def trace_platform(source: Any, name: str) -> HeterogeneousPlatform:
    """The platform preset ``name`` (a CLI's ``--platform``) for
    replaying ``source``.

    Raises :class:`~repro.errors.ConfigurationError` when the trace's
    ``run.meta`` records another platform: a trace replayed on the wrong
    processors and links gives wrong times and no other sign of it.  A
    trace without ``run.meta`` is not checked.
    """
    platform = platform_by_name(name)
    meta = run_meta_of(source)
    recorded = None if meta is None else meta.get("platform")
    if recorded is not None and recorded != name:
        raise ConfigurationError(
            f"--platform {name!r} is not the platform the trace was "
            f"recorded on, {recorded!r}"
        )
    return platform


def _kernel_label(
    kernels: Sequence[tuple[float, float, str]] | None, start: float,
    end: float,
) -> str:
    """Innermost kernel interval containing ``[start, end]`` (else "")."""
    if not kernels:
        return ""
    best, best_start = "", -math.inf
    for k_start, k_end, name in kernels:
        if k_start <= start and end <= k_end and k_start >= best_start:
            best, best_start = name, k_start
    return best


def replay_ops_from_trace(
    source: Any,
) -> tuple[list[ReplayOp], dict[str, Any] | None]:
    """Extract the replayable op program from a recorded trace.

    Compute ops come from ``compute``/``seq`` spans (one per charge,
    labelled by the innermost enclosing ``kernel.*`` span); transfers
    from the *send*-side ``transfer`` spans (one per message, carrying
    the wire megabits).  The returned list is in recorded
    ``(start, rank, seq)`` order — a happens-before-topological order,
    which is what :func:`replay` requires.
    """
    spans = spans_of(source)
    kernels: dict[int, list[tuple[float, float, str]]] = {}
    for s in spans:
        if s.category == "kernel":
            kernels.setdefault(s.rank, []).append(
                (s.start, s.end, str(s.attrs.get("kernel", s.name)))
            )
    ops: list[ReplayOp] = []
    for s in spans:
        if s.category in ("compute", "seq"):
            ops.append(ReplayOp(
                kind="compute",
                rank=s.rank,
                mflops=float(s.attrs.get("mflops", 0.0)),
                factor=float(s.attrs.get("factor", 1.0)),
                sequential=s.category == "seq",
                label=_kernel_label(kernels.get(s.rank), s.start, s.end),
            ))
        elif (
            s.category == "transfer"
            and s.attrs.get("direction") == "send"
        ):
            ops.append(ReplayOp(
                kind="transfer",
                rank=s.rank,
                dst=int(s.attrs["peer"]),
                megabits=float(s.attrs["megabits"]),
            ))
    if not ops:
        raise ConfigurationError(
            "trace has no replayable compute/transfer spans"
        )
    return ops, run_meta_of(source)


# -- the replay engine --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReplayResult:
    """Predicted timing of one replay.

    Attributes:
        makespan: predicted end-to-end virtual time.
        finish_times: per-rank finish times.
        rank_compute_s: per-rank compute-busy seconds.
        op_compute_s: per-kernel-class compute-busy seconds.
        link_busy_s: per-link transfer-busy seconds (keyed like the
            engine's link labels: ``"s1|s2"`` or ``"intra:s1"``).
    """

    makespan: float
    finish_times: tuple[float, ...]
    rank_compute_s: Mapping[int, float]
    op_compute_s: Mapping[str, float]
    link_busy_s: Mapping[str, float]


def replay(
    ops: Sequence[ReplayOp],
    platform: HeterogeneousPlatform,
    plan: WhatIfPlan | Sequence[TimingPerturbation] | None = None,
) -> ReplayResult:
    """Re-execute an op program on a fresh timing core under a plan.

    The durations are the engine's because the executor is the
    engine's: the recorded fault factor and the plan's factors
    (evaluated at each op's replayed start) enter
    :class:`~repro.cluster.simtime.TimingCore` in its fixed order, and
    neutral factors change nothing, so an unperturbed replay of a sim
    trace reproduces its makespan *byte-identically*.

    ``plan`` is a :class:`WhatIfPlan` or any sequence of timing
    perturbations — a fault plan's
    :attr:`~repro.faults.plan.FaultPlan.timing_perturbations` as they
    stand.  Only the timing perturbations in it apply here: structural
    kinds (``resize_cluster``) and platform edits (``tier_upgrade``)
    are resolved by :func:`predict` before replay.
    """
    hook = PerturbationHook(plan or ())
    core = TimingCore(platform, perturb=None if hook.trivial else hook)
    rank_compute: dict[int, float] = {}
    op_compute: dict[str, float] = {}
    link_busy: dict[str, float] = {}
    records: list[Any] = []
    core.run(ops, records)
    for op, record in zip(ops, records):
        if op.kind == "compute":
            rank_compute[op.rank] = (
                rank_compute.get(op.rank, 0.0) + record.seconds
            )
            if op.label:
                op_compute[op.label] = (
                    op_compute.get(op.label, 0.0) + record.seconds
                )
        else:
            link_busy[record.link] = (
                link_busy.get(record.link, 0.0) + record.duration
            )
    finish_times = core.finish_times
    return ReplayResult(
        makespan=max(finish_times),
        finish_times=tuple(finish_times),
        rank_compute_s=rank_compute,
        op_compute_s=op_compute,
        link_busy_s=link_busy,
    )


# -- meta decoding ------------------------------------------------------------

_META_PARAM_KEYS = (
    "n_targets", "n_classes", "iterations", "exact_halo", "threshold",
    "dedup_threshold",
)


def _meta_required(meta: Mapping[str, Any] | None, why: str) -> Mapping[str, Any]:
    if meta is None:
        raise WhatIfPlanError(
            f"{why} requires a trace with a run.meta span "
            "(re-record the trace with this version)"
        )
    return meta


def _cost_model_from_meta(meta: Mapping[str, Any]) -> CostModel:
    return CostModel(
        efficiency=float(meta["efficiency"]),
        bytes_per_value=int(meta["bytes_per_value"]),
        compute_scale=float(meta["compute_scale"]),
        comm_scale=float(meta["comm_scale"]),
    )


def _params_from_meta(meta: Mapping[str, Any]) -> dict[str, Any]:
    return {k: meta[k] for k in _META_PARAM_KEYS if k in meta}


def _model_ops_for_platform(
    meta: Mapping[str, Any], target: HeterogeneousPlatform
) -> list[ReplayOp]:
    """Regenerate the op program for a (possibly resized) platform with
    a fresh WEA partition, exactly as a real run would derive it."""
    from repro.core.runner import make_row_partition_for_dims
    from repro.experiments.model import emit_op_program

    cost = _cost_model_from_meta(meta)
    params = _params_from_meta(meta)
    algorithm = str(meta["algorithm"])
    variant = str(meta.get("variant", "hetero"))
    rows, cols = int(meta["rows"]), int(meta["cols"])
    bands = int(meta["bands"])
    partition = make_row_partition_for_dims(
        target, rows, cols, bands, algorithm, params,
        variant=variant, cost_model=cost,
    )
    return emit_op_program(
        algorithm, target, partition, rows, cols, bands,
        params=params, cost_model=cost,
    )


# -- prediction ---------------------------------------------------------------

def predict(
    source: Any,
    platform: HeterogeneousPlatform,
    plan: WhatIfPlan | None = None,
) -> dict[str, Any]:
    """Replay a trace under a plan → the prediction document.

    The baseline is an *unperturbed* replay of the same ops on the
    original platform (byte-identical to the recorded makespan for sim
    traces), so predicted deltas are self-consistent.
    """
    ops, meta = replay_ops_from_trace(source)
    plan = plan or WhatIfPlan()
    baseline = replay(ops, platform)
    target = plan.apply_platform(platform)
    resizes = plan.of_kind("resize_cluster")
    if resizes:
        target = extend_platform(target, resizes[-1].n_ranks)
        replay_ops = _model_ops_for_platform(
            _meta_required(meta, "resize_cluster"), target
        )
    else:
        replay_ops = ops
    predicted = replay(replay_ops, target, plan=plan)
    base, pred = baseline.makespan, predicted.makespan
    doc = {
        "schema": PREDICT_SCHEMA,
        "baseline_makespan_s": base,
        "predicted_makespan_s": pred,
        "delta_s": pred - base,
        "delta_pct": (100.0 * (pred - base) / base) if base else 0.0,
        "speedup": (base / pred) if pred else math.inf,
        "n_ops": len(replay_ops),
        "n_ranks": target.size,
        "plan": plan.to_dict(),
        "provenance": provenance(),
    }
    return doc


# -- capacity sweeps ----------------------------------------------------------

def capacity_sweep(
    source: Any,
    platform: HeterogeneousPlatform,
    sizes: Sequence[int],
    plan: WhatIfPlan | None = None,
) -> dict[str, Any]:
    """Predicted makespan/throughput vs cluster size.

    Each point regenerates the analytic op program with a fresh WEA
    partition on the resized platform (clone-extended above the
    recorded size) and replays it under the optional timing plan.
    """
    ops, meta = replay_ops_from_trace(source)
    meta = _meta_required(meta, "capacity_sweep")
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise ConfigurationError("capacity sweep needs at least one size")
    if min(sizes) < 1:
        raise ConfigurationError(
            f"capacity sweep sizes must be >= 1, got {min(sizes)}"
        )
    baseline = replay(ops, platform)
    planned = (plan or WhatIfPlan()).apply_platform(platform)
    pixels = int(meta["rows"]) * int(meta["cols"])
    points = []
    for n in sizes:
        target = extend_platform(planned, n)
        point_ops = _model_ops_for_platform(meta, target)
        makespan = replay(point_ops, target, plan=plan).makespan
        points.append({
            "n_ranks": n,
            "makespan_s": makespan,
            "throughput_pixels_per_s": (
                (pixels / makespan) if makespan else 0.0
            ),
            "n_ops": len(point_ops),
        })
    return {
        "schema": SWEEP_SCHEMA,
        "algorithm": str(meta["algorithm"]),
        "variant": str(meta.get("variant", "hetero")),
        "scene": {
            "rows": int(meta["rows"]), "cols": int(meta["cols"]),
            "bands": int(meta["bands"]),
        },
        "recorded_n_ranks": platform.size,
        "recorded_makespan_s": baseline.makespan,
        "plan": (plan or WhatIfPlan()).to_dict(),
        "points": points,
        "provenance": provenance(),
    }


def sweep_table(doc: Mapping[str, Any]) -> str:
    """Readable sweep table (also embedded in the HTML report)."""
    lines = [
        f"capacity sweep — {doc['algorithm']} "
        f"({doc['scene']['rows']}x{doc['scene']['cols']}"
        f"x{doc['scene']['bands']}, {doc['variant']})",
        f"{'ranks':>6} {'makespan (s)':>14} {'throughput (px/s)':>18} "
        f"{'vs recorded':>12}",
    ]
    recorded = float(doc["recorded_makespan_s"])
    for point in doc["points"]:
        speedup = (
            recorded / point["makespan_s"] if point["makespan_s"] else 0.0
        )
        lines.append(
            f"{point['n_ranks']:>6} {point['makespan_s']:>14.6f} "
            f"{point['throughput_pixels_per_s']:>18.1f} "
            f"{speedup:>11.3f}x"
        )
    return "\n".join(lines)


# -- self-validation ----------------------------------------------------------

def _rel_error(predicted: float, actual: float) -> float:
    if actual == 0.0:
        return abs(predicted - actual)
    return abs(predicted - actual) / abs(actual)


def run_validation(
    rows: int = 48,
    cols: int = 16,
    bands: int = 24,
    seed: int = 7,
) -> dict[str, Any]:
    """Gate the replay engine against actual sim-engine runs.

    Four perturbations that are independently runnable on the engine;
    the timing ones are built once and the same object is replayed and
    put in the fault plan the engine runs under:

    1. a rank compute scale (rank 1 ×3, the canned slowdown plan) — and
       the causal profile of a ×50 faulted trace must rank rank 1
       first;
    2. a link capacity scale (s1↔s4 ×2.5);
    3. ``resize_cluster`` (2 workers removed, WEA re-partition) vs an
       actual run on the subset platform;
    4. ``tier_upgrade`` (accelerator on ranks 2 and 5) vs an actual run
       on the edited platform table (same partition).

    Every case must match to :data:`DEFAULT_REL_TOLERANCE`.
    """
    from repro.cluster.presets import fully_heterogeneous
    from repro.core.runner import make_row_partition_for_dims, run_parallel
    from repro.experiments.config import ExperimentConfig
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.hsi.scene import SceneConfig, make_wtc_scene
    from repro.obs import ObsSession
    from repro.obs.causal import causal_profile

    cfg = ExperimentConfig(
        scene=SceneConfig(rows=rows, cols=cols, bands=bands, seed=seed)
    )
    scene = make_wtc_scene(cfg.scene)
    platform = fully_heterogeneous()
    params = cfg.params_for("atdca")
    cost = cfg.cost_model(cfg.scene)

    obs = ObsSession.create()
    clean = run_parallel(
        "atdca", scene.image, platform, params=params, cost_model=cost,
        obs=obs,
    )
    ops, meta = replay_ops_from_trace(obs)
    cases: list[dict[str, Any]] = []

    def case(name: str, predicted: float, actual: float) -> None:
        rel = _rel_error(predicted, actual)
        cases.append({
            "case": name,
            "predicted_makespan_s": predicted,
            "actual_makespan_s": actual,
            "rel_error": rel,
            "pass": rel <= DEFAULT_REL_TOLERANCE,
        })

    # Case 0: unperturbed replay must reproduce the recorded makespan.
    case("identity_replay", replay(ops, platform).makespan, clean.makespan)

    def under_faults(
        name: str, pert: TimingPerturbation,
        fault_obs: ObsSession | None = None,
    ) -> None:
        """One case: the replay of ``pert`` against the engine run under
        the fault plan holding that same object."""
        injector = FaultInjector(FaultPlan((pert,), name=name))
        injector.attach(platform=platform, obs=fault_obs)
        run = run_parallel(
            "atdca", scene.image, platform, params=params, cost_model=cost,
            obs=fault_obs, faults=injector,
        )
        case(name, replay(ops, platform, plan=(pert,)).makespan, run.makespan)

    # Case 1: rank slowdown (the canned plan's parameters).
    under_faults(
        "rank_slowdown",
        RankComputeScale(rank=1, factor=3.0, start_s=0.0, end_s=1e9),
    )

    # Causal gate: inject a slowdown strong enough to *dominate* the
    # run (a mild one just moves rank 1's slack; the causal profile
    # correctly reports near-zero gain for it, as the rank_slowdown
    # equivalence above shows) and require the faulted trace's causal
    # profile to put the injected rank first.  The hot run *does* move
    # the makespan, so its equivalence also proves the perturbation is
    # applied, not silently dropped.
    hot_obs = ObsSession.create()
    under_faults(
        "rank_slowdown_hot",
        RankComputeScale(rank=1, factor=50.0, start_s=0.0, end_s=1e9),
        fault_obs=hot_obs,
    )
    profile = causal_profile(hot_obs, platform)
    top_rank = profile.top("rank")
    causal_ok = top_rank is not None and top_rank.subject == "rank:1"
    cases.append({
        "case": "causal_top_rank",
        "expected": "rank:1",
        "got": top_rank.subject if top_rank is not None else None,
        "pass": bool(causal_ok),
    })

    # Case 2: link degrade (inter-segment s1↔s4, capacity ×2.5).
    under_faults(
        "link_degrade",
        LinkScale(
            segment_a="s1", segment_b="s4", factor=2.5,
            start_s=0.0, end_s=1e9,
        ),
    )

    # Case 3: two workers removed, fresh WEA partition on the subset.
    n_small = platform.size - 2
    small = platform.subset(range(n_small))
    small_ops = _model_ops_for_platform(
        _meta_required(meta, "worker-removal validation"), small
    )
    small_run = run_parallel(
        "atdca", scene.image, small, params=params, cost_model=cost
    )
    case(
        "worker_removal",
        replay(small_ops, small).makespan,
        small_run.makespan,
    )

    # Case 4: accelerator tier upgrade including the bottleneck rank
    # (recorded partition kept fixed so the op program is unchanged;
    # upgrading the critical rank guarantees the makespan moves).
    tier = TierUpgrade(
        ranks=(2, 9), device_cycle_time=0.002,
        launch_overhead_s=2e-4, hd_transfer_s_per_mflop=5e-4,
        name="gpu",
    )
    tier_plan = WhatIfPlan((tier,))
    upgraded = tier_plan.apply_platform(platform)
    tier_run = run_parallel(
        "atdca", scene.image, upgraded, params=params, cost_model=cost,
        partition=clean.partition,
    )
    case(
        "tier_upgrade",
        replay(ops, upgraded).makespan,
        tier_run.makespan,
    )

    ok = all(c["pass"] for c in cases)
    return {
        "schema": VALIDATE_SCHEMA,
        "scene": {"rows": rows, "cols": cols, "bands": bands, "seed": seed},
        "rel_tolerance": DEFAULT_REL_TOLERANCE,
        "cases": cases,
        "pass": ok,
        "provenance": provenance(),
    }


def validation_table(doc: Mapping[str, Any]) -> str:
    lines = [
        f"what-if validation — tolerance {doc['rel_tolerance']:g} relative",
    ]
    for c in doc["cases"]:
        status = "PASS" if c["pass"] else "FAIL"
        if "rel_error" in c:
            lines.append(
                f"  [{status}] {c['case']}: predicted "
                f"{c['predicted_makespan_s']:.9f}s vs actual "
                f"{c['actual_makespan_s']:.9f}s "
                f"(rel {c['rel_error']:.3e})"
            )
        else:
            lines.append(
                f"  [{status}] {c['case']}: expected {c['expected']}, "
                f"got {c['got']}"
            )
    lines.append("PASS" if doc["pass"] else "FAIL")
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------

def _load_trace(path: str) -> Any:
    from repro.obs.export import read_jsonl

    return read_jsonl(path)


def _write_doc(doc: Mapping[str, Any], path: str | None) -> None:
    if path is not None:
        write_json(path, doc)


def _cmd_predict(args: argparse.Namespace) -> int:
    plan = load_whatif_plan(args.plan)
    trace = _load_trace(args.trace)
    doc = predict(trace, trace_platform(trace, args.platform), plan=plan)
    print(
        f"baseline {doc['baseline_makespan_s']:.6f}s -> predicted "
        f"{doc['predicted_makespan_s']:.6f}s "
        f"({doc['delta_pct']:+.2f}%, speedup {doc['speedup']:.3f}x) "
        f"under plan {plan.name or '<unnamed>'!r}"
    )
    _write_doc(doc, args.json)
    return 0


def _cmd_causal(args: argparse.Namespace) -> int:
    from repro.obs.causal import causal_profile

    trace = _load_trace(args.trace)
    profile = causal_profile(trace, trace_platform(trace, args.platform))
    print(profile.to_text())
    _write_doc(profile.to_dict(), args.json)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    plan = load_whatif_plan(args.plan) if args.plan else None
    trace = _load_trace(args.trace)
    doc = capacity_sweep(
        trace, trace_platform(trace, args.platform), sizes, plan=plan
    )
    print(sweep_table(doc))
    _write_doc(doc, args.json)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = run_validation(
        rows=args.rows, cols=args.cols, bands=args.bands, seed=args.seed,
    )
    print(validation_table(doc))
    _write_doc(doc, args.json)
    return 0 if doc["pass"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro whatif",
        description="Deterministic what-if replay of recorded traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pred = sub.add_parser(
        "predict", help="replay a trace under a what-if plan"
    )
    pred.add_argument("trace", help="JSONL trace file")
    pred.add_argument("plan", help="what-if plan JSON file")
    pred.add_argument(
        "--platform", default="fully heterogeneous",
        help="platform preset name (default: %(default)s)",
    )
    pred.add_argument(
        "--json", default=None, help="write the prediction document here"
    )
    pred.set_defaults(func=_cmd_predict)

    causal = sub.add_parser(
        "causal", help="ranked virtual-speedup (causal) profile"
    )
    causal.add_argument("trace", help="JSONL trace file")
    causal.add_argument(
        "--platform", default="fully heterogeneous",
        help="platform preset name (default: %(default)s)",
    )
    causal.add_argument(
        "--json", default=None, help="write the causal profile JSON here"
    )
    causal.set_defaults(func=_cmd_causal)

    sweep = sub.add_parser(
        "sweep", help="capacity-planning sweep (makespan vs cluster size)"
    )
    sweep.add_argument("trace", help="JSONL trace file (needs run.meta)")
    sweep.add_argument(
        "--sizes", default="4,8,12,16",
        help="comma-separated rank counts (default: %(default)s)",
    )
    sweep.add_argument(
        "--platform", default="fully heterogeneous",
        help="platform preset name (default: %(default)s)",
    )
    sweep.add_argument(
        "--plan", default=None,
        help="optional what-if plan applied at every size",
    )
    sweep.add_argument(
        "--json", default=None, help="write the sweep document here"
    )
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate",
        help="gate replay predictions against actual sim-engine runs",
    )
    validate.add_argument("--rows", type=int, default=48)
    validate.add_argument("--cols", type=int, default=16)
    validate.add_argument("--bands", type=int, default=24)
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument(
        "--json", default=None, help="write the validation document here"
    )
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
