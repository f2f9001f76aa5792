"""High-level driver: run any of the four algorithms on any platform.

Connects the pieces: chooses workload fractions for the requested
variant (heterogeneous/homogeneous), derives the WEA row partition with
memory bounds, and executes the SPMD program on the virtual-time engine
(for performance experiments) or the in-process wall-clock backend (for
correctness and real parallel runs).

Variants:

* ``"hetero"`` — the paper's heterogeneous algorithms: WEA
  speed-proportional shares (Algorithm 1), with halo-compensated row
  counts for the windowed MORPH kernels.  For the iterative
  master/worker loops this is near-optimal: every iteration ends at a
  gather barrier, so per-iteration compute balance dominates and the
  one-time scatter skew is amortized;
* ``"dlt"`` — divisible-load-theory shares optimizing the serialized
  one-shot scatter-plus-compute schedule (processor cycle-times *and*
  link capacities).  Better for single-pass workloads; over-tilts
  shares for the iterative algorithms (the ablation benchmark
  quantifies both regimes);
* ``"homo"`` — the homogeneous versions: equal shares.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.engine import SimulationResult, run_program
from repro.cluster.platform import HeterogeneousPlatform
from repro.core.atdca import _check_finite
from repro.core.parallel_detect import (
    DETECTORS,
    parallel_atdca_program,
    parallel_ufcls_program,
)
from repro.core.parallel_morph import morph_halo_depth, parallel_morph_program
from repro.core.parallel_pct import parallel_pct_program
from repro.errors import ConfigurationError
from repro.hsi.cube import HyperspectralImage
from repro.morphology.structuring import square
from repro.mpi.inproc import InprocResult, run_inproc
from repro.scheduling.static_part import (
    RowPartition,
    dlt_fractions,
    halo_compensated_rows,
    heterogeneous_fractions,
    homogeneous_fractions,
    wea_partition,
)
from repro.types import FloatArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.adaptive import AdaptiveController
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import CheckpointStore
    from repro.obs import ObsSession
    from repro.tuning.planner import TuningPlan

__all__ = [
    "ALGORITHM_NAMES",
    "estimate_row_workload",
    "make_fractions",
    "make_row_partition",
    "make_row_partition_for_dims",
    "build_program_kwargs",
    "ProgramLaunch",
    "prepare_launch",
    "ParallelRun",
    "run_parallel",
]

#: The paper's four algorithms.
ALGORITHM_NAMES: tuple[str, ...] = ("atdca", "ufcls", "pct", "morph")

_PROGRAMS: Mapping[str, Callable[..., Any]] = {
    "atdca": parallel_atdca_program,
    "ufcls": parallel_ufcls_program,
    "pct": parallel_pct_program,
    "morph": parallel_morph_program,
}

_VARIANTS = ("hetero", "dlt", "homo")


def _check_algorithm(name: str) -> str:
    if name not in _PROGRAMS:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}"
        )
    return name


def estimate_row_workload(
    algorithm: str,
    cols: int,
    bands: int,
    params: Mapping[str, Any],
    cost_model: CostModel | None = None,
) -> tuple[float, float]:
    """Per-row (mflops, megabits) for the network-aware WEA fractions.

    Uses the same cost formulas the programs charge, evaluated for one
    row of ``cols`` pixels across the algorithm's dominant loop.
    """
    _check_algorithm(algorithm)
    cost = cost_model or DEFAULT_COST_MODEL
    megabits = cost.pixels_megabits(cols, bands)
    if algorithm in DETECTORS:
        t = int(params.get("n_targets", 18))
        score = getattr(cost, DETECTORS[algorithm].score_kernel)
        mflops = sum(score(cols, bands, k) for k in range(1, t))
        mflops += cost.brightest_search(cols, bands)
    elif algorithm == "pct":
        c = int(params.get("n_classes", 24))
        mflops = (
            cost.unique_set_scan(cols, bands, c)
            + cost.covariance_accumulate(cols, bands)
            + cost.pct_projection(cols, bands, c)
            + cost.classify_by_sad(cols, c, c)
        )
    else:  # morph
        c = int(params.get("n_classes", 24))
        iterations = int(params.get("iterations", 5))
        se = params.get("se") or square(3)
        mflops = (
            cost.morph_iteration(cols, bands, se.size) * iterations
            + cost.classify_by_sad(cols, bands, c)
        )
        megabits = cost.pixels_megabits(cols, bands)  # halo ignored here
    return float(mflops), float(megabits)


def make_fractions(
    platform: HeterogeneousPlatform,
    algorithm: str,
    cols: int,
    bands: int,
    params: Mapping[str, Any],
    variant: str = "hetero",
    cost_model: CostModel | None = None,
) -> FloatArray:
    """Workload fractions for the requested variant.

    The DLT solve is scale-invariant, so the per-row workload estimates
    stand in for the totals.
    """
    if variant not in _VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; expected one of {_VARIANTS}"
        )
    if variant == "homo":
        return homogeneous_fractions(platform)
    if variant == "hetero":
        return heterogeneous_fractions(platform)
    mflops, megabits = estimate_row_workload(
        algorithm, cols, bands, params, cost_model
    )
    return dlt_fractions(platform, mflops, megabits)


def _morph_halo(params: Mapping[str, Any]) -> int:
    se = params.get("se") or square(3)
    iterations = int(params.get("iterations", 5))
    return morph_halo_depth(se, iterations, exact=bool(params.get("exact_halo", False)))


def make_row_partition_for_dims(
    platform: HeterogeneousPlatform,
    rows: int,
    cols: int,
    bands: int,
    algorithm: str,
    params: Mapping[str, Any],
    variant: str = "hetero",
    cost_model: CostModel | None = None,
) -> RowPartition:
    """Fractions → memory-bounded WEA row partition for a scene shape.

    The partition depends only on the scene *dimensions*, never the
    pixel data, so what-if capacity planning can re-partition a
    perturbed platform from a recorded trace's metadata alone and get
    exactly the partition a real run would use.

    For MORPH under the heterogeneous variants, row counts are
    additionally halo-compensated: the windowed kernels process
    ``rows + 2·halo`` rows, so shares equalize extended-block work.
    """
    algorithm = _check_algorithm(algorithm)
    fractions = make_fractions(
        platform, algorithm, cols, bands, params, variant, cost_model
    )
    if algorithm == "morph" and variant != "homo":
        counts = halo_compensated_rows(rows, fractions, _morph_halo(params))
        return RowPartition(counts)
    return wea_partition(platform, rows, cols, bands, fractions=fractions)


def make_row_partition(
    platform: HeterogeneousPlatform,
    image: HyperspectralImage,
    algorithm: str,
    params: Mapping[str, Any],
    variant: str = "hetero",
    cost_model: CostModel | None = None,
) -> RowPartition:
    """Fractions → memory-bounded WEA row partition for ``image``."""
    return make_row_partition_for_dims(
        platform, image.rows, image.cols, image.bands,
        algorithm, params, variant, cost_model,
    )


def build_program_kwargs(
    algorithm: str,
    params: Mapping[str, Any],
    partition: RowPartition,
) -> dict[str, Any]:
    """Translate user ``params`` into the program's keyword arguments.

    Shared by :func:`run_parallel` and the fault-tolerant driver
    (:func:`repro.faults.recovery.run_with_recovery`), which re-invokes
    programs on survivor subsets with a fresh partition.
    """
    _check_algorithm(algorithm)
    program_kwargs: dict[str, Any] = {"partition": partition}
    if algorithm in DETECTORS:
        program_kwargs["n_targets"] = int(params.get("n_targets", 18))
    else:
        program_kwargs["n_classes"] = int(params.get("n_classes", 24))
        if algorithm == "morph":
            program_kwargs["iterations"] = int(params.get("iterations", 5))
            if params.get("se") is not None:
                program_kwargs["se"] = params["se"]
            if params.get("dedup_threshold") is not None:
                program_kwargs["dedup_threshold"] = params["dedup_threshold"]
            if params.get("exact_halo") is not None:
                program_kwargs["exact_halo"] = bool(params["exact_halo"])
        elif params.get("threshold") is not None:
            program_kwargs["threshold"] = params["threshold"]
    return program_kwargs


@dataclasses.dataclass(frozen=True)
class ProgramLaunch:
    """What a backend needs to start one execution of an algorithm.

    Attributes:
        program: the SPMD callable ``program(ctx, **kwargs)``.
        program_kwargs: keyword arguments every rank receives.
        kwargs_per_rank: per-rank extras — the image, at the master only.
    """

    program: Callable[..., Any]
    program_kwargs: dict[str, Any]
    kwargs_per_rank: list[dict[str, Any]]


def prepare_launch(
    algorithm: str,
    params: Mapping[str, Any],
    partition: RowPartition,
    image: HyperspectralImage,
    platform: HeterogeneousPlatform,
    checkpoint: "CheckpointStore | None" = None,
    adaptive: "AdaptiveController | None" = None,
) -> ProgramLaunch:
    """Bind one execution attempt: program, shared and per-rank kwargs.

    The one place that knows how a run's inputs become program
    arguments — :func:`run_parallel` launches once through it, and
    :func:`repro.faults.recovery.run_with_recovery` once per attempt,
    on whatever survivor platform and fresh partition that attempt has.
    ``checkpoint`` and ``adaptive`` reach only the iterative detectors.

    The sequential functions' finite check runs here, on the master's
    cube, so both drivers raise the same ``DataError`` and no rank
    program scans its block.
    """
    _check_finite(image.flatten_pixels())
    program_kwargs = build_program_kwargs(algorithm, params, partition)
    if algorithm in DETECTORS:
        if checkpoint is not None:
            program_kwargs["checkpoint"] = checkpoint
        if adaptive is not None:
            program_kwargs["adaptive"] = adaptive
    master = platform.master_rank
    return ProgramLaunch(
        program=_PROGRAMS[algorithm],
        program_kwargs=program_kwargs,
        kwargs_per_rank=[
            {"image": image if rank == master else None}
            for rank in range(platform.size)
        ],
    )


def _stamp_run_meta(
    obs: "ObsSession",
    algorithm: str,
    variant: str,
    image: HyperspectralImage,
    platform: HeterogeneousPlatform,
    partition: RowPartition,
    params: Mapping[str, Any],
    cost_model: CostModel | None,
    plan: "TuningPlan | None" = None,
) -> None:
    """Record the run's workload descriptor as a zero-length span.

    The ``run.meta`` span rides along in every trace export, so the
    what-if engine can regenerate the analytic op program (algorithm,
    scene shape, partition, cost-model scalars) from a trace file alone
    — required for structural perturbations like worker add/remove and
    capacity sweeps.  Category ``"meta"`` is outside the activity
    categories, so analyzers, the DAG, and the gantt ignore it.

    Auto-planned runs additionally carry scalar ``plan_*`` attributes
    (chosen variant, its prediction and the default's) so every
    planner decision is auditable from the trace —
    :func:`repro.obs.analyze.analyze_trace` surfaces them in
    ``analysis.json``.
    """
    cost = cost_model or DEFAULT_COST_MODEL
    scalar_params = {
        k: v for k, v in params.items()
        if isinstance(v, (int, float, str, bool))
    }
    plan_attrs: dict[str, Any] = {}
    if plan is not None:
        plan_attrs = {
            "plan_partition_variant": plan.partition_variant,
            "plan_predicted_s": float(plan.predicted_makespan_s),
            "plan_default_variant": plan.default_variant,
            "plan_default_predicted_s": float(plan.default_predicted_s),
        }
    obs.tracer.add_span(
        "run.meta", platform.master_rank, 0.0, 0.0, category="meta",
        algorithm=algorithm, variant=variant,
        rows=int(image.rows), cols=int(image.cols), bands=int(image.bands),
        partition=",".join(str(int(c)) for c in partition.counts),
        platform=platform.name, size=int(platform.size),
        master_rank=int(platform.master_rank),
        efficiency=float(cost.efficiency),
        bytes_per_value=int(cost.bytes_per_value),
        compute_scale=float(cost.compute_scale),
        comm_scale=float(cost.comm_scale),
        **plan_attrs,
        **scalar_params,
    )


@dataclasses.dataclass
class ParallelRun:
    """Outcome of one parallel execution.

    Attributes:
        algorithm: ``"atdca" | "ufcls" | "pct" | "morph"``.
        variant: partitioning variant used.
        output: the algorithm's result object (from the master rank).
        partition: the row partition that was executed.
        sim: virtual-time result (``backend="sim"``), else ``None``.
        inproc: wall-clock result (``backend="inproc"``), else ``None``.
    """

    algorithm: str
    variant: str
    output: Any
    partition: RowPartition
    sim: SimulationResult | None = None
    inproc: InprocResult | None = None

    @property
    def makespan(self) -> float:
        if self.sim is None:
            raise ConfigurationError("makespan requires the sim backend")
        return self.sim.makespan


def run_parallel(
    algorithm: str,
    image: HyperspectralImage,
    platform: HeterogeneousPlatform,
    params: Mapping[str, Any] | None = None,
    variant: str = "hetero",
    backend: str = "sim",
    cost_model: CostModel | None = None,
    partition: RowPartition | None = None,
    obs: "ObsSession | None" = None,
    faults: "FaultInjector | None" = None,
    checkpoint: "CheckpointStore | None" = None,
    plan: "TuningPlan | None" = None,
) -> ParallelRun:
    """Run one algorithm end to end on a platform.

    Args:
        algorithm: one of :data:`ALGORITHM_NAMES`.
        image: the scene (held by the master; scattered by the program).
        platform: processors + network (also fixes the rank count).
        params: algorithm parameters (``n_targets`` for the detectors,
            ``n_classes``/``iterations``/``se``/``exact_halo`` for the
            classifiers).
        variant: ``"hetero"`` (default), ``"dlt"``, or ``"homo"``.
        backend: ``"sim"`` (virtual time) or ``"inproc"`` (wall clock).
        cost_model: flop/byte accounting (sim backend).
        partition: override the derived partition (ablations).
        obs: observability session; spans/metrics are clocked by
            virtual time on ``"sim"`` and by the wall on ``"inproc"``.
        faults: fault injector interpreting a fault plan on either
            backend; must already be attached to ``platform``.  For
            crash *recovery* (not just injection) use
            :func:`repro.faults.recovery.run_with_recovery`.
        checkpoint: master checkpoint store for the iterative target
            detectors (ignored by pct/morph).
        plan: a :class:`repro.tuning.planner.TuningPlan` to dispatch
            through — sets the partition variant and counts the planner
            chose.  Explicit ``partition`` overrides still win.  The
            plan must match this run's algorithm, scene dimensions, and
            platform.

    Returns:
        A :class:`ParallelRun` with the master's output and timing.
    """
    _check_algorithm(algorithm)
    params = dict(params or {})
    if backend not in ("sim", "inproc"):
        raise ConfigurationError(f"unknown backend {backend!r}")
    if plan is not None:
        plan.check_matches(
            algorithm, image.rows, image.cols, image.bands, platform.size
        )
        variant = plan.partition_variant
        if partition is None:
            partition = plan.row_partition()
    part = partition or make_row_partition(
        platform, image, algorithm, params, variant, cost_model
    )
    launch = prepare_launch(
        algorithm, params, part, image, platform, checkpoint=checkpoint,
    )
    if obs is not None:
        _stamp_run_meta(
            obs, algorithm, variant, image, platform, part, params,
            cost_model, plan=plan,
        )
    master = platform.master_rank

    if backend == "sim":
        sim = run_program(
            platform,
            launch.program,
            kwargs_per_rank=launch.kwargs_per_rank,
            cost_model=cost_model,
            obs=obs,
            faults=faults,
            **launch.program_kwargs,
        )
        return ParallelRun(
            algorithm=algorithm,
            variant=variant,
            output=sim.return_values[master],
            partition=part,
            sim=sim,
        )
    inproc = run_inproc(
        platform.size,
        launch.program,
        kwargs_per_rank=launch.kwargs_per_rank,
        master_rank=master,
        obs=obs,
        faults=faults,
        platform=platform,
        **launch.program_kwargs,
    )
    return ParallelRun(
        algorithm=algorithm,
        variant=variant,
        output=inproc.return_values[master],
        partition=part,
        inproc=inproc,
    )
