"""Checkpoint–restart recovery with WEA-driven degraded mode.

When a planned (or organic) rank crash kills a run, the master-side
driver here does what Plaza's "future perspectives" sketch for networks
of workstations: confirm the loss, re-run the Workload Estimation
Algorithm over the *surviving* processors, rescatter, and continue the
iterative algorithm from its last completed iteration instead of from
scratch.

Recovery is attempt-structured rather than mid-collective: the SPMD
programs use collectives whose membership cannot change under them, so
each confirmed rank loss ends the current attempt and the next attempt
runs on a survivor-subset platform (master first, then surviving ranks
in ascending original order).  A shared in-memory
:class:`CheckpointStore` carries the master's per-iteration state
across attempts, and on the virtual-time engine the next attempt's
clocks resume from the failure time (plus an optional modelled
repartition overhead), so the exported trace shows one continuous
timeline with ``recovery.repartition`` spans at the seams.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster.costs import CostModel
from repro.cluster.engine import SimulationEngine, SimulationResult
from repro.cluster.mailbox import copy_payload
from repro.cluster.perturb import scale_rank_compute
from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import (
    ConfigurationError,
    RankFailedError,
    RepartitionSignal,
    ReproError,
)
from repro.faults.adaptive import (
    AdaptationEvent,
    AdaptiveConfig,
    AdaptiveController,
)
from repro.faults.injector import FaultInjector, injector_for
from repro.faults.plan import FaultPlan
from repro.hsi.cube import HyperspectralImage
from repro.mpi.inproc import InprocResult, run_inproc
from repro.perf.imbalance import ImbalanceScores, imbalance_of_run
from repro.scheduling.static_part import RowPartition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import ObsSession
    from repro.tuning.planner import TuningPlan

__all__ = [
    "CheckpointStore",
    "RecoveryAttempt",
    "RecoveredRun",
    "run_with_recovery",
]


class CheckpointStore:
    """Thread-safe in-memory checkpoint of master iteration state.

    Holds at most one snapshot — the highest ``step`` saved so far —
    with value semantics (arrays are copied on save and on load, so a
    resumed attempt cannot alias state into a dead attempt's objects).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._step: int | None = None
        self._state: dict[str, Any] | None = None

    def save(self, step: int, state: Mapping[str, Any]) -> None:
        """Record ``state`` for completed iteration count ``step``
        (keeps the highest step seen)."""
        with self._lock:
            if self._step is None or step >= self._step:
                self._step = int(step)
                self._state = {k: copy_payload(v) for k, v in state.items()}

    def load(self) -> tuple[int, dict[str, Any]] | None:
        """Latest ``(step, state)`` snapshot, or ``None`` if empty."""
        with self._lock:
            if self._step is None or self._state is None:
                return None
            return self._step, {
                k: copy_payload(v) for k, v in self._state.items()
            }

    @property
    def step(self) -> int | None:
        with self._lock:
            return self._step


@dataclasses.dataclass(frozen=True)
class RecoveryAttempt:
    """One execution attempt of a fault-tolerant run.

    Attributes:
        index: 0-based attempt number.
        ranks: original rank ids that participated (master first).
        crashed_rank: original id of the rank whose loss ended this
            attempt, or ``None`` for the successful final attempt.
        clock_start: virtual time at which the attempt's clocks started
            (sim backend; 0.0 inproc).
        resumed_step: checkpoint step the attempt resumed from (0 =
            from scratch).
        adapted_rank: original id of the drifting rank whose detection
            ended this attempt (adaptive runs), else ``None``.
        adapted_factor: the slowdown factor folded into the model for
            ``adapted_rank``, else ``None``.
        tuned_variant: the partition variant the autotuning planner
            chose for this attempt (tuned runs), else ``None``.
    """

    index: int
    ranks: tuple[int, ...]
    crashed_rank: int | None
    clock_start: float
    resumed_step: int
    adapted_rank: int | None = None
    adapted_factor: float | None = None
    tuned_variant: str | None = None


@dataclasses.dataclass
class RecoveredRun:
    """Outcome of a fault-tolerant execution.

    Attributes:
        algorithm, variant: what was run.
        output: the algorithm result from the final attempt's master.
        partition: WEA row partition of the *final* (post-recovery)
            platform.
        platform: the final survivor platform the result was computed
            on (the full platform when nothing crashed).
        attempts: every attempt, failed and final.
        crashed_ranks: original ids of all ranks lost along the way.
        sim / inproc: the final attempt's backend result.
        imbalance: ``D_all``/``D_minus`` re-computed for the
            post-recovery partition (sim backend; ``None`` inproc).
        adaptations: committed straggler repartitions, in order
            (adaptive runs; empty otherwise).
        model_platform: the *model* platform the final partition was
            computed from — the real platform with every adapted
            rank's calibrated speed downgraded (``None`` unless the
            run was adaptive).
    """

    algorithm: str
    variant: str
    output: Any
    partition: RowPartition
    platform: HeterogeneousPlatform
    attempts: tuple[RecoveryAttempt, ...]
    crashed_ranks: tuple[int, ...]
    sim: SimulationResult | None = None
    inproc: InprocResult | None = None
    imbalance: ImbalanceScores | None = None
    adaptations: tuple[AdaptationEvent, ...] = ()
    model_platform: HeterogeneousPlatform | None = None

    @property
    def recovered(self) -> bool:
        return bool(self.crashed_ranks)

    @property
    def adapted(self) -> bool:
        return bool(self.adaptations)

    @property
    def makespan(self) -> float:
        if self.sim is None:
            raise ConfigurationError("makespan requires the sim backend")
        return self.sim.makespan


def run_with_recovery(
    algorithm: str,
    image: HyperspectralImage,
    platform: HeterogeneousPlatform,
    params: Mapping[str, Any] | None = None,
    variant: str = "hetero",
    backend: str = "sim",
    cost_model: CostModel | None = None,
    plan: "FaultPlan | FaultInjector | None" = None,
    obs: "ObsSession | None" = None,
    max_recoveries: int | None = None,
    repartition_overhead_s: float = 0.0,
    adaptive: "AdaptiveController | AdaptiveConfig | bool | None" = None,
    tuning: "TuningPlan | str | None" = None,
) -> RecoveredRun:
    """Run an algorithm, surviving planned/confirmed worker crashes.

    Each confirmed rank loss triggers: WEA re-partitioning over the
    survivors (master first, remaining ranks in ascending original
    order), a rescatter, and — for the iterative target detectors —
    a resume from the master's last completed iteration via a shared
    :class:`CheckpointStore`.  A master crash is unrecoverable and
    re-raised, as is any non-crash failure.

    Args:
        algorithm: one of :data:`repro.core.runner.ALGORITHM_NAMES`.
        image: the scene (master-held).
        platform: the full starting platform.
        params: algorithm parameters (see ``run_parallel``).
        variant: partitioning variant for every (re-)partition.
        backend: ``"sim"`` (virtual time) or ``"inproc"`` (wall clock).
        cost_model: flop/byte accounting.
        plan: a :class:`FaultPlan` (an injector is created) or a ready
            :class:`FaultInjector` (shared fault state), or ``None``
            to run fault-free but recovery-capable.
        obs: observability session; fault/recovery spans and counters
            land here.
        max_recoveries: abort after this many rank losses (``None`` =
            unbounded; a plan bounds losses naturally).
        repartition_overhead_s: modelled virtual seconds added at each
            recovery seam (sim backend).
        adaptive: enable performance-adaptive repartitioning — pass
            ``True`` (defaults), an :class:`AdaptiveConfig`, or a
            pre-built :class:`AdaptiveController`.  Requires a
            checkpointed detector (``atdca``/``ufcls``).  The health
            monitor's straggler flag triggers a coordinated exit at
            the next iteration boundary; the drifted rank's speed is
            downgraded in a *model* copy of the platform (the engine
            keeps charging the real specs — the node didn't change,
            our calibration of it did), WEA re-partitions on the
            model, and the run resumes from the checkpoint.
        tuning: a :class:`repro.tuning.planner.TuningPlan` (used for
            the first attempt; must match this run) or ``"auto"``
            (every attempt is planned fresh).  After a rank loss or a
            committed adaptation the planner re-runs on the survivor
            (or speed-downgraded model) platform, so the recovered
            attempt gets a re-optimized partition —
            ``variant`` is ignored while a plan is active, and each
            :class:`RecoveryAttempt` records its ``tuned_variant``.

    Returns:
        A :class:`RecoveredRun`; ``imbalance`` carries the Table 7
        ``D_all``/``D_minus`` for the post-recovery partition.
    """
    from repro.core.parallel_detect import DETECTORS
    from repro.core.runner import (
        ALGORITHM_NAMES,
        make_row_partition,
        prepare_launch,
    )

    if backend not in ("sim", "inproc"):
        raise ConfigurationError(f"unknown backend {backend!r}")
    if repartition_overhead_s < 0:
        raise ConfigurationError(
            f"repartition_overhead_s must be >= 0, got {repartition_overhead_s}"
        )
    params = dict(params or {})
    injector = injector_for(plan)
    if algorithm not in ALGORITHM_NAMES:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    checkpoint = CheckpointStore() if algorithm in DETECTORS else None

    initial_plan = None
    if tuning is not None:
        from repro.tuning.planner import TuningPlan

        if isinstance(tuning, TuningPlan):
            initial_plan = tuning
            initial_plan.check_matches(
                algorithm, image.rows, image.cols, image.bands, platform.size
            )
        elif tuning != "auto":
            raise ConfigurationError(
                f"tuning must be a TuningPlan or 'auto', got {tuning!r}"
            )

    controller: AdaptiveController | None = None
    if adaptive:
        if isinstance(adaptive, AdaptiveController):
            controller = adaptive
        elif isinstance(adaptive, AdaptiveConfig):
            controller = AdaptiveController(adaptive)
        elif adaptive is True:
            controller = AdaptiveController()
        else:
            raise ConfigurationError(
                "adaptive must be True, an AdaptiveConfig, or an "
                f"AdaptiveController, got {adaptive!r}"
            )
        if checkpoint is None:
            raise ConfigurationError(
                "adaptive repartitioning needs a checkpointed detector "
                f"(atdca or ufcls), not {algorithm!r}"
            )
        # The controller reads the rank drift detector; make sure one
        # is observing the run.
        if obs is None or obs.health is None:
            from repro.obs import ObsSession
            from repro.obs.health import HealthMonitor

            if obs is None:
                obs = ObsSession.create(health=HealthMonitor())
            else:
                obs.health = HealthMonitor()

    master_orig = platform.master_rank
    survivors = set(range(platform.size))
    identity = tuple(range(platform.size))
    attempts: list[RecoveryAttempt] = []
    crashed: list[int] = []
    clock_start = 0.0
    # The *model* platform drives partitioning; adaptive repartitions
    # edit only this copy.  The engine keeps charging the real
    # ``platform`` — an injected slowdown multiplies on top of whatever
    # the engine charges, so downgrading the charged spec too would
    # double-penalize the drifted rank.
    model_platform = platform

    while True:
        ordered = tuple(
            [master_orig] + sorted(survivors - {master_orig})
        )
        if len(ordered) < 2:
            raise ReproError(
                f"fault-tolerant {algorithm}: no workers left after "
                f"{len(crashed)} rank losses"
            )
        if ordered == identity:
            run_platform = platform
            model_run = model_platform
        else:
            run_platform = platform.subset(
                ordered, name=f"{platform.name}[recovered:{len(ordered)}]"
            )
            model_run = (
                run_platform
                if model_platform is platform
                else model_platform.subset(
                    ordered,
                    name=f"{model_platform.name}[recovered:{len(ordered)}]",
                )
            )
        attempt_plan = None
        if tuning is not None:
            if (initial_plan is not None and ordered == identity
                    and model_run is platform):
                attempt_plan = initial_plan
            else:
                # Re-plan on the survivor / speed-downgraded model
                # platform: the optimal partition variant can change
                # when the processor mix changes.
                from repro.tuning.planner import plan_run

                attempt_plan = plan_run(
                    algorithm, model_run,
                    image.rows, image.cols, image.bands, params,
                    backend=backend, cost_model=cost_model,
                )
                if controller is not None and attempts:
                    controller.note_retune(attempt_plan.partition_variant)
        if attempt_plan is not None:
            partition = attempt_plan.row_partition()
        else:
            partition = make_row_partition(
                model_run, image, algorithm, params, variant, cost_model
            )
        if injector is not None:
            injector.attach(
                platform=run_platform,
                obs=obs,
                rank_map=None if ordered == identity else ordered,
            )
        if controller is not None:
            controller.attach(
                monitor=obs.health,
                rank_map=None if ordered == identity else ordered,
            )
        launch = prepare_launch(
            algorithm, params, partition, image, run_platform,
            checkpoint=checkpoint, adaptive=controller,
        )
        resumed_step = (checkpoint.step or 0) if checkpoint is not None else 0
        tuned_variant = (
            attempt_plan.partition_variant if attempt_plan is not None
            else None
        )
        master = run_platform.master_rank
        # How the attempt is recorded if it runs to completion; a crash
        # or an adaptation records it with that outcome filled in.
        attempt = RecoveryAttempt(
            index=len(attempts),
            ranks=ordered,
            crashed_rank=None,
            clock_start=clock_start,
            resumed_step=resumed_step,
            tuned_variant=tuned_variant,
        )

        engine: SimulationEngine | None = None
        try:
            sim: SimulationResult | None = None
            inproc: InprocResult | None = None
            scores: ImbalanceScores | None = None
            if backend == "sim":
                engine = SimulationEngine(
                    run_platform,
                    cost_model=cost_model,
                    obs=obs,
                    faults=injector,
                    clock_start=clock_start,
                )
                result = sim = engine.run(
                    launch.program, launch.kwargs_per_rank,
                    launch.program_kwargs,
                )
                try:
                    scores = imbalance_of_run(sim)
                except ConfigurationError:
                    pass
            else:
                result = inproc = run_inproc(
                    run_platform.size,
                    launch.program,
                    kwargs_per_rank=launch.kwargs_per_rank,
                    master_rank=master,
                    obs=obs,
                    faults=injector,
                    platform=run_platform,
                    **launch.program_kwargs,
                )
            attempts.append(attempt)
            return RecoveredRun(
                algorithm=algorithm,
                variant=tuned_variant or variant,
                output=result.return_values[master],
                partition=partition,
                platform=run_platform,
                attempts=tuple(attempts),
                crashed_ranks=tuple(crashed),
                sim=sim,
                inproc=inproc,
                imbalance=scores,
                adaptations=tuple(controller.events) if controller else (),
                model_platform=model_run if controller else None,
            )
        except RankFailedError as exc:
            lost_orig = ordered[exc.rank]
            if lost_orig == master_orig:
                raise  # master loss is unrecoverable by design
            if max_recoveries is not None and len(crashed) >= max_recoveries:
                raise
            attempts.append(
                dataclasses.replace(attempt, crashed_rank=lost_orig)
            )
            crashed.append(lost_orig)
            survivors.discard(lost_orig)
            detected_at = clock_start
            if engine is not None:
                detected_at = max(c.now for c in engine.clocks)
                clock_start = detected_at + repartition_overhead_s
            if obs is not None:
                obs.metrics.counter("fault.detected", rank=exc.rank).inc()
                obs.metrics.counter("recovery.attempts").inc()
                obs.metrics.counter("recovery.repartition_s").inc(
                    repartition_overhead_s
                )
                # ``ranks`` records the next attempt's dense-rank →
                # original-rank mapping (master first, survivors in
                # ascending original order) so trace consumers — e.g.
                # ``gantt_of_trace`` — can place post-recovery spans on
                # the original lanes.
                next_ordered = tuple(
                    [master_orig] + sorted(survivors - {master_orig})
                )
                obs.tracer.add_span(
                    "recovery.repartition",
                    master,
                    detected_at,
                    clock_start if backend == "sim" else detected_at,
                    category="fault",
                    lost_rank=lost_orig,
                    survivors=len(survivors),
                    ranks=",".join(str(r) for r in next_ordered),
                )
            # Loop: re-run WEA over the survivors and resume.
        except RepartitionSignal as exc:
            assert controller is not None  # only adaptive runs raise it
            drifted_orig = ordered[exc.rank]
            controller.commit(
                exc.rank, exc.factor, last_error=exc.ewma, step=exc.step
            )
            attempts.append(dataclasses.replace(
                attempt, adapted_rank=drifted_orig, adapted_factor=exc.factor
            ))
            model_platform = scale_rank_compute(
                model_platform, drifted_orig, exc.factor
            )
            detected_at = clock_start
            if engine is not None:
                detected_at = max(c.now for c in engine.clocks)
                clock_start = detected_at + repartition_overhead_s
            if obs is not None:
                obs.metrics.counter("adaptive.repartitions").inc()
                obs.metrics.counter("recovery.attempts").inc()
                obs.metrics.counter("recovery.repartition_s").inc(
                    repartition_overhead_s
                )
                obs.tracer.add_span(
                    "adaptive.repartition",
                    master,
                    detected_at,
                    clock_start if backend == "sim" else detected_at,
                    category="fault",
                    drifted_rank=drifted_orig,
                    factor=exc.factor,
                    step=exc.step,
                    ranks=",".join(str(r) for r in ordered),
                )
            # Loop: same ranks, WEA over the downgraded model.
