"""The network × algorithm × variant grid behind Tables 5, 6 and 7.

Tables 5–7 are three projections of one grid of 32 cells, computed once
and shared.  A cell's program is fixed by its algorithm, its master
rank and its partition (params, scene and cost model are the grid's),
and the four networks share two processor sets, so the 32 cells hold 8
distinct programs.  :func:`_run_grid_tasks` obtains each once and builds
every other cell by re-pricing that program's op log on the cell's own
network (:func:`repro.cluster.engine.reprice`), which is exact.

A classifier program is executed on the engine.  A detector program is
not: its schedule is data-independent, so the analytic model's op
program (:func:`repro.experiments.model.emit_op_program`) times it to
the bit, and its targets are the sequential detector's, computed once
per algorithm.  A cell that something observes — a trace or a fault
plan — is its own program and is executed.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

from repro.cluster.engine import SimulationResult, reprice
from repro.cluster.presets import all_networks
from repro.cluster.simtime import TimingCore
from repro.core.parallel_detect import DETECTORS
from repro.core.runner import (
    ALGORITHM_NAMES,
    ParallelRun,
    make_row_partition,
    run_parallel,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.costs import CostModel
    from repro.cluster.platform import HeterogeneousPlatform
    from repro.faults.plan import FaultPlan
    from repro.faults.recovery import RecoveredRun
    from repro.hsi.cube import HyperspectralImage
    from repro.scheduling.static_part import RowPartition
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.model import emit_op_program
from repro.hsi.scene import WTCScene, make_wtc_scene
from repro.obs import ObsSession, write_chrome_trace, write_metrics_json
from repro.perf.imbalance import ImbalanceScores, imbalance_of_run
from repro.perf.timers import PhaseBreakdown, breakdown_of_run

__all__ = [
    "GridCell",
    "NetworkGrid",
    "run_network_grid",
    "variant_label",
]

#: The two variants the paper compares.
VARIANTS: tuple[str, ...] = ("hetero", "homo")

#: Row-label prefix of every partition variant ``run_parallel`` accepts.
_VARIANT_PREFIX = {"hetero": "Hetero", "dlt": "DLT", "homo": "Homo"}


def variant_label(algorithm: str, variant: str) -> str:
    """The paper's row labels, e.g. ``"Hetero-ATDCA"``."""
    if variant not in _VARIANT_PREFIX:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from "
            f"{list(_VARIANT_PREFIX)}"
        )
    return f"{_VARIANT_PREFIX[variant]}-{algorithm.upper()}"


@dataclasses.dataclass(frozen=True)
class GridCell:
    """One (algorithm, variant, network) measurement.

    Under a fault plan ``run`` is the fault-tolerant driver's
    :class:`~repro.faults.recovery.RecoveredRun` (same ``makespan`` /
    ``sim`` surface), and ``imbalance`` reflects the final
    post-recovery partition.
    """

    run: "ParallelRun | RecoveredRun"
    breakdown: PhaseBreakdown
    imbalance: ImbalanceScores

    @property
    def total(self) -> float:
        return self.run.makespan


@dataclasses.dataclass
class NetworkGrid:
    """All runs keyed by ``(row_label, network_name)``; ``programs`` of
    them were executed on the engine, the rest priced."""

    cells: Mapping[tuple[str, str], GridCell]
    scene: WTCScene
    config: ExperimentConfig
    programs: int

    @property
    def row_labels(self) -> list[str]:
        return sorted({k[0] for k in self.cells}, key=_row_order)

    @property
    def network_names(self) -> list[str]:
        order = list(all_networks())
        present = {k[1] for k in self.cells}
        return [n for n in order if n in present]

    def cell(self, row: str, network: str) -> GridCell:
        try:
            return self.cells[(row, network)]
        except KeyError:
            raise ExperimentError(
                f"grid has no cell ({row!r}, {network!r})"
            ) from None


def _row_order(label: str) -> tuple[int, int]:
    alg_order = {name.upper(): i for i, name in enumerate(ALGORITHM_NAMES)}
    prefix, _, alg = label.partition("-")
    return alg_order.get(alg, 99), list(_VARIANT_PREFIX.values()).index(prefix)


def _cell_stem(algorithm: str, variant: str, network_name: str) -> str:
    return f"{variant_label(algorithm, variant)}__{network_name}".replace(
        " ", "_"
    )


def _run_grid_tasks(
    cfg: ExperimentConfig,
    tasks: Sequence[tuple[str, str, str]],
    image: "HyperspectralImage",
    cost: "CostModel",
    traces: Path | None,
    fault_plan: "FaultPlan | None",
) -> tuple[list["ParallelRun | RecoveredRun"], int]:
    """Every ``(network, algorithm, variant)`` task's run, each
    distinct program obtained once → ``(runs in task order, programs
    executed)``.

    A task's key is ``(algorithm, master rank, partition counts)``:
    params, image and cost model are the grid's for every task, so
    tasks with one key run one program.  For the first task of a key,
    a classifier's program is executed (:func:`_run_grid_cell`); a
    detector's is priced (:func:`_priced_run`).  Every other task's
    run is the first one's re-priced on its own network.
    An observed task — one whose run writes a trace or goes through a
    fault plan — keys on the task itself and is executed.
    """
    observed = traces is not None or fault_plan is not None
    platforms = all_networks()
    keys: list[Hashable] = []
    partitions: list["RowPartition | None"] = []
    for task in tasks:
        network, algorithm, variant = task
        platform = platforms[network]
        if observed:
            keys.append(task)
            partitions.append(None)
            continue
        partition = make_row_partition(
            platform, image, algorithm, cfg.params_for(algorithm), variant,
            cost,
        )
        keys.append(
            (algorithm, platform.master_rank, tuple(partition.counts.tolist()))
        )
        partitions.append(partition)
    first: dict[Hashable, int] = {}
    for index, key in enumerate(keys):
        first.setdefault(key, index)
    run_first = [
        index for index in first.values()
        if observed or tasks[index][1] not in DETECTORS
    ]
    programs: dict[Hashable, "ParallelRun | RecoveredRun"] = {
        keys[index]: _run_grid_cell(
            cfg, image, cost, traces, fault_plan, tasks[index]
        )
        for index in run_first
    }
    sequential: dict[str, Any] = {}
    for key, index in first.items():
        if key in programs:
            continue
        network, algorithm, variant = tasks[index]
        params = cfg.params_for(algorithm)
        if algorithm not in sequential:
            sequential[algorithm] = DETECTORS[algorithm].sequential(
                image, int(params.get("n_targets", 18))
            )
        programs[key] = _priced_run(
            algorithm, variant, sequential[algorithm], platforms[network],
            partitions[index], image, params, cost,
        )
    runs = []
    for index, (task, key) in enumerate(zip(tasks, keys)):
        run = programs[key]
        if first[key] != index:
            assert run.sim is not None
            run = dataclasses.replace(
                run, variant=task[2], sim=reprice(run.sim, platforms[task[0]])
            )
        runs.append(run)
    return runs, len(run_first)


def _priced_run(
    algorithm: str,
    variant: str,
    output: Any,
    platform: "HeterogeneousPlatform",
    partition: "RowPartition",
    image: "HyperspectralImage",
    params: Mapping[str, Any],
    cost: "CostModel",
) -> ParallelRun:
    """A detector run without running it: ``output`` (the sequential
    detector's, which the parallel program reproduces) at the master,
    and the model's op program timed on ``platform``.

    Equal per-rank op sequences and equal transfer order on every
    serial link give the engine's clocks and ledgers to the bit
    (:mod:`repro.cluster.simtime`), so the result is the one
    :func:`~repro.core.runner.run_parallel` returns.
    """
    core = TimingCore(platform)
    core.run(emit_op_program(
        algorithm, platform, partition, image.rows, image.cols, image.bands,
        params=params, cost_model=cost,
    ))
    master = platform.master_rank
    return ParallelRun(
        algorithm=algorithm,
        variant=variant,
        output=output,
        partition=partition,
        sim=SimulationResult(
            platform_name=platform.name,
            return_values=[
                output if rank == master else None
                for rank in range(platform.size)
            ],
            finish_times=core.finish_times,
            ledgers=core.ledgers,
            master_rank=master,
            ops=core.ops,
        ),
    )


def _run_grid_cell(
    cfg: ExperimentConfig,
    image: Any,
    cost: Any,
    traces: Path | None,
    fault_plan: "FaultPlan | None",
    task: tuple[str, str, str],
) -> "ParallelRun | RecoveredRun":
    """Execute one (network, algorithm, variant) cell on the engine."""
    network_name, algorithm, variant = task
    platform = all_networks()[network_name]
    obs = ObsSession.create() if traces is not None else None
    if fault_plan is not None:
        from repro.faults.recovery import run_with_recovery

        run = run_with_recovery(
            algorithm,
            image,
            platform,
            params=cfg.params_for(algorithm),
            variant=variant,
            cost_model=cost,
            plan=fault_plan,
            obs=obs,
        )
    else:
        run = run_parallel(
            algorithm,
            image,
            platform,
            params=cfg.params_for(algorithm),
            variant=variant,
            cost_model=cost,
            obs=obs,
        )
    assert run.sim is not None
    if traces is not None and obs is not None:
        stem = _cell_stem(algorithm, variant, network_name)
        write_chrome_trace(traces / f"{stem}.trace.json", obs)
        write_metrics_json(traces / f"{stem}.metrics.json", obs)
    return run


def run_network_grid(
    config: ExperimentConfig | None = None,
    algorithms: tuple[str, ...] = ALGORITHM_NAMES,
    variants: tuple[str, ...] = VARIANTS,
    scene: WTCScene | None = None,
    trace_dir: Path | str | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> NetworkGrid:
    """Compute the full grid on the virtual-time engine.

    Each distinct classifier program runs once and each detector
    program is priced by the model; the other cells are its op log
    re-priced on their own networks (:func:`_run_grid_tasks`).

    Args:
        config: experiment configuration (paper-scaled cost model).
        algorithms: subset of algorithms to run (all four by default).
        variants: partitioning variants (paper: hetero + homo).
        scene: reuse an existing scene (else built from the config).
        trace_dir: when given, write per-cell Chrome traces and metrics
            (``<label>__<network>.trace.json`` / ``.metrics.json``).
        fault_plan: when given, every cell runs under the fault-
            tolerant driver with this plan injected (fresh fault state
            per cell, so each cell sees the same fault sequence); cell
            timings then measure the *degraded* platform.

    With ``trace_dir`` or ``fault_plan`` every cell is observed, so
    every cell is executed.
    """
    cfg = config or ExperimentConfig()
    scn = scene or make_wtc_scene(cfg.grid_scene)
    cost = cfg.cost_model(cfg.grid_scene)
    traces = Path(trace_dir) if trace_dir is not None else None
    if traces is not None:
        traces.mkdir(parents=True, exist_ok=True)
    tasks = [
        (network_name, algorithm, variant)
        for network_name in all_networks()
        for algorithm in algorithms
        for variant in variants
    ]
    runs, programs = _run_grid_tasks(
        cfg, tasks, scn.image, cost, traces, fault_plan
    )
    cells = {
        (variant_label(algorithm, variant), network_name): GridCell(
            run=run,
            breakdown=breakdown_of_run(run.sim),
            imbalance=imbalance_of_run(run.sim),
        )
        for (network_name, algorithm, variant), run in zip(tasks, runs)
    }
    return NetworkGrid(cells=cells, scene=scn, config=cfg, programs=programs)

