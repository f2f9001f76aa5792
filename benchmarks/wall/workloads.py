"""The five workloads, as sequences of named calls into ``repro``.

A *call* is one entry into a public function of a layer, wrapped in a
span named after the per-layer metric it feeds (``core.atdca_sim16`` →
``core.atdca_sim16_s``).  A *pass* of a workload is its calls, in
order, on the benchmark's own thread; the only other threads are the 16
rank threads the program starts.  ``--seed`` reaches the program only
as generated scenes.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from pathlib import Path
from typing import Any, Callable

from repro.cluster import all_networks
from repro.core import atdca, morph_classify, pct_classify, run_parallel, ufcls
from repro.errors import DeadlockError
from repro.experiments import (
    ExperimentConfig,
    run_figure1,
    run_figure2,
    run_network_grid,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from repro.experiments.traced import run_traced
from repro.hsi import SceneConfig, WTCScene, make_wtc_scene
from repro.tuning.planner import plan_run

from spans import Recorder, steal_seconds

ALGORITHMS = ("atdca", "ufcls", "pct", "morph")
#: The three algorithms whose kernels are light enough (3 / 9 / 35 ms)
#: that a 16-rank run of them times the runtime, not the kernel.
LIGHT = ("atdca", "pct", "morph")
NETWORK = "fully heterogeneous"
#: UFCLS's work depends on which targets the scene's noise makes it
#: pick: sequential time on the grid scene spreads 5 % (quartiles)
#: across seeds, and a 16-rank run with the paper's 18 targets spreads
#: 19 % and takes 7 s, so a run could hold two passes of one scene.  The
#: passes of these workloads therefore rotate over this many scenes made
#: from the seed and report the mean of the per-scene medians, and
#: ``ufcls16`` asks for 10 targets (1.2 s a pass; cost grows as t^3).
VARIANTS = {"seq": 3, "ufcls16": 6}
UFCLS16_TARGETS = 10
#: ``--quick`` is a smoke run: one tiny scene (rows, cols, bands) and
#: algorithm parameters shrunk with it (PCT needs more bands than
#: classes).
QUICK_DIMS = (48, 8, 16)
QUICK_PARAMS = {"n_targets": 6, "n_classes": 8, "iterations": 2}


@dataclasses.dataclass
class Op:
    """One attempted operation: what a call returned, for the checker.

    ``virtual_s`` is the sum of sim-backend makespans inside the call
    (0.0 when it ran nothing on the sim backend); ``variant`` and
    ``cfg`` say which scene and parameters it ran on."""

    name: str
    kind: str  # "detector" | "classifier" | "grid" | "tables" | "plan" | "traced"
    output: Any
    virtual_s: float = 0.0
    algorithm: str = ""
    backend: str = ""  # "seq" | "inproc" | "sim"
    variant: int = 0
    cfg: ExperimentConfig | None = None


@dataclasses.dataclass
class Context:
    """Everything a call needs; built once per interpreter by ``setup``."""

    cfg: ExperimentConfig
    platform: Any
    spans: Recorder
    tmp: Path
    quick: bool
    #: How many scenes the workload's passes rotate over, and which one
    #: the next pass runs on.
    variants: int = 1
    variant: int = 0
    scenes: dict[tuple[str, int], WTCScene] = dataclasses.field(
        default_factory=dict)
    #: The last grid built, which the ``experiments.tables`` call projects.
    grid: Any = None
    #: Calls run a second time by :func:`retrying`.
    deadlock_retries: int = 0
    #: Machine-speed samples (``spans.calibrate``) of this interpreter.
    calibration_s: list[float] = dataclasses.field(default_factory=list)

    def grid_scene(self, variant: int | None = None) -> WTCScene:
        """The timing scene of ``variant`` (default: the current one).
        Variant 0 is ``SceneConfig.seed = --seed`` itself."""
        variant = self.variant if variant is None else variant
        return self._scene("grid", self.cfg.grid_scene, variant)

    def accuracy_scene(self) -> WTCScene:
        return self._scene("accuracy", self.cfg.scene, 0)

    def _scene(self, kind: str, config: SceneConfig, variant: int) -> WTCScene:
        if (kind, variant) not in self.scenes:
            self.scenes[kind, variant] = make_wtc_scene(dataclasses.replace(
                config, seed=config.seed + 1_000_003 * variant))
        return self.scenes[kind, variant]

    def cost(self):
        return self.cfg.cost_model()

    def reps(self, full: int) -> int:
        """Probe repetitions: ``full``, or a tenth of it under --quick."""
        return max(3, full // 10) if self.quick else full


def setup(workload: str, seed: int, mode: str, tmp: Path) -> Context:
    """What ``setup_s`` times after the imports: the workload's scene
    and the four networks.  Only untraced runs rotate scenes: the
    per-layer metrics of a traced run are all taken on the first."""
    quick = mode == "quick"
    base = ExperimentConfig(**(QUICK_PARAMS if quick else {}))
    if quick:
        rows, cols, bands = QUICK_DIMS
        grid = accuracy = SceneConfig(rows=rows, cols=cols, bands=bands)
    else:
        grid, accuracy = base.grid_scene, base.scene
    ctx = Context(
        cfg=dataclasses.replace(
            base,
            scene=dataclasses.replace(accuracy, seed=seed),
            grid_scene=dataclasses.replace(grid, seed=seed),
        ),
        platform=all_networks()[NETWORK], spans=Recorder(), tmp=tmp,
        quick=quick,
        variants=VARIANTS.get(workload, 1) if mode == "timed" else 1,
    )
    ctx.grid_scene()
    return ctx


# -- calls ---------------------------------------------------------------------

SEQUENTIAL: dict[str, Callable[[Any, ExperimentConfig], Any]] = {
    "atdca": lambda image, cfg: atdca(image, cfg.n_targets),
    "ufcls": lambda image, cfg: ufcls(image, cfg.n_targets),
    "pct": lambda image, cfg: pct_classify(image, cfg.n_classes),
    "morph": lambda image, cfg: morph_classify(
        image, cfg.n_classes, iterations=cfg.iterations
    ),
}


def kind_of(algorithm: str) -> str:
    return "detector" if algorithm in ("atdca", "ufcls") else "classifier"


def _config(ctx: Context, n_targets: int | None) -> ExperimentConfig:
    """The paper's parameters, or (outside --quick) ``n_targets``."""
    if n_targets is None or ctx.quick:
        return ctx.cfg
    return dataclasses.replace(ctx.cfg, n_targets=n_targets)


def sequential(ctx: Context, name: str, algorithm: str,
               n_targets: int | None = None) -> Op:
    cfg = _config(ctx, n_targets)
    output = SEQUENTIAL[algorithm](ctx.grid_scene().image, cfg)
    return Op(name, kind_of(algorithm), output, algorithm=algorithm,
              backend="seq", variant=ctx.variant, cfg=cfg)


def parallel(ctx: Context, name: str, algorithm: str, backend: str,
             n_targets: int | None = None) -> Op:
    cfg = _config(ctx, n_targets)
    run = run_parallel(
        algorithm, ctx.grid_scene().image, ctx.platform,
        params=cfg.params_for(algorithm), variant="hetero",
        backend=backend, cost_model=ctx.cost(),
    )
    return Op(name, kind_of(algorithm), run.output,
              virtual_s=run.makespan if backend == "sim" else 0.0,
              algorithm=algorithm, backend=backend,
              variant=ctx.variant, cfg=cfg)


def grid24(ctx: Context, name: str) -> Op:
    ctx.grid = run_network_grid(
        ctx.cfg, algorithms=LIGHT, scene=ctx.grid_scene()
    )
    return Op(name, "grid", ctx.grid,
              virtual_s=sum(c.total for c in ctx.grid.cells.values()))


def tables(ctx: Context, name: str) -> Op:
    cfg, accuracy = ctx.cfg, ctx.accuracy_scene()
    table8 = run_table8(cfg)
    output = {
        "table5": run_table5(cfg, ctx.grid),
        "table6": run_table6(cfg, ctx.grid),
        "table7": run_table7(cfg, ctx.grid),
        "table8": table8,
        "figure2": run_figure2(cfg, table8),
        "table4": run_table4(cfg, accuracy),
        "figure1": run_figure1(cfg, accuracy, ctx.tmp),
    }
    return Op(name, "tables", output)


def plans(ctx: Context, name: str) -> Op:
    grid = ctx.cfg.grid_scene
    output = [
        plan_run(
            algorithm, ctx.platform, grid.rows, grid.cols, grid.bands,
            ctx.cfg.params_for(algorithm), cost_model=ctx.cost(),
        )
        for algorithm in ("atdca", "ufcls")
    ]
    return Op(name, "plan", output)


def traced(ctx: Context, name: str) -> Op:
    runs = [
        run_traced(ctx.cfg, ctx.tmp, backend, algorithm)
        for backend, algorithm in (
            ("sim", "atdca"), ("inproc", "atdca"), ("sim", "morph"),
        )
    ]
    return Op(name, "traced", runs,
              virtual_s=sum(r.run.makespan for r in runs
                            if r.run.sim is not None))


#: Every named call.  Each feeds the per-layer metric ``<name>_s``;
#: in a traced run the calls a workload's passes did not make are made
#: once each, so every such metric is reported on every workload.
CALLS: dict[str, Callable[[Context, str], Op]] = {
    **{
        f"core.{a}_seq": functools.partial(sequential, algorithm=a)
        for a in ALGORITHMS
    },
    **{
        f"core.{a}_{backend}16": functools.partial(
            parallel, algorithm=a, backend=backend)
        for backend in ("inproc", "sim") for a in LIGHT
    },
    "core.ufcls_sim16": functools.partial(
        parallel, algorithm="ufcls", backend="sim",
        n_targets=UFCLS16_TARGETS),
    # In no pass: the base of the ratio core.ufcls_sim16_x.
    "core.ufcls10_seq": functools.partial(
        sequential, algorithm="ufcls", n_targets=UFCLS16_TARGETS),
    "experiments.grid24": grid24,
    "experiments.tables": tables,
    "tuning.plan": plans,
    "obs.traced": traced,
}

#: Workload → the calls of one pass.  The one-line reasons live in
#: BENCHMARK.json, the long ones in README.md.
PASSES: dict[str, tuple[str, ...]] = {
    "seq": tuple(f"core.{a}_seq" for a in ALGORITHMS),
    "inproc16_light": tuple(f"core.{a}_inproc16" for a in LIGHT),
    "sim16_light": tuple(f"core.{a}_sim16" for a in LIGHT),
    "ufcls16": ("core.ufcls_sim16",),
    "regen": ("experiments.grid24", "experiments.tables", "tuning.plan",
              "obs.traced"),
}


def retrying(ctx: Context, fn: Callable[[], Any]) -> Any:
    """Run ``fn``; run it once more if the Router declares a deadlock.

    The Router calls a run deadlocked when every rank is blocked and
    nothing moved for 0.25 s of wall time.  On a box where 16 rank
    threads share 2 cores, a stall of the whole process that long (we
    saw single 0.1 s runs take 1.15 s) makes a healthy run look like
    that about once in a few thousand.  A deadlock the program really
    has fails the second time too and is counted as a failure; the
    retries are reported as ``mailbox.deadlock_retries``."""
    try:
        return fn()
    except DeadlockError:
        ctx.deadlock_retries += 1
        return fn()


def call(ctx: Context, name: str) -> Op:
    with ctx.spans.span(name):
        return retrying(ctx, lambda: CALLS[name](ctx, name))


@dataclasses.dataclass
class PassResult:
    ops: list[Op]
    wall_s: float
    cpu_s: float
    #: Hypervisor steal that accrued during the pass (see steal_seconds).
    steal_s: float

    @property
    def virtual_s(self) -> float:
        return sum(op.virtual_s for op in self.ops)


def run_pass(ctx: Context, workload: str) -> PassResult:
    """One closed-loop pass: the workload's calls, one at a time."""
    steal = steal_seconds()
    wall, cpu = time.perf_counter(), time.process_time()
    with ctx.spans.span("pass"):
        ops = [call(ctx, name) for name in PASSES[workload]]
    return PassResult(
        ops, time.perf_counter() - wall, time.process_time() - cpu,
        steal_seconds() - steal,
    )
