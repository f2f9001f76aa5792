"""Per-layer probes: short timed calls into one layer's public functions.

They run only in a traced run, after the workload's passes, each under
a span with workload id ``<workload>:probe``.  The names are the per-layer metrics
of BENCHMARK.json; README.md says which end-to-end metric each should
move, on which workload.  Timings are medians over a few repetitions;
counts are exact.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Callable

import numpy as np

from repro.cluster import Router, SimulationEngine, run_program
from repro.cluster.mailbox import copy_payload, freeze_payload
from repro.core import (
    atdca,
    make_row_partition,
    mei_map,
    parallel_atdca_program,
    parallel_morph_program,
    parallel_pct_program,
    run_parallel,
)
from repro.core.parallel_common import distribute_row_blocks
from repro.core.runner import build_program_kwargs
from repro.experiments import model_run
from repro.hsi import make_wtc_scene
from repro.linalg import (
    covariance_matrix,
    fcls_abundances,
    pct_transform,
    residual_energy,
)
from repro.morphology import square
from repro.mpi import Communicator, run_inproc
from repro.obs import (
    ObsSession,
    analyze_trace,
    replay,
    replay_ops_from_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.perf.imbalance import imbalance_of_run
from repro.perf.timers import breakdown_of_run
from repro.tuning.planner import plan_run

from workloads import ALGORITHMS, CALLS, LIGHT, Context, retrying

_PROGRAMS = {
    "atdca": parallel_atdca_program,
    "pct": parallel_pct_program,
    "morph": parallel_morph_program,
}


def _median_seconds(fn: Callable[[], Any], reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# -- cluster.mailbox -----------------------------------------------------------

def _pingpong_us(rounds: int) -> float:
    """Median round trip of a 1-value payload between two threads."""
    router = Router(2)

    def echo() -> None:
        try:
            for _ in range(rounds):
                router.send(1, 0, 0, router.recv(1, 0), 0.0)
        finally:
            router.retire(1)

    peer = threading.Thread(target=echo, name="wall-pingpong")
    peer.start()
    trips = []
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            router.send(0, 1, 0, 1.0, 0.0)
            router.recv(0, 1)
            trips.append(time.perf_counter() - start)
    finally:
        router.retire(0)
        peer.join()
    return statistics.median(trips) * 1e6


def _fanin16_us(rounds: int) -> float:
    """Median round of 15 senders → rank 0: every send and every match
    wakes all 16 threads on the Router's one condition variable."""
    n = 16
    router = Router(n)

    def sender(rank: int) -> None:
        try:
            for _ in range(rounds):
                router.send(rank, 0, 0, 1.0, 0.0)
        finally:
            router.retire(rank)

    threads = [
        threading.Thread(target=sender, args=(rank,), name=f"wall-fanin-{rank}")
        for rank in range(1, n)
    ]
    for t in threads:
        t.start()
    times = []
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            for src in range(1, n):
                router.recv(0, src)
            times.append(time.perf_counter() - start)
    finally:
        router.retire(0)
        for t in threads:
            t.join()
    return statistics.median(times) * 1e6


def mailbox(ctx: Context) -> dict[str, float]:
    values = ctx.grid_scene().image.values

    def copy_and_freeze() -> None:
        copy_payload(values)
        freeze_payload(values)

    return {
        "mailbox.pingpong_us": _pingpong_us(ctx.reps(2000)),
        "mailbox.fanin16_us": _fanin16_us(ctx.reps(200)),
        "mailbox.copy_mb_per_s":
            values.nbytes / 1e6 / _median_seconds(copy_and_freeze, ctx.reps(5)),
    }


# -- mpi and cluster.engine: the same three programs on each backend -----------

def _noop_program(rank_ctx: Any) -> None:
    return None


def _collective_program(rank_ctx: Any, rounds: int) -> float:
    comm = Communicator(rank_ctx)
    small = np.arange(8.0)
    start = time.perf_counter()
    for _ in range(rounds):
        comm.bcast(small if comm.is_master else None)
        comm.gather(small)
    return time.perf_counter() - start


def _scatter_gather_program(rank_ctx: Any, image: Any, partition: Any) -> None:
    comm = Communicator(rank_ctx)
    block = distribute_row_blocks(comm, image, partition)
    comm.gather(block.core_pixels)


def _image_on_master(ctx: Context) -> list[dict[str, Any]]:
    """``kwargs_per_rank``: the scene for the master, ``None`` elsewhere."""
    image = ctx.grid_scene().image
    return [
        {"image": image if rank == ctx.platform.master_rank else None}
        for rank in range(ctx.platform.size)
    ]


def _runtime(ctx: Context, prefix: str,
             run: Callable[..., Any]) -> dict[str, float]:
    """``run(program, kwargs_per_rank=None, **common)`` executes an SPMD
    program on 16 ranks and returns an object with ``return_values``."""
    image = ctx.grid_scene().image
    master = ctx.platform.master_rank
    partition = make_row_partition(
        ctx.platform, image, "atdca", ctx.cfg.params_for("atdca"),
        "hetero", ctx.cost(),
    )
    images = _image_on_master(ctx)
    rounds = ctx.reps(100)
    return {
        f"{prefix}.spawn16_s":
            _median_seconds(lambda: run(_noop_program), ctx.reps(5)),
        f"{prefix}.collective16_us":
            run(_collective_program, rounds=rounds).return_values[master]
            / rounds * 1e6,
        f"{prefix}.scatter_gather_s": _median_seconds(
            lambda: run(_scatter_gather_program, kwargs_per_rank=images,
                        partition=partition),
            ctx.reps(5),
        ),
    }


def mpi(ctx: Context) -> dict[str, float]:
    def run(program: Callable[..., Any], **kwargs: Any) -> Any:
        return run_inproc(ctx.platform.size, program,
                          master_rank=ctx.platform.master_rank, **kwargs)

    return _runtime(ctx, "mpi", run)


def engine(ctx: Context) -> dict[str, float]:
    def run(program: Callable[..., Any], **kwargs: Any) -> Any:
        return run_program(ctx.platform, program,
                           cost_model=ctx.cost(), **kwargs)

    out = _runtime(ctx, "engine", run)
    image = ctx.grid_scene().image
    transfers = events = 0
    for algorithm in LIGHT:
        params = ctx.cfg.params_for(algorithm)
        partition = make_row_partition(
            ctx.platform, image, algorithm, params, "hetero", ctx.cost()
        )
        sim = SimulationEngine(
            ctx.platform, cost_model=ctx.cost(), trace=True
        ).run(
            _PROGRAMS[algorithm], _image_on_master(ctx),
            build_program_kwargs(algorithm, params, partition),
        )
        transfers += len(sim.transfers)
        events += len(sim.events)
    out["engine.transfers"] = transfers
    out["engine.events"] = events
    return out


# -- kernels --------------------------------------------------------------------

def linalg(ctx: Context) -> dict[str, float]:
    image = ctx.grid_scene().image
    pixels = image.values.reshape(-1, image.bands)
    endmembers = atdca(image, 10).signatures
    reps = ctx.reps(5)

    def pca() -> None:
        pct_transform(covariance_matrix(pixels))

    return {
        "linalg.fcls_px_per_s": len(pixels) / _median_seconds(
            lambda: fcls_abundances(pixels, endmembers), reps),
        "linalg.osp_px_per_s": len(pixels) / _median_seconds(
            lambda: residual_energy(pixels, endmembers), reps),
        "linalg.pca_s": _median_seconds(pca, reps),
    }


def morphology(ctx: Context) -> dict[str, float]:
    image = ctx.grid_scene().image
    seconds = _median_seconds(
        lambda: mei_map(image.values, square(3), ctx.cfg.iterations),
        ctx.reps(5),
    )
    return {"morphology.mei_px_per_s": image.rows * image.cols / seconds}


# -- the periphery ---------------------------------------------------------------

def hsi(ctx: Context) -> dict[str, float]:
    config = ctx.cfg.grid_scene
    return {"hsi.scene_s": _median_seconds(
        lambda: make_wtc_scene(config), ctx.reps(5))}


def scheduling(ctx: Context) -> dict[str, float]:
    image = ctx.grid_scene().image
    samples = [
        _median_seconds(
            lambda: make_row_partition(
                ctx.platform, image, algorithm,
                ctx.cfg.params_for(algorithm), variant, ctx.cost()),
            ctx.reps(5),
        )
        for algorithm in ALGORITHMS for variant in ("hetero", "homo")
    ]
    return {"scheduling.partition_s": statistics.median(samples)}


def model_and_plan(ctx: Context) -> dict[str, float]:
    """The sim run of hetero ATDCA on the grid scene, seen through the
    layers that price or summarise it: the analytic model and planner
    (``experiments.model``, ``tuning``), the Table 6/7 projections
    (``perf``) and the WEA imbalance (``scheduling``)."""
    image = ctx.grid_scene().image
    params = ctx.cfg.params_for("atdca")
    plan = plan_run(
        "atdca", ctx.platform, image.rows, image.cols, image.bands,
        params, cost_model=ctx.cost(),
    )
    planned = run_parallel(
        "atdca", image, ctx.platform, params=params, backend="sim",
        cost_model=ctx.cost(), plan=plan,
    )
    run = run_parallel(
        "atdca", image, ctx.platform, params=params, backend="sim",
        cost_model=ctx.cost(),
    )

    def project() -> None:
        breakdown_of_run(run.sim)
        imbalance_of_run(run.sim)

    return {
        "tuning.pred_rel_err":
            abs(plan.predicted_makespan_s - planned.makespan)
            / planned.makespan,
        "scheduling.dall_hetero": imbalance_of_run(run.sim).d_all,
        "perf.breakdown_s": _median_seconds(project, ctx.reps(200)),
        "experiments.model_s": _median_seconds(
            lambda: model_run(
                "atdca", ctx.platform, run.partition,
                image.rows, image.cols, image.bands,
                params=params, cost_model=ctx.cost()),
            ctx.reps(5),
        ),
    }


def obs(ctx: Context) -> dict[str, float]:
    image = ctx.grid_scene().image
    params = ctx.cfg.params_for("atdca")
    plain, recorded = [], []
    session = run = None
    for _ in range(3):
        for samples, with_session in ((plain, False), (recorded, True)):
            session = ObsSession.create() if with_session else None
            start = time.perf_counter()
            run = run_parallel(
                "atdca", image, ctx.platform, params=params, backend="sim",
                cost_model=ctx.cost(), obs=session,
            )
            samples.append(time.perf_counter() - start)
    stem = ctx.tmp / "probe"
    files = [stem.with_suffix(s) for s in (".trace.json", ".jsonl", ".metrics.json")]

    def export() -> None:
        write_chrome_trace(files[0], session)
        write_jsonl(files[1], session)
        write_metrics_json(files[2], session)

    def replay_trace() -> None:
        ops, _ = replay_ops_from_trace(session)
        replay(ops, ctx.platform)

    return {
        "obs.record_x": statistics.median(recorded) / statistics.median(plain),
        "obs.export_s": _median_seconds(export, ctx.reps(5)),
        "obs.analyze_s": _median_seconds(
            lambda: analyze_trace(
                session, result=run.sim, partition=run.partition,
                platform=ctx.platform).to_text(),
            ctx.reps(5),
        ),
        "obs.replay_s": _median_seconds(replay_trace, ctx.reps(5)),
        "obs.spans": len(session.tracer),
        "obs.export_bytes": sum(f.stat().st_size for f in files),
    }


PROBES: dict[str, Callable[[Context], dict[str, float]]] = {
    "cluster.mailbox": mailbox,
    "mpi": mpi,
    "cluster.engine": engine,
    "linalg": linalg,
    "morphology": morphology,
    "hsi": hsi,
    "scheduling": scheduling,
    "model_and_plan": model_and_plan,
    "obs": obs,
}


def run_probes(ctx: Context, span_id: str) -> dict[str, float]:
    """Every probe, each under a span named ``probe.<layer>``."""
    out: dict[str, float] = {}
    with ctx.spans.recording(span_id):
        for layer, probe in PROBES.items():
            with ctx.spans.span(f"probe.{layer}"):
                out.update(retrying(ctx, lambda: probe(ctx)))
    return out


def call_metrics(ctx: Context) -> dict[str, float]:
    """The metrics that come from the spans around the named calls:
    ``<call>_s`` medians, and the ratios with the bases beside them."""
    out = {
        f"{name}_s": statistics.median(s.seconds for s in ctx.spans.named(name))
        for name in CALLS
    }
    out["experiments.cell_s"] = out["experiments.grid24_s"] / 24
    for algorithm in LIGHT:
        for backend in ("inproc16", "sim16"):
            out[f"core.{algorithm}_{backend}_x"] = (
                out[f"core.{algorithm}_{backend}_s"]
                / out[f"core.{algorithm}_seq_s"])
    out["core.ufcls_sim16_x"] = (
        out["core.ufcls_sim16_s"] / out["core.ufcls10_seq_s"])
    inproc = [s for algorithm in LIGHT
              for s in ctx.spans.named(f"core.{algorithm}_inproc16")]
    out["mpi.cpu_per_wall_x"] = (
        sum(s.cpu for s in inproc) / sum(s.seconds for s in inproc))
    return out
