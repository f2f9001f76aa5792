"""Analytic performance model of the four algorithms.

Running the thread-per-rank engine at 256 ranks is possible but wasteful
when only *times* are needed: every compute charge is already an
analytic formula and every transfer an analytic cost.  This module
writes each algorithm's schedule down as an op program — the same
scatter/gather/bcast orders and the same
:class:`~repro.cluster.costs.CostModel` formulas, with payload-size
estimates instead of data — and hands it to the
:class:`~repro.cluster.simtime.TimingCore` the engine itself times
with.  No timing arithmetic lives here.

For ATDCA and UFCLS every charge is data-independent, so the emitted
program is the engine's and the times are *equal*; for PCT and MORPH
the candidate-set message sizes are data-dependent and the model uses
their upper bounds (a sub-percent effect).  The test-suite pins both
claims.

Used for the Thunderhead sweeps (Table 8, Figure 2) where the engine
would need 256 threads per point.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.mailbox import ENVELOPE_VALUES
from repro.cluster.platform import HeterogeneousPlatform
from repro.cluster.simtime import Op, TimingCore
from repro.core.parallel_detect import DETECTORS
from repro.core.parallel_morph import morph_halo_depth
from repro.errors import ConfigurationError
from repro.morphology.structuring import square
from repro.perf.timers import PhaseBreakdown
from repro.scheduling.static_part import RowPartition
from repro.types import FloatArray

__all__ = ["ModelResult", "emit_op_program", "model_run"]


@dataclasses.dataclass
class ModelResult:
    """Predicted times for one run.

    Attributes:
        total: makespan (s).
        breakdown: the Table 6 COM/SEQ/PAR triple at the master.
        finish_times: per-rank finish times.
        busy_times: per-rank non-idle times (Table 7 input).
    """

    total: float
    breakdown: PhaseBreakdown
    finish_times: FloatArray
    busy_times: FloatArray


class _OpEmitter:
    """Flattens an algorithm's schedule into a linear op program.

    Ops are appended in the order the engine would execute them;
    collectives are expanded with the same scatter/gather order and
    binomial trees as ``repro.mpi.collectives``.  Message sizes are
    given in spectral values and priced like the mailbox prices an
    array payload: values plus the envelope, at the cost model's width.
    """

    def __init__(self, size: int, cost: CostModel) -> None:
        self.size = size
        self.cost = cost
        self.ops: list[Op] = []

    def compute(
        self, rank: int, mflops: float, sequential: bool = False,
        label: str = "",
    ) -> None:
        self.ops.append(Op(
            "compute", rank, mflops=float(mflops), sequential=sequential,
            label=label,
        ))

    def transfer(self, src: int, dst: int, values: float) -> None:
        megabits = self.cost.values_megabits(int(values) + ENVELOPE_VALUES)
        self.ops.append(Op("transfer", src, dst, megabits=megabits))

    # -- collective schedules (mirroring repro.mpi.collectives) ---------------------
    def scatter(self, root: int, values_per_rank: FloatArray) -> None:
        for dst in range(self.size):
            if dst != root:
                self.transfer(root, dst, float(values_per_rank[dst]))

    def gather(self, root: int, values_per_rank: FloatArray) -> None:
        for src in range(self.size):
            if src != root:
                self.transfer(src, root, float(values_per_rank[src]))

    def bcast(self, root: int, values: float) -> None:
        size = self.size
        if size == 1:
            return
        # Binomial tree, depth-first: processing a child's forwards
        # before the parent's next send preserves every rank's program
        # order, which is all the clock arithmetic depends on.
        def schedule(relative: int, mask: int) -> None:
            mask >>= 1
            while mask > 0:
                child = relative + mask
                if child < size:
                    self.transfer(
                        (relative + root) % size, (child + root) % size, values
                    )
                    schedule(child, mask)
                mask >>= 1

        schedule(0, 1 << (size - 1).bit_length())

    def allreduce(self, root: int, values: float) -> None:
        # Mirror of binomial_reduce: each non-root relative rank sends
        # once to its parent, at the level of its lowest set bit.
        size = self.size
        if size == 1:
            return
        mask = 1
        while mask < size:
            for relative in range(size):
                if relative & mask and not relative & (mask - 1):
                    src = (relative + root) % size
                    dst = ((relative ^ mask) + root) % size
                    self.transfer(src, dst, values)
            mask <<= 1
        self.bcast(root, values)


def _block_values(partition: RowPartition, cols: int, bands: int, halo: int) -> FloatArray:
    """Per-rank scatter payload sizes in values (block + 7 metadata ints)."""
    counts = partition.counts
    offsets = partition.offsets
    n_rows = partition.n_rows
    values = np.empty(partition.size)
    for rank in range(partition.size):
        start = int(offsets[rank])
        stop = start + int(counts[rank])
        top = min(halo, start)
        bottom = min(halo, n_rows - stop)
        values[rank] = (counts[rank] + top + bottom) * cols * bands + 7
    return values


def emit_op_program(
    algorithm: str,
    platform: HeterogeneousPlatform,
    partition: RowPartition,
    rows: int,
    cols: int,
    bands: int,
    params: Mapping[str, object] | None = None,
    cost_model: CostModel | None = None,
) -> list[Op]:
    """Flatten ``algorithm``'s schedule into a timing-core op program.

    Returns compute and transfer :class:`~repro.cluster.simtime.Op`
    records in execution order, with ``label`` the charged kernel's
    name (matching the ``kernel.*`` span names of a traced run).
    :func:`model_run` executes exactly this list; the what-if replay
    executes it under perturbations.
    """
    params = dict(params or {})
    cost = cost_model or DEFAULT_COST_MODEL
    master = platform.master_rank
    p = platform.size
    eng = _OpEmitter(p, cost)
    counts = partition.counts
    n_local = counts * cols  # pixels per rank

    if algorithm in DETECTORS:
        spec = DETECTORS[algorithm]
        score = getattr(cost, spec.score_kernel)
        select = getattr(cost, spec.select_kernel)
        t = int(params.get("n_targets", 18))
        eng.compute(master, cost.scatter_pack(rows * cols * bands),
                    sequential=True, label="scatter_pack")
        eng.scatter(master, _block_values(partition, cols, bands, 0))
        for rank in range(p):
            eng.compute(rank, cost.brightest_search(int(n_local[rank]), bands),
                        label="brightest_search")
        eng.gather(master, np.full(p, bands + 2.0))
        eng.compute(master, cost.brightest_search(p, bands),
                    sequential=True, label="brightest_search")
        eng.bcast(master, 1.0 * bands)
        for k in range(1, t):
            for rank in range(p):
                eng.compute(rank, score(int(n_local[rank]), bands, k),
                            label=spec.score_kernel)
            eng.gather(master, np.full(p, bands + 2.0))
            eng.compute(master, select(bands, k, p),
                        sequential=True, label=spec.select_kernel)
            eng.bcast(master, float((k + 1) * bands))
        return eng.ops

    if algorithm == "pct":
        c = int(params.get("n_classes", 24))
        eng.compute(master, cost.scatter_pack(rows * cols * bands),
                    sequential=True, label="scatter_pack")
        eng.scatter(master, _block_values(partition, cols, bands, 0))
        for rank in range(p):
            eng.compute(rank, cost.unique_set_scan(int(n_local[rank]), bands, c),
                        label="unique_set_scan")
        # Typical per-worker unique-set size: the greedy scan saturates
        # near the number of distinct scene signatures, ≈ c (the 4c cap
        # is rarely approached).  Data-dependent, hence "model" not
        # "mirror" for PCT — the validation test allows a few percent.
        local_k = float(params.get("model_local_unique", c))
        eng.gather(master, np.full(p, local_k * bands + local_k))
        eng.compute(
            master,
            cost.dedup_unique_set(int(local_k * p), bands, kept=c),
            sequential=True, label="dedup_unique_set",
        )
        eng.bcast(master, float(c * bands + c))
        for rank in range(p):
            eng.compute(rank, cost.covariance_accumulate(int(n_local[rank]), bands),
                        label="covariance_accumulate")
        eng.gather(master, np.full(p, bands + bands * bands + 1.0))
        eng.compute(
            master,
            cost.covariance_accumulate(p, bands) + cost.eigendecomposition(bands),
            sequential=True, label="eigendecomposition",
        )
        eng.bcast(master, float(bands + c * bands + bands))
        for rank in range(p):
            eng.compute(
                rank,
                cost.pct_projection(int(n_local[rank]), bands, c)
                + cost.classify_by_sad(int(n_local[rank]), c, c),
                label="pct_projection",
            )
        eng.allreduce(master, float(c))  # global reduced-space minimum
        eng.gather(master, n_local.astype(float))  # label blocks
        return eng.ops

    if algorithm == "morph":
        c = int(params.get("n_classes", 24))
        iterations = int(params.get("iterations", 5))
        se = params.get("se") or square(3)
        halo = morph_halo_depth(
            se, iterations, exact=bool(params.get("exact_halo", False))
        )
        eng.compute(master, cost.scatter_pack(rows * cols * bands),
                    sequential=True, label="scatter_pack")
        eng.scatter(master, _block_values(partition, cols, bands, halo))
        offsets = partition.offsets
        for rank in range(p):
            start = int(offsets[rank])
            stop = start + int(counts[rank])
            ext_rows = (
                int(counts[rank]) + min(halo, start) + min(halo, rows - stop)
            )
            n_ext = ext_rows * cols
            pool = min(int(n_local[rank]), 8 * c)
            eng.compute(
                rank,
                cost.morph_iteration(n_ext, bands, se.size) * iterations
                + cost.sad_pairs(pool * min(c, pool), bands),
                label="morph_iteration",
            )
        eng.gather(master, np.full(p, c * bands + 2.0 * c))
        eng.compute(
            master, cost.dedup_unique_set(c * p, bands, kept=c),
            sequential=True, label="dedup_unique_set",
        )
        eng.bcast(master, float(c * bands + 2 * c))
        for rank in range(p):
            eng.compute(
                rank, cost.classify_by_sad(int(n_local[rank]), bands, c),
                label="classify_by_sad",
            )
        eng.gather(master, 2.0 * n_local.astype(float))  # labels + MEI map
        return eng.ops

    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


def model_run(
    algorithm: str,
    platform: HeterogeneousPlatform,
    partition: RowPartition,
    rows: int,
    cols: int,
    bands: int,
    params: Mapping[str, object] | None = None,
    cost_model: CostModel | None = None,
) -> ModelResult:
    """Predict the virtual-time result of ``run_parallel`` analytically.

    Args:
        algorithm: ``"atdca" | "ufcls" | "pct" | "morph"``.
        platform: the platform (sets rank count and master).
        partition: the row partition the run would use.
        rows, cols, bands: scene dimensions.
        params: algorithm parameters (as for ``run_parallel``).
        cost_model: flop/byte accounting (must match the engine run).
    """
    core = TimingCore(platform)
    core.run(emit_op_program(
        algorithm, platform, partition, rows, cols, bands,
        params=params, cost_model=cost_model,
    ))
    finish_times = core.finish_times
    total = max(finish_times)
    master = core.ledgers[platform.master_rank]
    return ModelResult(
        total=total,
        breakdown=PhaseBreakdown(
            com=master.com, seq=master.seq,
            par=max(total - master.com - master.seq, 0.0),
        ),
        finish_times=np.array(finish_times),
        busy_times=np.array([ledger.compute_busy for ledger in core.ledgers]),
    )
