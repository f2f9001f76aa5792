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
program has the engine's schedule — each rank's op sequence, kernel
labels included, and each serial link's transfer order — and the times
are *equal* (:mod:`repro.cluster.simtime` says why the global
interleaving does not matter); for PCT and MORPH the candidate-set
message sizes are data-dependent and the model uses their upper bounds
(a sub-percent effect).  The test-suite pins both claims.

Used for the Thunderhead sweeps (Table 8, Figure 2), where the engine
would need 256 threads per point, and to price the detector cells of
the Tables 5–7 grid (:mod:`repro.experiments.grid`) instead of running
them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

import numpy as np

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.cluster.mailbox import values_wire_megabits
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

    Ops are appended in each rank's program order; collectives are
    expanded with the same scatter/gather order and binomial trees as
    ``repro.mpi.collectives``, every one rooted at the master.  Message
    sizes are given in spectral values and priced as the mailbox prices
    an array payload: values plus the envelope, at the cost model's
    width.

    Everything an emitter caches — each collective's (src, dst) order,
    the megabits of each message size, the ops of a collective whose
    messages have one size (every round's gather and broadcast) — is a
    pure function of its arguments and lives only as long as one
    :func:`emit_op_program` call.  Ops are immutable, so a cached list
    is appended again rather than rebuilt.
    """

    def __init__(self, size: int, root: int, cost: CostModel) -> None:
        self.size = size
        self.root = root
        self.cost = cost
        self.ops: list[Op] = []
        self._megabits: dict[int, float] = {}
        self._pairs = {
            "scatter": [(root, dst) for dst in range(size) if dst != root],
            "gather": [(src, root) for src in range(size) if src != root],
            "bcast": _binomial_tree(size, root),
        }
        self._uniform: dict[tuple[str, int], list[Op]] = {}

    def megabits(self, values: float) -> float:
        count = int(values)
        megabits = self._megabits.get(count)
        if megabits is None:
            megabits = self._megabits[count] = values_wire_megabits(
                count, self.cost.bytes_per_value
            ) * self.cost.comm_scale
        return megabits

    def compute(
        self, rank: int, mflops: float, sequential: bool = False,
        label: str = "",
    ) -> None:
        self.ops.append(
            Op("compute", rank, -1, float(mflops), 0.0, 1.0, sequential, label)
        )

    def compute_each(
        self, n_local: list[int], charge: Callable[[int], float], label: str
    ) -> None:
        """One parallel charge per rank, ``charge(pixels)``, priced once
        per distinct share size."""
        priced = {n: float(charge(n)) for n in set(n_local)}
        self.ops.extend(
            _tuple_new(
                Op, ("compute", rank, -1, priced[n], 0.0, 1.0, False, label)
            )
            for rank, n in enumerate(n_local)
        )

    def _send(self, route: str, values: float | list[float]) -> None:
        """One message per (src, dst) pair of ``route``, in order, of
        ``values[i]`` spectral values — or of ``values`` each, given one
        size."""
        pairs = self._pairs[route]
        if isinstance(values, list):
            self.ops.extend(
                Op("transfer", src, dst, 0.0, self.megabits(v))
                for (src, dst), v in zip(pairs, values)
            )
            return
        key = (route, int(values))
        ops = self._uniform.get(key)
        if ops is None:
            size = self.megabits(values)
            ops = self._uniform[key] = [
                _tuple_new(
                    Op, ("transfer", src, dst, 0.0, size, 1.0, False, "")
                )
                for src, dst in pairs
            ]
        self.ops.extend(ops)

    # -- collective schedules (mirroring repro.mpi.collectives) ---------------------
    def scatter(self, values_per_rank: FloatArray) -> None:
        self._send(
            "scatter",
            [values_per_rank[dst] for _, dst in self._pairs["scatter"]],
        )

    def gather(self, values: float | FloatArray) -> None:
        """Every rank but the root sends ``values`` (one size, or an
        array of one per rank) to the root."""
        if np.ndim(values):
            values = [values[src] for src, _ in self._pairs["gather"]]
        self._send("gather", values)

    def bcast(self, values: float) -> None:
        self._send("bcast", values)

    def allreduce(self, values: float) -> None:
        if "reduce" not in self._pairs:
            self._pairs["reduce"] = _binomial_reduce(self.size, self.root)
        self._send("reduce", values)
        self.bcast(values)


#: Builds an :class:`Op` from all eight fields without the named
#: tuple's Python-level ``__new__``: half the cost per op, and a
#: Thunderhead program runs to 10^4 ops.
_tuple_new = tuple.__new__


def _binomial_tree(size: int, root: int) -> list[tuple[int, int]]:
    """A binomial broadcast's (src, dst) sends, depth-first: processing
    a child's forwards before the parent's next send preserves every
    rank's program order, which is all the clock arithmetic depends on."""
    pairs: list[tuple[int, int]] = []

    def schedule(relative: int, mask: int) -> None:
        mask >>= 1
        while mask > 0:
            child = relative + mask
            if child < size:
                pairs.append(((relative + root) % size, (child + root) % size))
                schedule(child, mask)
            mask >>= 1

    if size > 1:
        schedule(0, 1 << (size - 1).bit_length())
    return pairs


def _binomial_reduce(size: int, root: int) -> list[tuple[int, int]]:
    """Mirror of binomial_reduce: each non-root relative rank sends once
    to its parent, at the level of its lowest set bit."""
    pairs = []
    mask = 1
    while mask < size:
        for relative in range(size):
            if relative & mask and not relative & (mask - 1):
                src = (relative + root) % size
                dst = ((relative ^ mask) + root) % size
                pairs.append((src, dst))
        mask <<= 1
    return pairs


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
    eng = _OpEmitter(p, master, cost)
    counts = partition.counts
    n_local = counts * cols  # pixels per rank
    pixels = n_local.tolist()

    if algorithm in DETECTORS:
        spec = DETECTORS[algorithm]
        score = getattr(cost, spec.score_kernel)
        select = getattr(cost, spec.select_kernel)
        t = int(params.get("n_targets", 18))
        eng.compute(master, cost.scatter_pack(rows * cols * bands),
                    sequential=True, label="scatter_pack")
        eng.scatter(_block_values(partition, cols, bands, 0))
        eng.compute_each(
            pixels, lambda n: cost.brightest_search(n, bands),
            "brightest_search",
        )
        eng.gather(bands + 2.0)
        eng.compute(master, cost.brightest_search(p, bands),
                    sequential=True, label="brightest_search")
        eng.bcast(1.0 * bands)
        for k in range(1, t):
            eng.compute_each(
                pixels, lambda n: score(n, bands, k), spec.score_kernel
            )
            eng.gather(bands + 2.0)
            eng.compute(master, select(bands, k, p),
                        sequential=True, label=spec.select_kernel)
            eng.bcast(float((k + 1) * bands))
        return eng.ops

    if algorithm == "pct":
        c = int(params.get("n_classes", 24))
        eng.compute(master, cost.scatter_pack(rows * cols * bands),
                    sequential=True, label="scatter_pack")
        eng.scatter(_block_values(partition, cols, bands, 0))
        eng.compute_each(
            pixels, lambda n: cost.unique_set_scan(n, bands, c),
            "unique_set_scan",
        )
        # Typical per-worker unique-set size: the greedy scan saturates
        # near the number of distinct scene signatures, ≈ c (the 4c cap
        # is rarely approached).  Data-dependent, hence "model" not
        # "mirror" for PCT — the validation test allows a few percent.
        local_k = float(params.get("model_local_unique", c))
        eng.gather(local_k * bands + local_k)
        eng.compute(
            master,
            cost.dedup_unique_set(int(local_k * p), bands, kept=c),
            sequential=True, label="dedup_unique_set",
        )
        eng.bcast(float(c * bands + c))
        eng.compute_each(
            pixels, lambda n: cost.covariance_accumulate(n, bands),
            "covariance_accumulate",
        )
        eng.gather(bands + bands * bands + 1.0)
        eng.compute(
            master,
            cost.covariance_accumulate(p, bands) + cost.eigendecomposition(bands),
            sequential=True, label="eigendecomposition",
        )
        eng.bcast(float(bands + c * bands + bands))
        eng.compute_each(
            pixels,
            lambda n: cost.pct_projection(n, bands, c)
            + cost.classify_by_sad(n, c, c),
            "pct_projection",
        )
        eng.allreduce(float(c))  # global reduced-space minimum
        eng.gather(n_local.astype(float))  # label blocks
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
        eng.scatter(_block_values(partition, cols, bands, halo))
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
        eng.gather(c * bands + 2.0 * c)
        eng.compute(
            master, cost.dedup_unique_set(c * p, bands, kept=c),
            sequential=True, label="dedup_unique_set",
        )
        eng.bcast(float(c * bands + 2 * c))
        eng.compute_each(
            pixels, lambda n: cost.classify_by_sad(n, bands, c),
            "classify_by_sad",
        )
        eng.gather(2.0 * n_local.astype(float))  # labels + MEI map
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
