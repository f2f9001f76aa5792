"""Static data partitioning: the Workload Estimation Algorithm (WEA).

Algorithm 1 of the paper: each processor ``p_i`` receives a workload
fraction ``α_i = (1/w_i) / Σ_j (1/w_j)`` — speed-proportional — which is
translated into a spatial-domain row partition of the image cube
(hybrid partitioning: blocks of spatially adjacent pixel vectors that
keep their full spectral content).  Step 3(b) caps every partition at
the processor's local-memory bound and recursively redistributes the
excess over the unsaturated processors.

The homogeneous variant assigns equal fractions (constant ``w``), and a
*network-aware* variant (a documented extension, see DESIGN.md §1)
deflates a processor's effective speed by its per-unit communication
cost to the master — which is what lets heterogeneous algorithms win on
the partially homogeneous network (equal processors, unequal links).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError, PartitionError
from repro.types import FloatArray, IntArray

__all__ = [
    "heterogeneous_fractions",
    "homogeneous_fractions",
    "dlt_fractions",
    "rows_from_fractions",
    "halo_compensated_rows",
    "RowPartition",
    "wea_partition",
]


def heterogeneous_fractions(platform: HeterogeneousPlatform) -> FloatArray:
    """Speed-proportional workload fractions ``α_i`` (Algorithm 1, step 2).

    (The paper's step 2 typesets a floor around the ratio; taken
    literally every fraction would floor to zero, so — as in the
    reference the step cites [12] — the fractions are the plain
    proportions, and integrality enters in step 3 via the row counts.)
    """
    speeds = platform.speeds
    return speeds / speeds.sum()


def homogeneous_fractions(platform: HeterogeneousPlatform) -> FloatArray:
    """Equal fractions — the homogeneous WEA variant (constant ``w_i``)."""
    return np.full(platform.size, 1.0 / platform.size)


def dlt_fractions(
    platform: HeterogeneousPlatform,
    total_mflops: float,
    total_megabits: float,
    tolerance: float = 1e-10,
    max_bisections: int = 200,
) -> FloatArray:
    """Divisible-load-theory fractions for a serialized master scatter.

    Models the runtime's actual schedule: the master sends each
    worker's block in rank order (single-port, rendezvous — transfers
    serialize at the master), each worker computes once its block
    arrives, and the master computes its own share after the last send.
    Worker ``i``'s completion is ``Σ_{j≤i, j≠m} α_j·B_j + α_i·A_i``
    (``A_i`` = compute per unit fraction at its speed, ``B_j`` = wire
    cost per unit fraction over its link); the optimum equalizes all
    completions.  Solved by bisection on the common completion time
    (the total allocated fraction is monotone in it).

    With communication negligible this converges to the WEA
    speed-proportional fractions; with links mattering it shifts load
    toward well-connected processors — the behaviour the paper's
    heterogeneous algorithms exhibit on the partially homogeneous
    network.
    """
    if total_mflops <= 0:
        raise ConfigurationError("total_mflops must be positive")
    if total_megabits < 0:
        raise ConfigurationError("total_megabits must be >= 0")
    p = platform.size
    master = platform.master_rank
    a = np.array(
        [platform.processor(i).cycle_time * total_mflops for i in range(p)]
    )
    b = np.zeros(p)
    for i in range(p):
        if i != master:
            b[i] = platform.network.capacity(master, i) * 1e-3 * total_megabits

    workers = [i for i in range(p) if i != master]

    def allocate(t: float) -> tuple[FloatArray, float]:
        """Fractions achieving completion ≤ t; returns (α, Σα)."""
        alpha = np.zeros(p)
        sent = 0.0  # accumulated wire time of earlier workers
        for i in workers:
            # α_i (B_i + A_i) = t − sent  (its transfer starts at `sent`)
            denom = a[i] + b[i]
            share = max(0.0, (t - sent) / denom) if denom > 0 else 0.0
            alpha[i] = share
            sent += share * b[i]
        # Master computes after all sends complete.
        alpha[master] = max(0.0, (t - sent) / a[master]) if a[master] > 0 else 0.0
        return alpha, float(alpha.sum())

    # Bracket the completion time.
    low, high = 0.0, float(a.min() + b.max() + 1.0)
    while allocate(high)[1] < 1.0:
        high *= 2.0
        if high > 1e18:
            raise PartitionError("DLT bisection failed to bracket a solution")
    for _ in range(max_bisections):
        mid = 0.5 * (low + high)
        _, total = allocate(mid)
        if total < 1.0:
            low = mid
        else:
            high = mid
        if high - low <= tolerance * max(high, 1.0):
            break
    alpha, total = allocate(high)
    return alpha / total


def rows_from_fractions(
    n_rows: int, fractions: FloatArray, min_rows: int = 0
) -> IntArray:
    """Integer row counts approximating real-valued fractions.

    Largest-remainder rounding, with an optional per-partition floor
    (Hetero-MORPH needs non-empty partitions for its window kernels).

    Raises:
        PartitionError: if ``n_rows < min_rows × P`` or fractions are
            invalid.
    """
    frac = np.asarray(fractions, dtype=float)
    if frac.ndim != 1 or frac.size == 0:
        raise PartitionError(f"fractions must be a non-empty vector, got {frac.shape}")
    if np.any(frac < 0) or not np.isclose(frac.sum(), 1.0, atol=1e-9):
        raise PartitionError(
            f"fractions must be non-negative and sum to 1 (sum={frac.sum():.6f})"
        )
    p = frac.size
    if n_rows < 0:
        raise PartitionError(f"n_rows must be >= 0, got {n_rows}")
    if min_rows * p > n_rows:
        raise PartitionError(
            f"cannot give {min_rows} row(s) to each of {p} partitions out of "
            f"{n_rows} rows"
        )
    ideal = frac * n_rows
    counts = np.floor(ideal).astype(np.int64)
    # Enforce floors first, then hand out the remainder by largest fraction.
    counts = np.maximum(counts, min_rows)
    excess = int(counts.sum()) - n_rows
    if excess > 0:
        # Floors overshot: shave rows from the largest over-floor partitions.
        order = np.argsort(ideal - counts)  # most over-allocated first
        for idx in order:
            while excess > 0 and counts[idx] > min_rows:
                counts[idx] -= 1
                excess -= 1
            if excess == 0:
                break
    elif excess < 0:
        remainder = ideal - np.floor(ideal)
        order = np.argsort(-remainder)
        for idx in order[: -excess]:
            counts[idx] += 1
    assert counts.sum() == n_rows
    return counts


def halo_compensated_rows(
    n_rows: int,
    weights: FloatArray,
    halo: int,
    min_rows: int = 1,
    max_iterations: int = 64,
) -> IntArray:
    """Row counts equalizing *extended-block* work under fixed halos.

    Windowed algorithms process ``rows_i + 2·halo`` rows; proportional
    sharing of the core rows alone over-loads small (slow-processor)
    shares, for which the constant halo is relatively large.  Equalizing
    ``(rows_i + 2·halo) / weight_i`` gives ``rows_i = λ·w_i − 2·halo``
    with ``λ = (R + 2·halo·P) / Σw``; shares that would go below
    ``min_rows`` are pinned there and the remainder re-solved.

    Args:
        n_rows: total rows to distribute.
        weights: positive per-rank rates (speeds or DLT fractions).
        halo: overlap rows on each side of a partition.
        min_rows: smallest allowed share.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
        raise PartitionError("weights must be a positive vector")
    if halo < 0:
        raise PartitionError(f"halo must be >= 0, got {halo}")
    p = w.size
    if min_rows * p > n_rows:
        raise PartitionError(
            f"cannot give {min_rows} row(s) to each of {p} partitions out of "
            f"{n_rows} rows"
        )
    pinned = np.zeros(p, dtype=bool)
    ideal = np.zeros(p)
    for _ in range(max_iterations):
        free = ~pinned
        remaining = n_rows - min_rows * int(pinned.sum())
        lam = (remaining + 2.0 * halo * int(free.sum())) / w[free].sum()
        ideal[free] = lam * w[free] - 2.0 * halo
        ideal[pinned] = min_rows
        newly = free & (ideal < min_rows)
        if not newly.any():
            break
        pinned |= newly
    else:
        raise PartitionError("halo compensation failed to converge")
    fractions = ideal / ideal.sum()
    return rows_from_fractions(n_rows, fractions, min_rows=min_rows)


@dataclasses.dataclass(frozen=True)
class RowPartition:
    """A spatial-domain (row-slab) partition of an image cube.

    Attributes:
        counts: rows per rank, ``(P,)``.
        n_rows: total rows (== ``counts.sum()``).
    """

    counts: IntArray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise PartitionError("counts must be a non-empty 1-D vector")
        if np.any(counts < 0):
            raise PartitionError("row counts must be >= 0")
        object.__setattr__(self, "counts", counts)

    @property
    def size(self) -> int:
        return int(self.counts.size)

    @property
    def n_rows(self) -> int:
        return int(self.counts.sum())

    @property
    def offsets(self) -> IntArray:
        """Start row of each partition, ``(P,)``."""
        return np.concatenate(([0], np.cumsum(self.counts)[:-1]))

    def bounds(self, rank: int) -> tuple[int, int]:
        """``(start, stop)`` rows owned by ``rank``."""
        if not 0 <= rank < self.size:
            raise PartitionError(f"rank {rank} outside [0, {self.size})")
        start = int(self.offsets[rank])
        return start, start + int(self.counts[rank])

    def fractions(self) -> FloatArray:
        """Realized workload fractions (row share per rank)."""
        total = self.n_rows
        if total == 0:
            raise PartitionError("partition covers zero rows")
        return self.counts / total

    def owner_of_row(self, row: int) -> int:
        """Which rank owns a global row index."""
        if not 0 <= row < self.n_rows:
            raise PartitionError(f"row {row} outside [0, {self.n_rows})")
        return int(np.searchsorted(np.cumsum(self.counts), row, side="right"))


def wea_partition(
    platform: HeterogeneousPlatform,
    n_rows: int,
    cols: int,
    bands: int,
    fractions: FloatArray | None = None,
    bytes_per_value: int = 8,
    usable_memory_fraction: float = 0.5,
    min_rows: int = 1,
    max_redistribution_rounds: int = 64,
) -> RowPartition:
    """Algorithm 1 in full: fractions → rows, with memory upper bounds.

    Step 3(a): rows proportional to ``α_i``; if every partition fits its
    processor's memory, done.  Step 3(b): partitions over the bound are
    capped and the surplus is redistributed over unsaturated processors
    proportionally to their fractions, recursively, until everything is
    placed or the aggregate memory is exhausted.

    Args:
        platform: supplies speeds and per-node memory.
        n_rows, cols, bands: image dimensions (rows are the partition
            unit; each row holds ``cols`` pixel vectors of ``bands``).
        fractions: workload fractions; default speed-proportional.
        bytes_per_value: in-memory width of a spectral sample.
        usable_memory_fraction: see
            :meth:`repro.cluster.processor.ProcessorSpec.max_pixels`.
        min_rows: per-partition floor (default 1 row each).

    Raises:
        PartitionError: if the platform's aggregate memory cannot hold
            the cube or redistribution fails to converge.
    """
    if cols <= 0 or bands <= 0:
        raise PartitionError(f"cols and bands must be positive, got ({cols}, {bands})")
    p = platform.size
    frac = (
        heterogeneous_fractions(platform)
        if fractions is None
        else np.asarray(fractions, dtype=float)
    )
    if frac.shape != (p,):
        raise PartitionError(f"fractions shape {frac.shape} != ({p},)")

    row_caps = np.array(
        [
            platform.processor(i).max_pixels(
                bands, bytes_per_value, usable_memory_fraction
            )
            // cols
            for i in range(p)
        ],
        dtype=np.int64,
    )
    if int(row_caps.sum()) < n_rows:
        raise PartitionError(
            f"aggregate memory holds {int(row_caps.sum())} rows but the cube "
            f"has {n_rows}; the workload does not fit the platform"
        )
    if np.any(row_caps < min_rows):
        raise PartitionError(
            "some processor cannot hold even the minimum partition "
            f"({min_rows} row(s))"
        )

    counts = rows_from_fractions(n_rows, frac, min_rows=min_rows)

    # Step 3(b): cap and redistribute until feasible.
    for _ in range(max_redistribution_rounds):
        over = counts > row_caps
        if not over.any():
            break
        surplus = int((counts[over] - row_caps[over]).sum())
        counts = np.where(over, row_caps, counts)
        headroom = row_caps - counts
        open_mask = (headroom > 0) & ~over
        if not open_mask.any() or surplus == 0:
            raise PartitionError(
                "memory redistribution failed: no unsaturated processors "
                f"remain for {surplus} surplus row(s)"
            )
        weights = frac[open_mask] / frac[open_mask].sum()
        share = np.minimum(
            rows_from_fractions(surplus, weights, min_rows=0),
            headroom[open_mask],
        )
        counts[open_mask] += share
        leftover = surplus - int(share.sum())
        # Any rounding leftover goes one row at a time to open processors.
        while leftover > 0:
            headroom = row_caps - counts
            idx = int(np.argmax(headroom))
            if headroom[idx] <= 0:
                raise PartitionError(
                    "memory redistribution failed to place all rows"
                )
            counts[idx] += 1
            leftover -= 1
    else:
        raise PartitionError(
            f"memory redistribution did not converge in "
            f"{max_redistribution_rounds} rounds"
        )
    return RowPartition(counts)
