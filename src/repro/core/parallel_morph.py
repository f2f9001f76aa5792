"""Hetero-MORPH (Algorithm 5): parallel morphological classification.

1. the master scatters WEA partitions *with overlap borders* sized for
   ``I_max`` passes of the structuring element — redundant rows traded
   for zero inter-iteration communication (the paper's design point);
2. each worker runs the multiscale MEI sweep on its extended block and
   selects its ``c`` highest-MEI spectrally distinct candidates;
3. the master merges candidates into a unique endmember set of
   ``p ≤ c`` members (pairwise SAD) and broadcasts it;
4. workers label their core pixels by SAD against the endmembers;
5. the master gathers the label blocks into the classification map.
"""

from __future__ import annotations

import numpy as np

from repro.core.morph import (
    DEFAULT_DEDUP_THRESHOLD,
    MorphClassification,
    local_endmember_candidates,
    mei_map,
)
from repro.core.parallel_common import (
    LocalBlock,
    charged_kernel,
    cost_model_of,
    distribute_row_blocks,
    master_only,
    merge_unique_at_master,
)
from repro.errors import ConfigurationError
from repro.hsi.cube import HyperspectralImage
from repro.hsi.metrics import sad_to_references
from repro.morphology.halo import halo_depth
from repro.morphology.structuring import StructuringElement, square
from repro.mpi.communicator import Communicator, MessageContext
from repro.obs.trace import tracer_of
from repro.scheduling.static_part import RowPartition

__all__ = [
    "parallel_morph_program",
    "parallel_morph_exchange_program",
    "morph_halo_depth",
]


def morph_halo_depth(
    se: StructuringElement, iterations: int, exact: bool = False
) -> int:
    """Overlap rows each side of a partition.

    The paper sizes overlap borders "to avoid accesses outside the
    local image domain" — the window reach, ``radius`` (the default
    here).  Under iterated dilation the outermost halo rows go stale by
    one radius per pass, so block-edge MEI values are approximate;
    the paper trades exactly this for zero inter-iteration
    communication, and the classification impact is marginal (pinned by
    the test-suite).

    ``exact=True`` instead uses ``radius × (2·I_max + 1)``, which makes
    core MEI values match the sequential computation exactly: the
    edge-replicated padding contaminates the D_B map within ``r`` of the
    extended edge, the dilation doubles that reach every pass
    (``2r·j`` after pass ``j``), and the final pass's credit scatter
    adds one more window reach.
    """
    if exact:
        return (2 * iterations + 1) * se.radius
    return se.radius


def parallel_morph_program(
    ctx: MessageContext,
    partition: RowPartition,
    n_classes: int,
    image: HyperspectralImage | None = None,
    se: StructuringElement | None = None,
    iterations: int = 5,
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD,
    exact_halo: bool = False,
) -> MorphClassification | None:
    """SPMD body of Hetero-MORPH; returns the classification at the master.

    ``exact_halo`` selects the deep overlap border that makes core MEI
    values equal the sequential computation (see
    :func:`morph_halo_depth`); the default is the paper's single-reach
    border.
    """
    if n_classes < 1:
        raise ConfigurationError(f"n_classes must be >= 1, got {n_classes}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    se = se or square(3)
    comm = Communicator(ctx)
    cost = cost_model_of(ctx)
    tracer = tracer_of(ctx)
    master_only(ctx, image, "image")

    depth = morph_halo_depth(se, iterations, exact=exact_halo)
    block = distribute_row_blocks(comm, image, partition, halo_depth=depth)
    extended = block.halo.data
    bands = block.bands
    n_extended = extended.shape[0] * extended.shape[1]

    # -- step 2: the multiscale MEI sweep (redundant halo rows included) -------
    with tracer.span("morph.mei", rank=ctx.rank, iterations=iterations):
        with charged_kernel(
            ctx,
            "morph_iteration",
            cost.morph_iteration(n_extended, bands, se.size) * iterations,
        ):
            mei_extended = mei_map(extended, se, iterations)
            mei_core = block.halo.core_view(mei_extended)

    return _endmembers_and_labels(
        ctx, comm, block, mei_core, n_classes, dedup_threshold
    )


def _endmembers_and_labels(
    ctx: MessageContext,
    comm: Communicator,
    block: LocalBlock,
    mei_core: np.ndarray,
    n_classes: int,
    dedup_threshold: float,
) -> MorphClassification | None:
    """Steps 3-5, shared by both MORPH programs: they differ only in how
    ``mei_core`` (the MEI scores of the owned rows) was produced."""
    cost = cost_model_of(ctx)
    tracer = tracer_of(ctx)
    bands = block.bands

    # -- step 3: master forms the unique endmember set --------------------------
    with tracer.span("morph.endmembers", rank=ctx.rank):
        pool = min(block.n_core_pixels, 8 * n_classes)
        with charged_kernel(
            ctx, "sad_pairs", cost.sad_pairs(pool * min(n_classes, pool), bands)
        ):
            if block.n_core_pixels:
                candidates = local_endmember_candidates(
                    block.halo.core_view(),
                    mei_core,
                    n_classes,
                    row_offset=block.halo.core_start,
                    total_cols=block.cols,
                    dedup_threshold=dedup_threshold,
                )
            else:
                candidates = None
        endmembers = merge_unique_at_master(
            comm, candidates, dedup_threshold, n_classes, bands
        )

    # -- step 4: parallel labelling ----------------------------------------------
    with tracer.span("morph.classify", rank=ctx.rank):
        with charged_kernel(
            ctx,
            "classify_by_sad",
            cost.classify_by_sad(block.n_core_pixels, bands, endmembers.count),
        ):
            if block.n_core_pixels:
                angles = sad_to_references(
                    block.core_pixels, endmembers.signatures
                )
                labels = np.argmin(angles, axis=1).astype(np.int64)
            else:
                labels = np.empty(0, dtype=np.int64)
        gathered_labels = comm.gather((labels, mei_core.reshape(-1)))

    # -- step 5: master assembles the classification matrix ------------------------
    if not comm.is_master:
        return None
    label_map = np.concatenate([lab for lab, _ in gathered_labels]).reshape(
        block.total_rows, block.cols
    )
    mei_full = np.concatenate([m for _, m in gathered_labels]).reshape(
        block.total_rows, block.cols
    )
    return MorphClassification(
        labels=label_map, endmembers=endmembers, mei=mei_full
    )


def _exchange_halos(
    comm: Communicator,
    block,
    core: np.ndarray,
    depth: int,
    tag_base: int,
) -> np.ndarray:
    """Refresh a rank's halo rows with its neighbours' current core rows.

    Two serialized sweeps (downward then upward) — chains, not cycles,
    so rendezvous sends cannot deadlock.  Returns the extended block
    ``[top halo | core | bottom halo]`` for the next iteration.
    """
    rank, size = comm.rank, comm.size
    top = None
    bottom = None
    # Downward sweep: rank r ships its bottom `depth` core rows to r+1.
    if rank > 0 and block.halo.top > 0:
        top = comm.recv(rank - 1, tag=tag_base)
    if rank < size - 1 and block.halo.bottom > 0:
        comm.send(rank + 1, core[-depth:].copy(), tag=tag_base)
    # Upward sweep: rank r ships its top `depth` core rows to r-1.
    if rank < size - 1 and block.halo.bottom > 0:
        bottom = comm.recv(rank + 1, tag=tag_base + 1)
    if rank > 0 and block.halo.top > 0:
        comm.send(rank - 1, core[:depth].copy(), tag=tag_base + 1)
    parts = []
    if top is not None:
        parts.append(np.asarray(top))
    parts.append(core)
    if bottom is not None:
        parts.append(np.asarray(bottom))
    return np.concatenate(parts, axis=0)


def parallel_morph_exchange_program(
    ctx: MessageContext,
    partition: RowPartition,
    n_classes: int,
    image: HyperspectralImage | None = None,
    se: StructuringElement | None = None,
    iterations: int = 5,
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> MorphClassification | None:
    """Hetero-MORPH with per-iteration *halo exchange* instead of
    redundant overlap computation.

    The design alternative the paper argues against: keep only a
    single-reach halo, and after every dilation pass exchange boundary
    rows with the spatial neighbours so the next pass sees fresh data.
    Communication per rank per iteration is ``2·r·cols·bands`` values
    over the (possibly slow, serialized) links — the ablation benchmark
    measures exactly the trade the paper describes, and this variant's
    halo data is always *fresh*, so its MEI quality matches the
    exact-halo redundant variant.
    """
    if n_classes < 1:
        raise ConfigurationError(f"n_classes must be >= 1, got {n_classes}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    se = se or square(3)
    comm = Communicator(ctx)
    cost = cost_model_of(ctx)
    tracer = tracer_of(ctx)
    master_only(ctx, image, "image")

    depth = se.radius
    block = distribute_row_blocks(comm, image, partition, halo_depth=depth)
    extended = block.halo.data
    bands = block.bands
    cols = block.cols

    from repro.morphology.ops import mei_scores, morph_extrema

    mei_ext = np.zeros(extended.shape[:2])
    current = extended
    for step in range(iterations):
        with tracer.span("morph.iteration", rank=ctx.rank, k=step):
            n_ext = current.shape[0] * cols
            with charged_kernel(
                ctx, "morph_iteration", cost.morph_iteration(n_ext, bands, se.size)
            ):
                extrema = morph_extrema(current, se)
                scores = mei_scores(extrema)
            if mei_ext.shape != scores.shape:
                mei_ext = np.zeros_like(scores)
            np.maximum(mei_ext, scores, out=mei_ext)
            if step + 1 < iterations:
                # Keep the dilated core; refresh halos from the neighbours.
                core_rows = block.halo.core_rows
                start = block.halo.top if current.shape[0] > core_rows else 0
                dilated_core = extrema.dilated[start : start + core_rows]
                current = _exchange_halos(
                    comm, block, dilated_core, depth, tag_base=200 + 2 * step
                )

    core_rows = block.halo.core_rows
    start = block.halo.top if mei_ext.shape[0] > core_rows else 0
    mei_core = mei_ext[start : start + core_rows]
    return _endmembers_and_labels(
        ctx, comm, block, mei_core, n_classes, dedup_threshold
    )
