"""Hetero-PCT (Algorithm 4): parallel PCT classification.

1. master scatters WEA partitions;
2. each worker builds a local SAD-unique spectral set;
3. the master merges the per-worker sets into one ``c``-member unique
   set (sequential — one of the steps that make PCT's SEQ share the
   largest of the four algorithms);
4–6. workers accumulate covariance sufficient statistics over their
   partitions; the master combines them (the paper parallelizes the
   covariance *sum* and serializes the combination);
7. the master eigendecomposes (sequential — "related to the number of
   spectral bands rather than the image size") and broadcasts the
   transform;
8. workers project their pixels;
9. workers label their pixels against the unique set in the
   PCT-reduced space and the master assembles the label image.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel_common import (
    charged_kernel,
    cost_model_of,
    distribute_row_blocks,
    master_only,
    merge_unique_at_master,
)
from repro.core.pct import DEFAULT_UNIQUE_THRESHOLD, PCTClassification
from repro.core.unique import UniqueSet, greedy_unique
from repro.errors import ConfigurationError
from repro.hsi.cube import HyperspectralImage
from repro.hsi.metrics import sad_to_references
from repro.linalg.pca import (
    apply_pct,
    combine_covariance_sums,
    partial_covariance_sums,
    pct_transform,
)
from repro.mpi.communicator import Communicator, MessageContext
from repro.obs.trace import tracer_of
from repro.scheduling.static_part import RowPartition

__all__ = ["parallel_pct_program"]


def parallel_pct_program(
    ctx: MessageContext,
    partition: RowPartition,
    n_classes: int,
    image: HyperspectralImage | None = None,
    threshold: float = DEFAULT_UNIQUE_THRESHOLD,
) -> PCTClassification | None:
    """SPMD body of Hetero-PCT; returns the classification at the master."""
    if n_classes < 1:
        raise ConfigurationError(f"n_classes must be >= 1, got {n_classes}")
    comm = Communicator(ctx)
    cost = cost_model_of(ctx)
    tracer = tracer_of(ctx)
    master_only(ctx, image, "image")

    block = distribute_row_blocks(comm, image, partition)
    local = block.core_pixels
    bands = block.bands
    n_local = local.shape[0]

    # -- steps 2-3: local unique sets, merged at the master -------------------
    with tracer.span("pct.unique", rank=ctx.rank):
        with charged_kernel(
            ctx, "unique_set_scan",
            cost.unique_set_scan(n_local, bands, n_classes),
        ):
            if n_local:
                local_unique = greedy_unique(
                    local, threshold, max_keep=4 * n_classes
                )
                offset = block.halo.core_start * block.cols
                local_unique = UniqueSet(
                    signatures=local_unique.signatures,
                    indices=local_unique.indices + offset,
                )
            else:
                local_unique = None
        unique = merge_unique_at_master(
            comm, local_unique, threshold, n_classes, bands
        )

    # -- steps 4-7: distributed covariance, sequential eigendecomposition ------
    with tracer.span("pct.covariance", rank=ctx.rank):
        with charged_kernel(
            ctx, "covariance_accumulate",
            cost.covariance_accumulate(n_local, bands),
        ):
            if n_local:
                sums = partial_covariance_sums(local)
            else:
                sums = (np.zeros(bands), np.zeros((bands, bands)), 0)
        all_sums = comm.gather(sums)

        if comm.is_master:
            with charged_kernel(
                ctx,
                "eigendecomposition",
                cost.covariance_accumulate(comm.size, bands)
                + cost.eigendecomposition(bands),
                sequential=True,
            ):
                mean, covariance = combine_covariance_sums(all_sums)
                transform, eigenvalues = pct_transform(
                    covariance, n_components=unique.count
                )
            stats_payload = (mean, transform, eigenvalues)
        else:
            stats_payload = None
        mean, transform, eigenvalues = comm.bcast(stats_payload)

    # -- steps 8-9: parallel projection and labelling ------------------------------
    with tracer.span("pct.project", rank=ctx.rank):
        with charged_kernel(
            ctx,
            "pct_projection",
            cost.pct_projection(n_local, bands, unique.count)
            + cost.classify_by_sad(n_local, unique.count, unique.count),
        ):
            if n_local:
                reduced = apply_pct(local, mean, transform)
                reduced_refs = apply_pct(unique.signatures, mean, transform)
                offset_vec = reduced.min(axis=0)
                # The SAD-positivity shift must be *global* to match the
                # sequential path; reduce the per-partition minima first.
                local_min = offset_vec
            else:
                reduced = None
                reduced_refs = None
                local_min = np.full(unique.count, np.inf)
        global_min = comm.allreduce(local_min, op=np.minimum)

        if n_local:
            shifted = reduced - global_min + 1.0
            shifted_refs = reduced_refs - global_min + 1.0
            angles = sad_to_references(shifted, shifted_refs)
            labels = np.argmin(angles, axis=1).astype(np.int64)
        else:
            labels = np.empty(0, dtype=np.int64)
        gathered_labels = comm.gather(labels)

    if not comm.is_master:
        return None
    label_map = np.concatenate(gathered_labels).reshape(
        block.total_rows, block.cols
    )
    return PCTClassification(
        labels=label_map,
        unique=unique,
        mean=np.asarray(mean),
        transform=np.asarray(transform),
        eigenvalues=np.asarray(eigenvalues),
    )
