"""Shared plumbing for the parallel (Hetero-/Homo-) algorithms.

Every algorithm of Section 2.2 opens the same way: the master holds the
image cube, derives a WEA row partition, and scatters the blocks (with
optional overlap borders for windowed kernels).  This module implements
that prologue — with the master's packing work charged sequentially and
the transfers costed by the engine — plus the master-side unique-set
merge the two classifiers share, so the ``parallel_*`` modules contain
only their algorithm-specific middle.

Programs are SPMD callables ``program(ctx, **kwargs)`` run by either
backend (virtual-time :class:`repro.cluster.engine.RankContext` or
wall-clock :class:`repro.mpi.inproc.InprocContext`); only the master's
kwargs carry the image.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Iterator

import numpy as np

from repro.cluster.costs import DEFAULT_COST_MODEL, CostModel
from repro.core.unique import UniqueSet, merge_unique_sets
from repro.errors import ConfigurationError, DataError
from repro.hsi.cube import HyperspectralImage
from repro.morphology.halo import HaloBlock, extract_halo_block
from repro.mpi.communicator import Communicator, MessageContext
from repro.obs.trace import tracer_of
from repro.scheduling.static_part import RowPartition
from repro.types import FloatArray

__all__ = [
    "cost_model_of",
    "charged_kernel",
    "LocalBlock",
    "distribute_row_blocks",
    "master_only",
    "merge_unique_at_master",
]


def cost_model_of(ctx: MessageContext) -> CostModel:
    """The context's cost model (wall-clock contexts use the default)."""
    return getattr(ctx, "cost_model", DEFAULT_COST_MODEL)


@contextlib.contextmanager
def charged_kernel(
    ctx: MessageContext,
    name: str,
    mflops: float,
    sequential: bool = False,
) -> Iterator[None]:
    """Charge one named cost-model kernel and bracket its real work.

    Opens a ``"kernel"``-category span carrying the kernel name and the
    charged megaflop count, charges the cost model inside it, then
    yields so the caller's actual numpy work runs inside the same span.
    On the virtual-time engine the span duration therefore *equals* the
    model's prediction; on the wall-clock backend it is the measured
    numpy time — :func:`repro.obs.profile.profile_trace` compares the
    two to calibrate the model.

    Kernel spans are annotations: they are not DAG activities and are
    excluded from the COM/SEQ/PAR ledger cross-check.
    """
    tracer = tracer_of(ctx)
    with tracer.span(
        f"kernel.{name}",
        rank=ctx.rank,
        category="kernel",
        kernel=name,
        mflops=float(mflops),
        sequential=sequential,
    ):
        ctx.compute(mflops, sequential=sequential, label=name)
        yield


def master_only(ctx: MessageContext, value: Any, name: str) -> Any:
    """Validate that ``value`` is present exactly at the master rank."""
    is_master = ctx.rank == ctx.master_rank
    if is_master and value is None:
        raise ConfigurationError(f"master rank must receive {name!r}")
    if not is_master and value is not None:
        raise ConfigurationError(
            f"{name!r} must only be supplied to the master rank"
        )
    return value


@dataclasses.dataclass(frozen=True)
class LocalBlock:
    """A rank's share of the scene after the scatter.

    Attributes:
        halo: the (possibly border-extended) pixel block and its global
            row provenance.
        cols: scene width (shared by all blocks).
        bands: spectral channels.
        total_rows: global scene height.
    """

    halo: HaloBlock
    cols: int
    bands: int
    total_rows: int

    @property
    def core_pixels(self) -> FloatArray:
        """Owned pixels, flattened to ``(n, bands)``."""
        core = self.halo.core_view()
        return core.reshape(-1, self.bands)

    @property
    def n_core_pixels(self) -> int:
        return self.halo.core_rows * self.cols

    def global_flat_index(self, local_flat: int) -> int:
        """Map a flat index into :attr:`core_pixels` to a scene-global
        flat pixel index."""
        if not 0 <= local_flat < self.n_core_pixels:
            raise DataError(
                f"local index {local_flat} outside block of "
                f"{self.n_core_pixels} pixels"
            )
        row, col = divmod(local_flat, self.cols)
        return (self.halo.core_start + row) * self.cols + col


def distribute_row_blocks(
    comm: Communicator,
    image: HyperspectralImage | None,
    partition: RowPartition,
    halo_depth: int = 0,
) -> LocalBlock:
    """The common prologue: master packs and scatters WEA row blocks.

    The master charges the packing sequentially (SEQ), the engine
    charges each block transfer (COM) — blocks with overlap borders
    cost proportionally more wire time, which is Hetero-MORPH's
    redundant-communication trade made visible.

    Args:
        comm: the rank's communicator.
        image: the full cube (master only; ``None`` elsewhere).
        partition: row counts per rank (same object on every rank).
        halo_depth: overlap border rows on each interior side.

    Returns:
        This rank's :class:`LocalBlock`.
    """
    ctx = comm.context
    if partition.size != comm.size:
        raise ConfigurationError(
            f"partition has {partition.size} shares for {comm.size} ranks"
        )
    with tracer_of(ctx).span("scatter", rank=comm.rank, halo=halo_depth):
        if comm.is_master:
            img = master_only(ctx, image, "image")
            if partition.n_rows != img.rows:
                raise ConfigurationError(
                    f"partition covers {partition.n_rows} rows, image has "
                    f"{img.rows}"
                )
            cost = cost_model_of(ctx)
            with charged_kernel(
                ctx,
                "scatter_pack",
                cost.scatter_pack(img.n_pixels * img.bands),
                sequential=True,
            ):
                payloads = []
                for rank in range(comm.size):
                    start, stop = partition.bounds(rank)
                    block = extract_halo_block(
                        img.values, start, stop, halo_depth
                    )
                    payloads.append(
                        (
                            block.data,
                            int(block.core_start),
                            int(block.core_stop),
                            int(block.top),
                            int(block.bottom),
                            int(img.cols),
                            int(img.bands),
                            int(img.rows),
                        )
                    )
            mine = comm.scatter(payloads)
        else:
            master_only(ctx, image, "image")
            mine = comm.scatter(None)
    data, core_start, core_stop, top, bottom, cols, bands, total_rows = mine
    return LocalBlock(
        halo=HaloBlock(
            data=np.asarray(data),
            core_start=core_start,
            core_stop=core_stop,
            top=top,
            bottom=bottom,
        ),
        cols=cols,
        bands=bands,
        total_rows=total_rows,
    )


def merge_unique_at_master(
    comm: Communicator,
    local_set: UniqueSet | None,
    threshold: float,
    count: int,
    bands: int,
) -> UniqueSet:
    """Gather per-rank unique sets, merge them at the master, broadcast.

    The master's merge is the sequential "combined, one pair at a time"
    step of Hetero-PCT (step 3) and Hetero-MORPH (step 3), charged as
    ``dedup_unique_set``.  A rank with an empty share passes ``None``
    and still takes part in both collectives.  Absent scores travel as
    ``None``, which the wire-size estimate counts as zero values.
    """
    ctx = comm.context
    gathered = comm.gather(
        None
        if local_set is None
        else (local_set.signatures, local_set.indices, local_set.scores)
    )
    payload = None
    if comm.is_master:
        sets = [UniqueSet(*item) for item in gathered if item is not None]
        with charged_kernel(
            ctx,
            "dedup_unique_set",
            cost_model_of(ctx).dedup_unique_set(
                sum(s.count for s in sets), bands, kept=count
            ),
            sequential=True,
        ):
            merged = merge_unique_sets(sets, threshold, count=count)
        payload = (merged.signatures, merged.indices, merged.scores)
    return UniqueSet(*comm.bcast(payload))
