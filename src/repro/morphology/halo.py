"""Overlap borders (halos) for parallel windowed morphology.

Hetero-MORPH partitions the scene into row slabs *with overlap borders*
so each worker can evaluate its windowed kernels without talking to its
neighbours — the paper's explicit trade of redundant computation for
reduced communication.  An iterated dilation of depth ``I_max`` with a
structuring element of radius ``r`` needs ``r · I_max`` extra rows on
each interior side.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.morphology.structuring import StructuringElement
from repro.types import FloatArray

__all__ = ["halo_depth", "HaloBlock", "extract_halo_block", "redundant_fraction"]


def halo_depth(se: StructuringElement, iterations: int) -> int:
    """Rows of overlap needed per interior edge for ``iterations`` passes."""
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    return se.radius * iterations


@dataclasses.dataclass(frozen=True)
class HaloBlock:
    """A row slab extended with overlap borders.

    Attributes:
        data: ``(core + top + bottom, cols, bands)`` pixel block.
        core_start, core_stop: global row range of the *owned* rows.
        top, bottom: number of borrowed rows on each side actually
            present (zero at the image boundary).
    """

    data: FloatArray
    core_start: int
    core_stop: int
    top: int
    bottom: int

    @property
    def core_rows(self) -> int:
        return self.core_stop - self.core_start

    @property
    def total_rows(self) -> int:
        return int(self.data.shape[0])

    def core_view(self, array: FloatArray | None = None) -> FloatArray:
        """Strip the halo: the owned-row slice of ``array`` (default: data).

        Accepts any array whose first axis matches :attr:`total_rows`,
        e.g. a per-pixel score map computed over the extended block.
        """
        arr = self.data if array is None else np.asarray(array)
        if arr.shape[0] != self.total_rows:
            raise ShapeError(
                f"array has {arr.shape[0]} rows, block has {self.total_rows}"
            )
        return arr[self.top : self.top + self.core_rows]

    def to_global_row(self, local_row: int) -> int:
        """Map a row index of :attr:`data` to a global scene row."""
        if not 0 <= local_row < self.total_rows:
            raise ShapeError(f"local row {local_row} outside block")
        return self.core_start - self.top + local_row


def extract_halo_block(
    cube: FloatArray, start: int, stop: int, depth: int
) -> HaloBlock:
    """Cut rows ``[start, stop)`` plus up to ``depth`` border rows each side.

    Borders are clipped at the image boundary (no wraparound); the
    windowed kernels use edge replication there, matching the
    sequential reference.  An empty range (``start == stop``) is a
    rank's zero share: no core rows, only the borders around the cut.
    """
    arr = np.asarray(cube)
    if arr.ndim != 3:
        raise ShapeError(f"expected (rows, cols, bands), got {arr.shape}")
    rows = arr.shape[0]
    if not 0 <= start <= stop <= rows:
        raise ShapeError(f"row range [{start}, {stop}) invalid for {rows} rows")
    if depth < 0:
        raise ConfigurationError(f"halo depth must be >= 0, got {depth}")
    top = min(depth, start)
    bottom = min(depth, rows - stop)
    return HaloBlock(
        data=arr[start - top : stop + bottom],
        core_start=start,
        core_stop=stop,
        top=top,
        bottom=bottom,
    )


def redundant_fraction(blocks: list[HaloBlock]) -> float:
    """Fraction of total processed rows that are redundant halo rows.

    The quantity the paper alludes to when noting MORPH "introduces
    redundant information expected to slow down the computation".
    """
    if not blocks:
        raise ConfigurationError("no blocks given")
    total = sum(b.total_rows for b in blocks)
    core = sum(b.core_rows for b in blocks)
    return (total - core) / total if total else 0.0
