"""The hyperspectral image cube container.

A scene is a stack of images at different wavelengths; each spatial
pixel carries a full spectral signature.  Internally we store the cube
in BIP order — ``(rows, cols, bands)`` — because every algorithm in the
paper operates on whole pixel vectors (hybrid spatial partitioning with
full spectral content per pixel), and BIP makes a pixel's signature
contiguous in memory, which is the cache-friendly layout for
SAD/projection kernels.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import DataError, ShapeError
from repro.types import FloatArray, Interleave, PixelIndex

__all__ = ["HyperspectralImage"]


class HyperspectralImage:
    """An immutable-shape hyperspectral cube with layout conversions.

    Args:
        data: a 3-D array in the layout given by ``interleave``.
        interleave: how to interpret ``data``'s axes (default BIP).
        wavelengths: optional band-centre wavelengths in µm; if given,
            its length must equal the number of bands.
        copy: force a copy of the input (otherwise a view is kept when
            the input is already BIP, C-contiguous float).

    The underlying buffer is exposed via :attr:`values` as a
    ``(rows, cols, bands)`` float array; mutating it in place is allowed
    (the MORPH algorithm iterates ``F = F ⊕ B``).
    """

    __slots__ = ("_data", "_wavelengths")

    def __init__(
        self,
        data: FloatArray,
        interleave: Interleave | str = Interleave.BIP,
        wavelengths: FloatArray | None = None,
        copy: bool = False,
    ) -> None:
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3-D cube, got shape {arr.shape}")
        layout = Interleave.parse(interleave)
        if layout is Interleave.BSQ:  # (bands, rows, cols) -> (rows, cols, bands)
            arr = np.moveaxis(arr, 0, 2)
        elif layout is Interleave.BIL:  # (rows, bands, cols) -> (rows, cols, bands)
            arr = np.moveaxis(arr, 1, 2)
        arr = np.ascontiguousarray(arr, dtype=np.float64 if copy else None)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if copy and arr is data:
            arr = arr.copy()
        if 0 in arr.shape:
            raise ShapeError(f"cube has an empty axis: shape {arr.shape}")
        if wavelengths is not None:
            wavelengths = np.asarray(wavelengths, dtype=float)
            if wavelengths.shape != (arr.shape[2],):
                raise ShapeError(
                    f"wavelengths length {wavelengths.shape} does not match "
                    f"{arr.shape[2]} bands"
                )
        self._data = arr
        self._wavelengths = wavelengths

    # -- basic properties ---------------------------------------------------
    @property
    def values(self) -> FloatArray:
        """The cube as ``(rows, cols, bands)`` (BIP), writable."""
        return self._data

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(rows, cols, bands)``."""
        return self._data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def bands(self) -> int:
        return self._data.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.rows * self.cols

    @property
    def wavelengths(self) -> FloatArray | None:
        return self._wavelengths

    @property
    def nbytes(self) -> int:
        """Size of the pixel buffer in bytes."""
        return self._data.nbytes

    @property
    def megabits(self) -> float:
        """Size of the pixel buffer in megabits (the Table 2 capacity unit)."""
        return self._data.nbytes * 8.0 / 1e6

    def __repr__(self) -> str:
        return (
            f"HyperspectralImage(rows={self.rows}, cols={self.cols}, "
            f"bands={self.bands}, dtype={self._data.dtype})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperspectralImage):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable contents

    # -- access ---------------------------------------------------------------
    def pixel(self, row: int, col: int) -> FloatArray:
        """The spectral signature at ``(row, col)`` (a view)."""
        return self._data[row, col]

    def pixels_at(self, indices: Sequence[PixelIndex]) -> FloatArray:
        """Gather signatures at spatial ``(row, col)`` positions → ``(k, bands)``."""
        if len(indices) == 0:
            return np.empty((0, self.bands))
        rows, cols = zip(*indices)
        return self._data[np.asarray(rows), np.asarray(cols)]

    def band(self, index: int) -> FloatArray:
        """The 2-D image of one spectral band (a view)."""
        return self._data[:, :, index]

    def band_nearest(self, wavelength_um: float) -> int:
        """Index of the band whose centre is closest to ``wavelength_um``."""
        if self._wavelengths is None:
            raise DataError("cube has no wavelength grid attached")
        return int(np.argmin(np.abs(self._wavelengths - wavelength_um)))

    def flatten_pixels(self) -> FloatArray:
        """All signatures as ``(rows*cols, bands)`` (a view when possible)."""
        return self._data.reshape(self.n_pixels, self.bands)

    def iter_pixels(self) -> Iterator[tuple[PixelIndex, FloatArray]]:
        """Yield ``((row, col), signature)`` in row-major order."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c), self._data[r, c]

    # -- layout conversions -----------------------------------------------------
    def as_array(self, interleave: Interleave | str = Interleave.BIP) -> FloatArray:
        """Export the cube in the requested interleave (copy unless BIP)."""
        layout = Interleave.parse(interleave)
        if layout is Interleave.BIP:
            return self._data
        if layout is Interleave.BSQ:
            return np.ascontiguousarray(np.moveaxis(self._data, 2, 0))
        return np.ascontiguousarray(np.moveaxis(self._data, 2, 1))  # BIL

    # -- slicing ---------------------------------------------------------------
    def row_block(self, start: int, stop: int) -> "HyperspectralImage":
        """The sub-cube of rows ``[start, stop)`` — the unit of the paper's
        hybrid spatial-domain partitioning (full spectral content kept).

        Returns a view-backed image; mutations propagate to the parent.
        """
        if not 0 <= start < stop <= self.rows:
            raise ShapeError(
                f"row block [{start}, {stop}) out of range for {self.rows} rows"
            )
        return HyperspectralImage(self._data[start:stop], wavelengths=self._wavelengths)

    def copy(self) -> "HyperspectralImage":
        return HyperspectralImage(self._data.copy(), wavelengths=self._wavelengths)
