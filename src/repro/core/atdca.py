"""Sequential ATDCA: automated target detection and classification.

The reference implementation of Algorithm 2's computational content,
single-processor, exactly as the paper's sequential baseline ("really
sequential, not parallel running on one processor").  The parallel
versions in :mod:`repro.core.parallel_detect` must produce identical
target sets on the same input.

The algorithm: seed with the brightest pixel (max ``xᵀx``), then
repeatedly add the pixel with the largest energy in the orthogonal
complement of the span of the targets found so far.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.hsi.cube import HyperspectralImage
from repro.linalg.osp import IncrementalOSP, brightest_pixel_index
from repro.types import FloatArray, IntArray

__all__ = ["TargetDetectionResult", "atdca_pixels", "atdca"]


@dataclasses.dataclass(frozen=True)
class TargetDetectionResult:
    """Detected targets, in extraction order.

    Attributes:
        flat_indices: ``(t,)`` indices into the flattened pixel list.
        signatures: ``(t, bands)`` detected target spectra.
        scores: the selection score of each target at the iteration it
            was extracted (brightness for the first, residual OSP/error
            energy after).
        positions: ``(t, 2)`` (row, col) coordinates, present when the
            input was an image cube.
    """

    flat_indices: IntArray
    signatures: FloatArray
    scores: FloatArray
    positions: IntArray | None = None

    @property
    def n_targets(self) -> int:
        return int(self.flat_indices.shape[0])


def _check_finite(pix: FloatArray) -> None:
    """Reject an ``(n, bands)`` pixel matrix holding a NaN or an inf."""
    finite = np.isfinite(pix)
    if not finite.all():
        # A NaN score never wins an argmax: the detector would return the
        # same pixel every round and all-NaN scores instead of failing.
        pixel, band = np.argwhere(~finite)[0]
        raise DataError(
            f"pixels must be finite: pixel {pixel}, band {band} is "
            f"{pix[pixel, band]}"
        )


def _check_inputs(pixels: FloatArray, n_targets: int) -> FloatArray:
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim != 2:
        raise ShapeError(f"expected (n, bands), got {pix.shape}")
    if n_targets < 1:
        raise ConfigurationError(f"n_targets must be >= 1, got {n_targets}")
    if n_targets > pix.shape[0]:
        raise ConfigurationError(
            f"cannot extract {n_targets} targets from {pix.shape[0]} pixels"
        )
    _check_finite(pix)
    return pix


def _check_new_target(index: int, chosen: list[int]) -> None:
    """Refuse a winner that was extracted before.

    Once the targets found span every spectrum of the scene, all scores
    are round-off and the argmax lands on a pixel already chosen: the
    detector would pad its result with repeats instead of failing.
    Iteration ``k`` runs with ``k`` targets chosen, all distinct.
    """
    if index in chosen:
        k = len(chosen)
        raise DataError(
            f"iteration {k} selected pixel {index} again: the scene ran "
            f"out of distinct targets after {k}"
        )


def atdca_pixels(pixels: FloatArray, n_targets: int) -> TargetDetectionResult:
    """Run ATDCA on a flat ``(n, bands)`` pixel matrix.

    Returns targets in extraction order; ties in the argmax resolve to
    the lowest pixel index (numpy convention), making results
    deterministic.

    The residual energies come from :class:`IncrementalOSP`, which
    carries the orthonormal basis of span(U) across iterations — one
    Gram–Schmidt step per new target instead of a full QR per
    iteration, O(n·bands) amortized per target.  Up to the spectral
    rank (``n_targets <= bands``) its picks equal a from-scratch
    recompute's (:func:`~repro.linalg.osp.residual_energy`); beyond it
    every residual is round-off, so which pixel wins — or whether the
    argmax repeats a target and raises :class:`DataError` — is decided
    by round-off.
    """
    pix = _check_inputs(pixels, n_targets)
    indices: list[int] = []
    scores: list[float] = []

    first = brightest_pixel_index(pix)
    indices.append(first)
    scores.append(float(pix[first] @ pix[first]))

    osp = IncrementalOSP(pix)
    osp.add_target(pix[first])
    for k in range(1, n_targets):
        energy = osp.residual_energy()
        nxt = int(np.argmax(energy))
        _check_new_target(nxt, indices)
        indices.append(nxt)
        scores.append(float(energy[nxt]))
        if k + 1 < n_targets:
            osp.add_target(pix[nxt])

    idx = np.asarray(indices, dtype=np.int64)
    return TargetDetectionResult(
        flat_indices=idx,
        signatures=pix[idx].copy(),
        scores=np.asarray(scores),
    )


def atdca(image: HyperspectralImage, n_targets: int) -> TargetDetectionResult:
    """Run ATDCA on an image cube; adds (row, col) positions."""
    result = atdca_pixels(image.flatten_pixels(), n_targets)
    rows, cols = np.divmod(result.flat_indices, image.cols)
    return dataclasses.replace(
        result, positions=np.stack([rows, cols], axis=1)
    )
