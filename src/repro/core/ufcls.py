"""Sequential UFCLS: unsupervised fully constrained least squares.

Algorithm 3's computational content: seed with the brightest pixel,
then repeatedly add the pixel whose non-negative, sum-to-one
(Heinz–Chang) reconstruction from the current target set has the
largest residual — least-squares error minimization replacing ATDCA's
orthogonal projection.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.atdca import (
    TargetDetectionResult,
    _check_inputs,
    _check_new_target,
)
from repro.hsi.cube import HyperspectralImage
from repro.linalg.fcls import (
    IncrementalFCLS,
    fcls_abundances,
    reconstruction_error,
)
from repro.linalg.osp import brightest_pixel_index
from repro.types import FloatArray

__all__ = ["ufcls_pixels", "ufcls", "fcls_error_image"]


def fcls_error_image(pixels: FloatArray, targets: FloatArray) -> FloatArray:
    """The UFCLS 'error image': per-pixel FCLS residual → ``(n,)``.

    Step 2 of Algorithm 3: each pixel is represented as a fully
    constrained (non-negative, sum-to-one) mixture of the current
    targets; the score is the squared reconstruction error.
    """
    abundances = fcls_abundances(pixels, targets)
    return reconstruction_error(pixels, targets, abundances)


def ufcls_pixels(pixels: FloatArray, n_targets: int) -> TargetDetectionResult:
    """Run UFCLS on a flat ``(n, bands)`` pixel matrix.

    The error image comes from :class:`IncrementalFCLS`, which carries
    cross-products and the regularized Gram inverse across iterations
    (one gemv + a rank-1 bordering update per new target) and keeps
    each pixel's last answer.  Up to the spectral rank
    (``n_targets <= bands``) its picks equal a rebuild of the design
    matrix each round (:class:`~repro.linalg.fcls.ScratchFCLS`); beyond
    it the targets' Gram matrix is singular, so the abundances — and
    with them which pixel wins, or whether the argmax repeats a target
    and raises :class:`~repro.errors.DataError` — are decided by
    round-off.
    """
    pix = _check_inputs(pixels, n_targets)
    indices: list[int] = []
    scores: list[float] = []

    first = brightest_pixel_index(pix)
    indices.append(first)
    scores.append(float(pix[first] @ pix[first]))

    solver = IncrementalFCLS(pix)
    solver.add_target(pix[first])
    for k in range(1, n_targets):
        error = solver.error_image()
        nxt = int(np.argmax(error))
        _check_new_target(nxt, indices)
        indices.append(nxt)
        scores.append(float(error[nxt]))
        if k + 1 < n_targets:
            solver.add_target(pix[nxt])

    idx = np.asarray(indices, dtype=np.int64)
    return TargetDetectionResult(
        flat_indices=idx,
        signatures=pix[idx].copy(),
        scores=np.asarray(scores),
    )


def ufcls(image: HyperspectralImage, n_targets: int) -> TargetDetectionResult:
    """Run UFCLS on an image cube; adds (row, col) positions."""
    result = ufcls_pixels(image.flatten_pixels(), n_targets)
    rows, cols = np.divmod(result.flat_indices, image.cols)
    return dataclasses.replace(
        result, positions=np.stack([rows, cols], axis=1)
    )
