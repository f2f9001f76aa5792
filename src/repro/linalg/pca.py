"""Principal component transform (PCT) building blocks.

Hetero-PCT (Algorithm 4) computes a band-space mean and covariance,
takes the eigendecomposition at the master (data-dependent, band-sized,
hence sequential in the paper), and projects every pixel onto the top
``c`` eigenvectors.  These kernels are shared by the sequential and
parallel implementations; the parallel version assembles the covariance
from per-worker partial sums via :func:`partial_covariance_sums` and
:func:`combine_covariance_sums`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, ShapeError
from repro.types import FloatArray

__all__ = [
    "mean_vector",
    "covariance_matrix",
    "partial_covariance_sums",
    "combine_covariance_sums",
    "pct_transform",
    "apply_pct",
]


def _pixmat(pixels: FloatArray) -> FloatArray:
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim != 2:
        raise ShapeError(f"expected (n, bands), got {pix.shape}")
    if pix.shape[0] == 0:
        raise DataError("cannot compute statistics of zero pixels")
    return pix


def mean_vector(pixels: FloatArray) -> FloatArray:
    """Band-space mean over pixels → ``(bands,)``."""
    return _pixmat(pixels).mean(axis=0)


def covariance_matrix(pixels: FloatArray, mean: FloatArray | None = None) -> FloatArray:
    """Biased (1/n) band covariance → ``(bands, bands)``."""
    pix = _pixmat(pixels)
    mu = mean_vector(pix) if mean is None else np.asarray(mean, dtype=float)
    if mu.shape != (pix.shape[1],):
        raise ShapeError(f"mean shape {mu.shape} != ({pix.shape[1]},)")
    centered = pix - mu
    return centered.T @ centered / pix.shape[0]


def partial_covariance_sums(pixels: FloatArray) -> tuple[FloatArray, FloatArray, int]:
    """Per-partition sufficient statistics ``(Σx, Σxxᵀ, n)``.

    Workers each compute these over their local partition; the master
    combines them with :func:`combine_covariance_sums` — numerically the
    same covariance as a single pass over all pixels.
    """
    pix = _pixmat(pixels)
    return pix.sum(axis=0), pix.T @ pix, pix.shape[0]


def combine_covariance_sums(
    parts: list[tuple[FloatArray, FloatArray, int]],
) -> tuple[FloatArray, FloatArray]:
    """Combine partial sums into global ``(mean, covariance)``."""
    if not parts:
        raise DataError("no partial sums to combine")
    total_n = sum(int(n) for _, _, n in parts)
    if total_n == 0:
        raise DataError("partial sums cover zero pixels")
    sum_x = np.sum([s for s, _, _ in parts], axis=0)
    sum_xxt = np.sum([m for _, m, _ in parts], axis=0)
    mean = sum_x / total_n
    cov = sum_xxt / total_n - np.outer(mean, mean)
    return mean, cov


def pct_transform(
    covariance: FloatArray, n_components: int | None = None
) -> tuple[FloatArray, FloatArray]:
    """Eigendecomposition of the covariance, sorted by decreasing variance.

    Returns:
        ``(transform, eigenvalues)`` where ``transform`` is
        ``(n_components, bands)`` — rows are principal directions — so a
        pixel is reduced via ``transform @ (x − mean)``.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ShapeError(f"covariance must be square, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise DataError(
            "covariance matrix has non-finite entries "
            "(NaN or infinite pixel values in the input)"
        )
    if not np.allclose(cov, cov.T, atol=1e-8 * max(1.0, float(np.abs(cov).max()))):
        raise DataError("covariance matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # Deterministic sign convention: the largest-magnitude component of
    # each eigenvector is positive.  eigh's signs are arbitrary, and the
    # parallel path (sufficient statistics) must agree with the
    # sequential one (centered covariance) up to round-off.
    pivot = np.argmax(np.abs(eigvecs), axis=0)
    signs = np.sign(eigvecs[pivot, np.arange(eigvecs.shape[1])])
    signs[signs == 0] = 1.0
    eigvecs = eigvecs * signs
    k = cov.shape[0] if n_components is None else int(n_components)
    if not 1 <= k <= cov.shape[0]:
        raise DataError(
            f"n_components must be in [1, {cov.shape[0]}], got {n_components}"
        )
    return eigvecs[:, :k].T.copy(), eigvals


def apply_pct(
    pixels: FloatArray, mean: FloatArray, transform: FloatArray
) -> FloatArray:
    """Project pixels: ``T @ (x − m)`` per pixel → ``(n, n_components)``."""
    pix = _pixmat(pixels)
    mu = np.asarray(mean, dtype=float)
    t = np.asarray(transform, dtype=float)
    if t.ndim != 2 or t.shape[1] != pix.shape[1] or mu.shape != (pix.shape[1],):
        raise ShapeError(
            f"incompatible shapes: pixels {pix.shape}, mean {mu.shape}, "
            f"transform {t.shape}"
        )
    return (pix - mu) @ t.T
