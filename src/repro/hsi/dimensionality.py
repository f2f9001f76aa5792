"""Intrinsic (virtual) dimensionality estimation.

The paper sets the number of targets "to 18 after calculating the
intrinsic dimensionality of the data [3]".  The standard estimator from
that reference (Chang's book) is the Harsanyi–Farrand–Chang (HFC)
method: compare the eigenvalues of the sample *correlation* matrix
``R`` with those of the *covariance* matrix ``K``.  A spectral
dimension whose correlation eigenvalue significantly exceeds its
covariance eigenvalue carries signal (a non-zero mean component) rather
than noise; the count of such dimensions is the virtual dimensionality
(VD).  The comparison is a Neyman–Pearson test at false-alarm
probability ``p_fa``, with the variance of the eigenvalue difference
estimated as ``2(λ_cor² + λ_cov²)/n``.
"""

from __future__ import annotations

import dataclasses
from statistics import NormalDist

import numpy as np

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.hsi.cube import HyperspectralImage
from repro.types import FloatArray

__all__ = [
    "VirtualDimensionalityResult",
    "hfc_virtual_dimensionality",
    "estimate_noise_covariance",
]


@dataclasses.dataclass(frozen=True)
class VirtualDimensionalityResult:
    """HFC test outcome.

    Attributes:
        vd: the estimated number of spectrally distinct signal sources.
        correlation_eigenvalues: sorted (descending) eigenvalues of R.
        covariance_eigenvalues: sorted (descending) eigenvalues of K.
        thresholds: per-dimension Neyman-Pearson decision thresholds.
        decisions: per-dimension booleans (True = signal present).
        p_fa: the false-alarm probability used.
    """

    vd: int
    correlation_eigenvalues: FloatArray
    covariance_eigenvalues: FloatArray
    thresholds: FloatArray
    decisions: np.ndarray
    p_fa: float


def _pixel_matrix(data: FloatArray | HyperspectralImage) -> FloatArray:
    if isinstance(data, HyperspectralImage):
        return data.flatten_pixels()
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3:
        arr = arr.reshape(-1, arr.shape[2])
    if arr.ndim != 2:
        raise ShapeError(f"expected pixels (n, bands) or a cube, got {arr.shape}")
    if arr.shape[0] <= arr.shape[1]:
        raise DataError(
            f"need more pixels ({arr.shape[0]}) than bands ({arr.shape[1]}) "
            "for stable eigenvalue statistics"
        )
    return arr


def hfc_virtual_dimensionality(
    data: FloatArray | HyperspectralImage,
    p_fa: float = 1e-3,
) -> VirtualDimensionalityResult:
    """The HFC estimator of virtual dimensionality.

    Args:
        data: a cube or an ``(n, bands)`` pixel matrix.
        p_fa: Neyman-Pearson false-alarm probability (typical 1e-3/1e-4).

    Returns:
        The test outcome; ``result.vd`` is the paper's ``t``.
    """
    if not 0.0 < p_fa < 0.5:
        raise ConfigurationError(f"p_fa must be in (0, 0.5), got {p_fa}")
    pixels = _pixel_matrix(data)
    n, bands = pixels.shape

    correlation = pixels.T @ pixels / n
    mean = pixels.mean(axis=0)
    covariance = correlation - np.outer(mean, mean)

    lam_r = np.sort(np.linalg.eigvalsh(correlation))[::-1]
    lam_k = np.sort(np.linalg.eigvalsh(covariance))[::-1]

    # Under H0 (noise only) the matched eigenvalues agree; the variance
    # of their difference is approximately 2(λr² + λk²)/n.
    sigma = np.sqrt(2.0 * (lam_r**2 + lam_k**2) / n)
    tau = -NormalDist().inv_cdf(p_fa) * sigma  # one-sided threshold > 0
    decisions = (lam_r - lam_k) > tau
    return VirtualDimensionalityResult(
        vd=int(decisions.sum()),
        correlation_eigenvalues=lam_r,
        covariance_eigenvalues=lam_k,
        thresholds=tau,
        decisions=decisions,
        p_fa=p_fa,
    )

