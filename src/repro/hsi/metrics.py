"""Spectral similarity metrics and accuracy scoring.

The paper's accuracy results are all phrased in terms of the spectral
angle distance (SAD, eq. 1) — between detected targets and known ground
targets (Table 3) and, via nearest-signature labelling, per-class
classification accuracy against the USGS dust/debris map (Table 4).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import DataError, ShapeError
from repro.types import FloatArray, IntArray

__all__ = [
    "sad",
    "sad_pairwise",
    "sad_to_references",
    "confusion_matrix",
    "per_class_accuracy",
    "overall_accuracy",
    "match_targets",
]

_EPS = 1e-12


def _as_spectra(a: FloatArray, name: str) -> FloatArray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def sad(x: FloatArray, y: FloatArray) -> float:
    """Spectral angle distance between two signatures, in radians.

    ``SAD(x, y) = arccos( x·y / (‖x‖‖y‖) )`` — eq. (1) of the paper.
    Zero means spectrally identical up to scale; insensitivity to overall
    brightness is why SAD is the standard hyperspectral similarity.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ShapeError(f"signature shapes differ: {xv.shape} vs {yv.shape}")
    denom = float(np.linalg.norm(xv) * np.linalg.norm(yv))
    if denom < _EPS:
        raise DataError("SAD undefined for a zero signature")
    cosine = float(np.dot(xv, yv)) / denom
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


def sad_pairwise(spectra: FloatArray) -> FloatArray:
    """All-pairs SAD matrix for rows of ``spectra`` → ``(k, k)``, zeros on
    the diagonal.  Vectorized: one Gram matrix, no Python loops."""
    mat = _as_spectra(spectra, "spectra")
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms < _EPS):
        raise DataError("SAD undefined for zero signatures in the set")
    gram = (mat @ mat.T) / np.outer(norms, norms)
    np.clip(gram, -1.0, 1.0, out=gram)
    out = np.arccos(gram)
    np.fill_diagonal(out, 0.0)
    return out


def sad_to_references(pixels: FloatArray, references: FloatArray) -> FloatArray:
    """SAD from each pixel to each reference → ``(n_pixels, n_refs)``.

    ``pixels`` is ``(n, bands)`` (or any leading shape that reshapes to
    it); ``references`` is ``(k, bands)``.  The work-horse of both
    nearest-signature classification steps (Hetero-PCT step 9,
    Hetero-MORPH step 4).
    """
    pix = _as_spectra(pixels, "pixels")
    ref = _as_spectra(references, "references")
    if pix.shape[1] != ref.shape[1]:
        raise ShapeError(
            f"band counts differ: pixels {pix.shape[1]} vs refs {ref.shape[1]}"
        )
    pnorm = np.linalg.norm(pix, axis=1)
    rnorm = np.linalg.norm(ref, axis=1)
    if np.any(rnorm < _EPS):
        raise DataError("SAD undefined for zero reference signatures")
    # Zero pixels (e.g. padded borders) get angle pi/2 to everything.
    safe_pnorm = np.where(pnorm < _EPS, 1.0, pnorm)
    cos = (pix @ ref.T) / np.outer(safe_pnorm, rnorm)
    cos[pnorm < _EPS, :] = 0.0
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)


def confusion_matrix(
    truth: IntArray, predicted: IntArray, n_classes: int
) -> IntArray:
    """``(n_classes, n_classes)`` counts, rows = truth, cols = predicted.

    Entries of ``truth`` outside ``[0, n_classes)`` are ignored (the
    convention for unlabeled background is ``-1``).
    """
    t = np.asarray(truth).ravel()
    p = np.asarray(predicted).ravel()
    if t.shape != p.shape:
        raise ShapeError(f"label shapes differ: {t.shape} vs {p.shape}")
    if n_classes <= 0:
        raise DataError("n_classes must be positive")
    valid = (t >= 0) & (t < n_classes)
    if np.any((p[valid] < 0) | (p[valid] >= n_classes)):
        raise DataError("predicted labels out of range on labelled pixels")
    idx = t[valid] * n_classes + p[valid]
    counts = np.bincount(idx, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


def per_class_accuracy(
    truth: IntArray, predicted: IntArray, n_classes: int
) -> FloatArray:
    """Producer's accuracy per class, in percent; NaN for absent classes."""
    cm = confusion_matrix(truth, predicted, n_classes)
    totals = cm.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(totals > 0, np.diag(cm) / totals * 100.0, np.nan)
    return acc


def overall_accuracy(truth: IntArray, predicted: IntArray, n_classes: int) -> float:
    """Overall accuracy over labelled pixels, in percent."""
    cm = confusion_matrix(truth, predicted, n_classes)
    total = cm.sum()
    if total == 0:
        raise DataError("no labelled pixels to score")
    return float(np.trace(cm) / total * 100.0)


def match_targets(
    detected: FloatArray,
    ground_truth: Mapping[str, FloatArray] | Sequence[FloatArray],
) -> dict:
    """Score detected target signatures against known ground targets.

    For every ground target, reports the minimum SAD over the detected
    set — exactly the quantity of the paper's Table 3 ("SAD between the
    most similar target pixels detected ... and the known targets").

    Args:
        detected: ``(t, bands)`` detected target signatures.
        ground_truth: mapping of label → signature (or a sequence, which
            gets labels ``"0"``, ``"1"``, ...).

    Returns:
        dict of label → ``{"sad": float, "detected_index": int}``.
    """
    det = _as_spectra(detected, "detected")
    if det.shape[0] == 0:
        raise DataError("no detected targets to match")
    if not isinstance(ground_truth, Mapping):
        ground_truth = {str(i): sig for i, sig in enumerate(ground_truth)}
    results: dict = {}
    for label, signature in ground_truth.items():
        angles = sad_to_references(det, np.asarray(signature, dtype=float))
        best = int(np.argmin(angles[:, 0]))
        results[label] = {"sad": float(angles[best, 0]), "detected_index": best}
    return results
