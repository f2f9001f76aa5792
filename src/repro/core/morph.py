"""Sequential MORPH classification (Algorithm 5's computational content).

The spatial/spectral algorithm: iterate ``I_max`` passes of vector
erosion/dilation (eqs. 3–4), maintaining a morphological eccentricity
index (MEI, eq. 5) per pixel; after each pass the image is replaced by
its dilation (a multiscale sweep).  The ``c`` pixels with the highest
MEI — deduplicated by pairwise SAD — become endmembers, and every pixel
is labelled with its most similar endmember under full-spectral SAD.

MEI update rule: the paper says "update the MEI score" each iteration
without fixing the combiner; we take the running **maximum** (strongest
eccentricity over scales), documented in DESIGN.md.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.atdca import _check_finite
from repro.core.unique import UniqueSet, greedy_unique, merge_unique_sets
from repro.errors import ConfigurationError, ShapeError
from repro.hsi.cube import HyperspectralImage
from repro.hsi.metrics import sad_to_references
from repro.morphology.ops import (
    _EPS,
    mei_scores,
    morph_extrema,
    offset_angle_maps,
    unique_pair_angles,
    unique_pair_mei,
    window_extrema,
    window_indices,
)
from repro.morphology.structuring import StructuringElement, square
from repro.types import FloatArray, IntArray

__all__ = [
    "MorphClassification",
    "mei_map",
    "mei_map_reference",
    "select_endmembers",
    "morph_classify",
]

#: Default SAD threshold for deduplicating endmember candidates.
DEFAULT_DEDUP_THRESHOLD = 0.05


@dataclasses.dataclass(frozen=True)
class MorphClassification:
    """Output of MORPH classification.

    Attributes:
        labels: ``(rows, cols)`` class index into ``endmembers.signatures``.
        endmembers: the unique endmember set (flat pixel indices refer
            to the *original* image's flattened pixel list).
        mei: the final ``(rows, cols)`` MEI map.
    """

    labels: IntArray
    endmembers: UniqueSet
    mei: FloatArray

    @property
    def n_classes(self) -> int:
        return self.endmembers.count


def mei_map_reference(
    cube: FloatArray,
    se: StructuringElement,
    iterations: int,
) -> FloatArray:
    """Reference multiscale MEI map: direct per-pass erosion/dilation.

    This is the straightforward evaluation of steps 2(a)–(c) — each pass
    re-normalizes the whole frame and recomputes every window angle.
    :func:`mei_map` produces the same array bit-for-bit via the
    pair-compressed fast path; this implementation is kept as the
    equivalence oracle (and for profiling comparisons).
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    arr = np.asarray(cube, dtype=float)
    if arr.ndim != 3:
        raise ShapeError(f"expected (rows, cols, bands), got {arr.shape}")
    current = arr
    mei = np.zeros(arr.shape[:2])
    for step in range(iterations):
        extrema = morph_extrema(current, se)
        scores = mei_scores(extrema)
        np.maximum.at(mei, (extrema.dilated_rows, extrema.dilated_cols), scores)
        if step + 1 < iterations:
            current = extrema.dilated
    return mei


def mei_map(
    cube: FloatArray,
    se: StructuringElement,
    iterations: int,
) -> FloatArray:
    """Steps 2(a)–(c): the multiscale MEI map over ``iterations`` passes.

    Pass ``j`` computes erosion/dilation of the current image, credits
    ``SAD(eroded, dilated)`` to the *pure* pixel the dilation selected
    (the AMEE convention of [13]: the eccentricity score belongs to the
    spectrally purest pixel of the window, which is what makes top-MEI
    pixels endmember material rather than class-boundary mixtures),
    folding into a running max, then replaces the image by its dilation
    for the next scale.

    Fast path (bit-identical to :func:`mei_map_reference`): dilation
    only *selects* existing pixels, so instead of materializing and
    renormalizing each dilated frame this carries a provenance map of
    flat indices into the original cube — unit spectra and norms are
    computed once.  The first pass (frame = original cube, every pixel
    distinct) computes the per-offset D_B sweeps with the
    (dr,dc)/(−dr,−dc) mirror symmetry — each mirrored angle field is the
    lead field shifted, with only the clamped border recomputed
    (:func:`~repro.morphology.ops.offset_angle_maps`), halving the
    full-frame dot-product sweeps.  Later passes gather heavily (the
    dilated frame repeats its window maxima), so their window angles are
    deduplicated to distinct pixel-index pairs before the O(bands) dot
    products run, and they keep the unit spectra of only the pixels the
    first dilation kept; MEI angles are pair-deduplicated on every pass.
    The pair dots gather at most :data:`~repro.types.BLOCK_BYTES` of
    rows a side at a time, so no gather buffer grows with a pass's pair
    count.  One clamped window-index
    map (:func:`~repro.morphology.ops.window_indices`), built once per
    call, gives those neighbour pairs and every pass's
    erosion/dilation positions, which stay flat indices throughout.
    Per-pass D_B accumulation keeps the structuring element's offset
    order, so the sums see the same floats in the same order as the
    direct evaluation.
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    arr = np.asarray(cube, dtype=float)
    if arr.ndim != 3:
        raise ShapeError(f"expected (rows, cols, bands), got {arr.shape}")
    rows, cols, bands = arr.shape
    n = rows * cols
    flat = arr.reshape(n, bands)
    norms = np.linalg.norm(flat, axis=1)
    unit = flat / np.maximum(norms, _EPS)[:, None]
    off_centre = [off != (0, 0) for off in se.offsets()]  # SAD(x, x) = 0
    offsets = [off for off, keep in zip(se.offsets(), off_centre) if keep]
    window = window_indices(rows, cols, se)  # one row per offset
    neighbors = window[off_centre]

    prov = np.arange(n)  # current frame pixel → original flat index
    mei = np.zeros(n)
    dmap = np.empty(n)
    for step in range(iterations):
        # D_B (eq. 2): accumulated per offset in se.offsets() order.
        dmap[:] = 0.0
        if step == 0:
            frame = unit.reshape(rows, cols, bands)
            for ang in offset_angle_maps(frame, offsets):
                dmap += ang.ravel()
            del frame  # a view: it would keep the whole unit copy alive
        else:
            local = slot[prov]  # each frame pixel's row of ``unit``
            angles = unique_pair_angles(
                np.tile(local, len(neighbors)), local[neighbors].ravel(), unit
            )
            for ang in angles.reshape(len(neighbors), n):
                dmap += ang

        er_flat, di_flat = window_extrema(dmap, window)
        scores = unique_pair_mei(prov[er_flat], prov[di_flat], flat, norms)
        # MEI credit goes to the *lattice position* the dilation chose
        # in the current frame, not the provenance pixel.
        np.maximum.at(mei, di_flat, scores)
        if step + 1 < iterations:
            prov = prov[di_flat]
            if step == 0:
                # Later frames only repeat pixels this dilation kept
                # (41 % of the grid scene): keep their unit rows alone.
                held = np.zeros(n, dtype=bool)
                held[prov] = True
                unit, slot = unit[held], np.cumsum(held) - 1
    return mei.reshape(rows, cols)


def local_endmember_candidates(
    cube: FloatArray,
    mei: FloatArray,
    n_classes: int,
    row_offset: int = 0,
    total_cols: int | None = None,
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> UniqueSet:
    """Step 2(d): the ``c`` highest-MEI *spectrally distinct* pixels of
    one (local) partition.

    Candidates are scanned in decreasing MEI order (8× oversampled) and
    kept only when their SAD to everything already kept exceeds
    ``dedup_threshold`` — without this, a partition crossed by one
    high-contrast boundary (a river bank) fills all ``c`` slots with
    near-copies of the same two signatures and the master never sees
    the partition's subtler classes.

    Args:
        cube: the local ``(rows, cols, bands)`` block.
        mei: its MEI map.
        n_classes: distinct candidates to keep.
        row_offset: the block's first global row — candidate indices are
            returned as *global* flat indices so the master can merge.
        total_cols: global scene width (defaults to the block's).
        dedup_threshold: local SAD distinctness.
    """
    if n_classes < 1:
        raise ConfigurationError(f"n_classes must be >= 1, got {n_classes}")
    arr = np.asarray(cube, dtype=float)
    flat_mei = np.asarray(mei, dtype=float).ravel()
    n_pixels = arr.shape[0] * arr.shape[1]
    if flat_mei.shape[0] != n_pixels:
        raise ShapeError("MEI map does not match the cube's spatial dims")
    cols = arr.shape[1] if total_cols is None else total_cols
    pool = min(n_pixels, 8 * n_classes)
    order = np.argsort(-flat_mei, kind="stable")[:pool]
    pixels = arr.reshape(n_pixels, -1)
    distinct = greedy_unique(
        pixels[order], dedup_threshold, max_keep=min(n_classes, pool)
    )
    chosen = order[distinct.indices]
    local_rows, local_cols = np.divmod(chosen, arr.shape[1])
    global_flat = (local_rows + row_offset) * cols + local_cols
    return UniqueSet(
        signatures=distinct.signatures,
        indices=global_flat,
        scores=flat_mei[chosen],
    )


def select_endmembers(
    cube: FloatArray,
    mei: FloatArray,
    n_classes: int,
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD,
    strata: int = 16,
) -> UniqueSet:
    """Steps 2(d) + 3: spatially stratified top-MEI candidates, merged.

    Mirrors the parallel algorithm's structure: the image is split into
    ``strata`` row slabs (the workers' partitions), each contributes its
    ``c`` highest-MEI pixels, and the union is deduplicated by pairwise
    SAD and reduced to ``n_classes``.  Spatial stratification is what
    keeps the candidate set from being monopolized by the scene's
    single highest-contrast boundary.

    Indices are into the flattened pixel list of ``cube``.
    """
    arr = np.asarray(cube, dtype=float)
    rows = arr.shape[0]
    if strata < 1:
        raise ConfigurationError(f"strata must be >= 1, got {strata}")
    strata = min(strata, rows)
    bounds = np.linspace(0, rows, strata + 1).astype(int)
    flat_mei = np.asarray(mei, dtype=float)
    if flat_mei.shape != arr.shape[:2]:
        raise ShapeError("MEI map does not match the cube's spatial dims")
    candidates = [
        local_endmember_candidates(
            arr[a:b], flat_mei[a:b], n_classes, row_offset=a,
            total_cols=arr.shape[1],
        )
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    return merge_unique_sets(candidates, dedup_threshold, count=n_classes)


def morph_classify(
    image: HyperspectralImage,
    n_classes: int,
    se: StructuringElement | None = None,
    iterations: int = 5,
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> MorphClassification:
    """Run the full MORPH classifier on a cube.

    Args:
        image: the scene.
        n_classes: ``c`` — endmembers/classes to extract (paper: 7).
        se: structuring element ``B`` (default 3×3 square).
        iterations: ``I_max`` (paper: 5).
        dedup_threshold: SAD distinctness for the endmember set.
    """
    se = se or square(3)
    cube = image.values
    # A NaN spreads through every erosion/dilation window it touches and
    # its SAD never wins an argmin: the sweep would label around it.
    _check_finite(image.flatten_pixels())
    mei = mei_map(cube, se, iterations)
    endmembers = select_endmembers(cube, mei, n_classes, dedup_threshold)
    angles = sad_to_references(image.flatten_pixels(), endmembers.signatures)
    labels = np.argmin(angles, axis=1).astype(np.int64)
    return MorphClassification(
        labels=labels.reshape(image.rows, image.cols),
        endmembers=endmembers,
        mei=mei,
    )
