"""Vector morphological operations on hyperspectral cubes.

Implements the paper's eqs. (2)–(5):

* ``D_B(F(x,y))`` — the cumulative SAD between a pixel and its
  B-neighbourhood (eq. 2);
* erosion / dilation — the neighbourhood pixel minimizing / maximizing
  ``D_B`` (eqs. 3–4), i.e. the spectrally *purest* / *most mixed*
  representative of the window;
* the morphological eccentricity index
  ``MEI(x,y) = SAD(erosion, dilation)`` (eq. 5), whose extrema
  Hetero-MORPH uses as endmember candidates.

Everything is vectorized: the D_B map is a sum of shifted-dot-product
arccosines (one pass per structuring-element offset), and the
erosion/dilation are one argmin/argmax over ``D_B`` gathered through a
clamped window-index map (:func:`window_indices`) — no per-pixel
Python loops.

Border handling uses edge replication, matching the paper's use of
redundant overlap borders "to avoid accesses outside the local image
domain".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError
from repro.morphology.structuring import StructuringElement
from repro.types import BLOCK_BYTES, FloatArray, IntArray

__all__ = [
    "cumulative_sad_map",
    "MorphExtrema",
    "morph_extrema",
    "erosion",
    "dilation",
    "mei_scores",
    "offset_angle_maps",
    "unique_pair_angles",
    "unique_pair_mei",
    "extrema_positions",
    "window_extrema",
    "window_indices",
]

_EPS = 1e-12


def _check_cube(cube: FloatArray) -> FloatArray:
    arr = np.asarray(cube, dtype=float)
    if arr.ndim != 3:
        raise ShapeError(f"expected (rows, cols, bands), got {arr.shape}")
    return arr


def _unit_vectors(cube: FloatArray) -> FloatArray:
    norms = np.linalg.norm(cube, axis=2, keepdims=True)
    return cube / np.maximum(norms, _EPS)


def _pad_edge(arr: FloatArray, radius_r: int, radius_c: int) -> FloatArray:
    return np.pad(
        arr, ((radius_r, radius_r), (radius_c, radius_c), (0, 0)), mode="edge"
    )


def cumulative_sad_map(cube: FloatArray, se: StructuringElement) -> FloatArray:
    """The ``D_B`` map (eq. 2): per-pixel sum of SAD to B-neighbours.

    Args:
        cube: ``(rows, cols, bands)``.
        se: the structuring element defining the neighbourhood.

    Returns:
        ``(rows, cols)`` of cumulative angles (radians).  Low values
        mark pixels spectrally similar to their neighbourhood (pure
        regions); high values mark mixed/transition pixels.
    """
    arr = _check_cube(cube)
    rows, cols, _ = arr.shape
    unit = _unit_vectors(arr)
    pr, pc = se.shape[0] // 2, se.shape[1] // 2
    padded = _pad_edge(unit, pr, pc)
    dmap = np.zeros((rows, cols))
    for dr, dc in se.offsets():
        if dr == 0 and dc == 0:
            continue  # SAD(x, x) = 0 contributes nothing
        shifted = padded[pr + dr : pr + dr + rows, pc + dc : pc + dc + cols]
        cos = np.einsum("ijk,ijk->ij", unit, shifted)
        np.clip(cos, -1.0, 1.0, out=cos)
        dmap += np.arccos(cos)
    return dmap


@dataclasses.dataclass(frozen=True)
class MorphExtrema:
    """Erosion/dilation results for one cube.

    Attributes:
        eroded: ``(rows, cols, bands)`` — each pixel replaced by the
            signature of its neighbourhood's D_B-minimizer (eq. 3).
        dilated: same with the D_B-maximizer (eq. 4).
        eroded_rows/eroded_cols/dilated_rows/dilated_cols: the spatial
            coordinates (clipped to the image domain) the extrema came
            from, for provenance and testing.
        dmap: the underlying ``D_B`` map.
    """

    eroded: FloatArray
    dilated: FloatArray
    eroded_rows: IntArray
    eroded_cols: IntArray
    dilated_rows: IntArray
    dilated_cols: IntArray
    dmap: FloatArray


def window_indices(rows: int, cols: int, se: StructuringElement) -> IntArray:
    """Flat index of every pixel's clamped neighbour, one row per offset.

    Row ``k`` of the ``(m, rows*cols)`` result maps flat pixel ``p`` to
    the flat index of its neighbour under ``se.offsets()[k]`` (the
    centre too, if the element has it), out-of-image coordinates
    clipped — exactly the pixel the edge-replicated padding of
    :func:`cumulative_sad_map` reads.
    """
    dr, dc = np.array(se.offsets(), dtype=np.intp).T
    r = np.clip(np.arange(rows)[None, :, None] + dr[:, None, None], 0, rows - 1)
    c = np.clip(np.arange(cols)[None, None, :] + dc[:, None, None], 0, cols - 1)
    return (r * cols + c).reshape(len(dr), rows * cols)


def window_extrema(
    dmap_flat: FloatArray, window: IntArray
) -> tuple[IntArray, IntArray]:
    """Flat indices of each pixel's window D_B minimizer and maximizer.

    ``window`` is :func:`window_indices`, ``dmap_flat`` the raveled
    ``D_B`` map; the contract is :func:`extrema_positions`'s.
    """
    values = dmap_flat[window]
    pixels = np.arange(window.shape[1])
    return (
        window[values.argmin(axis=0), pixels],
        window[values.argmax(axis=0), pixels],
    )


def extrema_positions(
    dmap: FloatArray, se: StructuringElement
) -> tuple[IntArray, IntArray, IntArray, IntArray]:
    """The per-pixel D_B-extremal window positions → (er_r, er_c, di_r, di_c).

    Per pixel, the window position (clipped to the image domain,
    consistent with the edge-replicated padding) holding the minimum /
    maximum ``D_B`` over the offsets; ties resolve to the first offset
    in ``se.offsets()`` order, as strict running comparisons would.
    ``dmap`` must be finite, as ``cumulative_sad_map`` of a finite cube
    is: a NaN would win the arg-reduction where a running scan skips it
    (``morph_classify`` and ``run_parallel`` reject non-finite cubes).
    """
    rows, cols = dmap.shape
    eroded, dilated = window_extrema(
        np.ravel(dmap), window_indices(rows, cols, se)
    )
    er_r, er_c = np.divmod(eroded.reshape(rows, cols), cols)
    di_r, di_c = np.divmod(dilated.reshape(rows, cols), cols)
    return er_r, er_c, di_r, di_c


def morph_extrema(cube: FloatArray, se: StructuringElement) -> MorphExtrema:
    """Compute erosion and dilation (eqs. 3–4) in one neighbourhood scan."""
    arr = _check_cube(cube)
    dmap = cumulative_sad_map(arr, se)
    er_r, er_c, di_r, di_c = extrema_positions(dmap, se)

    return MorphExtrema(
        eroded=arr[er_r, er_c],
        dilated=arr[di_r, di_c],
        eroded_rows=er_r,
        eroded_cols=er_c,
        dilated_rows=di_r,
        dilated_cols=di_c,
        dmap=dmap,
    )


def erosion(cube: FloatArray, se: StructuringElement) -> FloatArray:
    """``F ⊖ B`` (eq. 3): per-pixel neighbourhood D_B-minimizer signature."""
    return morph_extrema(cube, se).eroded


def dilation(cube: FloatArray, se: StructuringElement) -> FloatArray:
    """``F ⊕ B`` (eq. 4): per-pixel neighbourhood D_B-maximizer signature."""
    return morph_extrema(cube, se).dilated


def mei_scores(extrema: MorphExtrema) -> FloatArray:
    """``MEI(x,y) = SAD(eroded, dilated)`` (eq. 5) → ``(rows, cols)``."""
    e = extrema.eroded
    d = extrema.dilated
    en = np.linalg.norm(e, axis=2)
    dn = np.linalg.norm(d, axis=2)
    denom = np.maximum(en * dn, _EPS)
    cos = np.einsum("ijk,ijk->ij", e, d) / denom
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)


# --------------------------------------------------------------------------
# Fast-path primitives: the D_B map's per-offset angle fields come in
# mirror pairs — the angle field of offset ``(−dr,−dc)`` is the field of
# ``(dr,dc)`` shifted by ``(dr,dc)``, because both read the same
# unordered pixel pair and ``a·b`` / ``b·a`` are the same float sequence
# (elementwise products commute, reduction order is fixed by the band
# axis).  Only the clamped border pairs different pixels; it is
# recomputed directly.  A symmetric structuring element therefore needs
# half the full-frame dot-product sweeps, bit-identical to the direct
# evaluation.
# --------------------------------------------------------------------------


def offset_angle_maps(
    gu: FloatArray,
    offsets: list[tuple[int, int]],
) -> list[FloatArray]:
    """Per-offset SAD angle maps of a unit-spectra frame, mirrors shared.

    ``gu`` is the ``(rows, cols, bands)`` unit frame.  For each offset
    the map holds ``arccos(clip(u(x) · u(x ⊕ offset)))``, the neighbour
    clamped into the frame — the pixel edge-replicated padding would
    read.  Where ``x ⊕ offset`` needs no clamping (the interior) the map
    is the dot of two shifted views of ``gu`` or, when the offset's
    mirror was already computed, the mirror's map shifted by the offset
    (the identical unordered pair).  The clamped borders of all offsets
    are evaluated directly, in one gather of bounded blocks; no padded
    copy of the frame is made.  Bit-identical to a full-frame sweep over
    an edge-padded frame.
    """
    rows, cols = gu.shape[:2]
    maps = np.empty((len(offsets), rows, cols))
    computed: dict[tuple[int, int], FloatArray] = {}
    for ang, (dr, dc) in zip(maps, offsets):
        r0, r1 = max(0, -dr), rows - max(0, dr)
        c0, c1 = max(0, -dc), cols - max(0, dc)
        inner = ang[r0:r1, c0:c1]
        lead = computed.get((-dr, -dc))
        if lead is not None:
            # ang[r, c] = lead[r+dr, c+dc]: both read the unordered pair
            # {(r,c), (r+dr,c+dc)}, and the source is the lead's interior.
            inner[...] = lead[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        else:
            np.einsum(
                "ijk,ijk->ij",
                gu[r0:r1, c0:c1],
                gu[r0 + dr : r1 + dr, c0 + dc : c1 + dc],
                out=inner,
            )
            np.clip(inner, -1.0, 1.0, out=inner)
            np.arccos(inner, out=inner)
            computed[(dr, dc)] = ang
    # Every offset's clamped border: (i, j) pairs with its clipped
    # neighbour, all in one gather.
    dr, dc = np.array(offsets, dtype=np.intp).reshape(-1, 2).T
    r = np.arange(rows)[None, :, None] + dr[:, None, None]
    c = np.arange(cols)[None, None, :] + dc[:, None, None]
    k, i, j = np.nonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
    cos = _pair_dots(
        gu.reshape(rows * cols, -1),
        i * cols + j,
        np.clip(r[k, i, 0], 0, rows - 1) * cols
        + np.clip(c[k, 0, j], 0, cols - 1),
    )
    np.clip(cos, -1.0, 1.0, out=cos)
    maps[k, i, j] = np.arccos(cos)
    return list(maps)


# --------------------------------------------------------------------------
# Pair-deduplicated angles: once multiscale MEI passes start gathering
# (dilation is a selection), the frame holds many repeats of the same
# source pixels, and every repeated pixel-index pair would repeat the
# same O(bands) dot product.  These helpers compute each *distinct*
# unordered pair once and scatter the results back — bit-identical to
# the direct evaluation, because a SAD between two fixed spectra does
# not depend on which (row, col) asked for it, and ``a·b`` / ``b·a``
# are the same float sequence.
# --------------------------------------------------------------------------


def _pair_dots(src: FloatArray, ul: IntArray, ur: IntArray) -> FloatArray:
    """``src[ul[i]] · src[ur[i]]`` per pair, gathered a block at a time.

    Each side's block holds at most :data:`~repro.types.BLOCK_BYTES`, in
    two buffers made once per call, and the dots land in one output of
    the pair count.  A row's dot reads only its own two rows, so it does
    not depend on the block it falls in.
    """
    n = ul.shape[0]
    step = max(1, BLOCK_BYTES // (8 * src.shape[1]))
    left = np.empty((min(step, n), src.shape[1]))
    right = np.empty_like(left)
    out = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        a, b = left[: hi - lo], right[: hi - lo]
        # mode="clip" writes straight into ``out`` (the default "raise"
        # mode stages through a temporary); indices here are in range.
        np.take(src, ul[lo:hi], axis=0, out=a, mode="clip")
        np.take(src, ur[lo:hi], axis=0, out=b, mode="clip")
        np.einsum("ij,ij->i", a, b, out=out[lo:hi])
    return out


def unique_pair_angles(
    left: IntArray,
    right: IntArray,
    unit_flat: FloatArray,
) -> FloatArray:
    """``arccos(clip(u_left · u_right))`` per pair, each distinct pair once.

    ``left``/``right`` index rows of ``unit_flat`` (unit spectra); pairs
    are deduplicated on unordered keys before the O(bands) dot products,
    which gather their rows a bounded block at a time, then scattered
    back to per-pair order.
    """
    n_ref = unit_flat.shape[0]
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    uniq, inverse = np.unique(lo * n_ref + hi, return_inverse=True)
    ul, ur = np.divmod(uniq, n_ref)
    cos = _pair_dots(unit_flat, ul, ur)
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)[inverse]


def unique_pair_mei(
    left: IntArray,
    right: IntArray,
    pixels_flat: FloatArray,
    norms_flat: FloatArray,
) -> FloatArray:
    """Eq. 5 SAD between raw-spectra pairs, each distinct pair once.

    Matches :func:`mei_scores` float-for-float: the cosine is the raw
    dot over ``max(‖e‖·‖d‖, eps)`` with precomputed norms.  The dots
    gather their rows a bounded block at a time, as in
    :func:`unique_pair_angles`.
    """
    n_ref = pixels_flat.shape[0]
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    uniq, inverse = np.unique(lo * n_ref + hi, return_inverse=True)
    ul, ur = np.divmod(uniq, n_ref)
    cos = _pair_dots(pixels_flat, ul, ur)
    cos /= np.maximum(norms_flat[ul] * norms_flat[ur], _EPS)
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)[inverse]
