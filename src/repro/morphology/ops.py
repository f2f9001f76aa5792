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
from repro.types import FloatArray, IntArray

__all__ = [
    "cumulative_sad_map",
    "MorphExtrema",
    "morph_extrema",
    "erosion",
    "dilation",
    "mei_scores",
    "edge_pad_into",
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
# axis).  Only the clamped border strips pair different pixels; those
# are recomputed directly.  A symmetric structuring element therefore
# needs half the full-frame dot-product sweeps, bit-identical to the
# direct evaluation.  ``edge_pad_into`` supports reusing one padded
# buffer across passes instead of reallocating per pass.
# --------------------------------------------------------------------------


def edge_pad_into(
    out: FloatArray, cube: FloatArray, pr: int, pc: int
) -> FloatArray:
    """Edge-replicated pad of ``cube`` written into a preallocated buffer.

    Produces exactly :func:`numpy.pad`'s ``mode="edge"`` values (corners
    replicate corner pixels) without allocating a fresh padded array per
    call — ``out`` must be ``(rows+2·pr, cols+2·pc, bands)``.
    """
    rows, cols = cube.shape[:2]
    out[pr : pr + rows, pc : pc + cols] = cube
    if pr:
        out[:pr, pc : pc + cols] = cube[:1]
        out[pr + rows :, pc : pc + cols] = cube[-1:]
    if pc:
        out[:, :pc] = out[:, pc : pc + 1]
        out[:, pc + cols :] = out[:, pc + cols - 1 : pc + cols]
    return out


def _clamped_strip_angles(
    ang: FloatArray,
    gu: FloatArray,
    dr: int,
    dc: int,
    row_idx: IntArray,
    col_idx: IntArray,
) -> None:
    """Direct angles for the border strip ``row_idx × col_idx`` of ``ang``.

    Pairs each strip pixel with its clip-clamped ``(dr, dc)`` neighbour
    — the pixel edge-replicated padding would read — via the same
    cos/clip/arccos float sequence as the full-frame sweep.
    """
    rows, cols = ang.shape
    src_r = np.clip(row_idx + dr, 0, rows - 1)
    src_c = np.clip(col_idx + dc, 0, cols - 1)
    a = gu[row_idx[:, None], col_idx[None, :]]
    b = gu[src_r[:, None], src_c[None, :]]
    cos = np.einsum("ijk,ijk->ij", a, b)
    np.clip(cos, -1.0, 1.0, out=cos)
    ang[row_idx[:, None], col_idx[None, :]] = np.arccos(cos)


def offset_angle_maps(
    gu: FloatArray,
    padded: FloatArray,
    offsets: list[tuple[int, int]],
    pr: int,
    pc: int,
    cosbuf: FloatArray,
) -> list[FloatArray]:
    """Per-offset SAD angle maps of a unit-spectra frame, mirrors shared.

    ``gu`` is the ``(rows, cols, bands)`` unit frame, ``padded`` its
    edge-replicated pad (see :func:`edge_pad_into`), ``cosbuf`` a
    reusable ``(rows, cols)`` scratch.  For each offset the map holds
    ``arccos(clip(u(x) · u(x ⊕ offset)))``; when an offset's mirror was
    already computed, its map is the mirror's map shifted by the offset
    (interior — the identical unordered pair) with only the clamped
    border strips evaluated directly.  Bit-identical to computing every
    offset with a full-frame sweep.
    """
    rows, cols = gu.shape[:2]
    computed: dict[tuple[int, int], FloatArray] = {}
    maps: list[FloatArray] = []
    for dr, dc in offsets:
        lead = computed.get((-dr, -dc))
        ang = np.empty((rows, cols))
        if lead is not None:
            # ang[r, c] = lead[r+dr, c+dc] wherever the source index is
            # in bounds: both read the unordered pair {(r,c), (r+dr,c+dc)}.
            r0, r1 = max(0, -dr), rows + min(0, -dr)
            c0, c1 = max(0, -dc), cols + min(0, -dc)
            ang[r0:r1, c0:c1] = lead[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
            all_cols = np.arange(cols)
            all_rows = np.arange(rows)
            if r0 > 0:
                _clamped_strip_angles(ang, gu, dr, dc, np.arange(r0), all_cols)
            if r1 < rows:
                _clamped_strip_angles(
                    ang, gu, dr, dc, np.arange(r1, rows), all_cols
                )
            if c0 > 0:
                _clamped_strip_angles(ang, gu, dr, dc, all_rows, np.arange(c0))
            if c1 < cols:
                _clamped_strip_angles(
                    ang, gu, dr, dc, all_rows, np.arange(c1, cols)
                )
        else:
            shifted = padded[pr + dr : pr + dr + rows, pc + dc : pc + dc + cols]
            np.einsum("ijk,ijk->ij", gu, shifted, out=cosbuf)
            np.clip(cosbuf, -1.0, 1.0, out=cosbuf)
            np.arccos(cosbuf, out=ang)
            computed[(dr, dc)] = ang
        maps.append(ang)
    return maps


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


def _gathered_rows(
    src: FloatArray,
    idx: IntArray,
    scratch: dict[str, FloatArray] | None,
    key: str,
) -> FloatArray:
    """``src[idx]`` routed through a caller-owned growable scratch buffer.

    Large varying-size fancy-index gathers allocate (and first-touch)
    fresh pages on every call; ``np.take(..., out=)`` into a reused
    buffer pays that cost once.  ``scratch`` maps ``key`` to the buffer,
    grown when too small; ``None`` falls back to plain indexing.
    """
    if scratch is None:
        return src[idx]
    buf = scratch.get(key)
    if buf is None or buf.shape[0] < idx.shape[0] or buf.shape[1] != src.shape[1]:
        buf = np.empty((idx.shape[0], src.shape[1]))
        scratch[key] = buf
    view = buf[: idx.shape[0]]
    # mode="clip" writes straight into ``out`` (the default "raise" mode
    # stages through a temporary); indices here are always in range.
    np.take(src, idx, axis=0, out=view, mode="clip")
    return view


def unique_pair_angles(
    left: IntArray,
    right: IntArray,
    unit_flat: FloatArray,
    scratch: dict[str, FloatArray] | None = None,
) -> FloatArray:
    """``arccos(clip(u_left · u_right))`` per pair, each distinct pair once.

    ``left``/``right`` index rows of ``unit_flat`` (unit spectra); pairs
    are deduplicated on unordered keys before the O(bands) dot products,
    then scattered back to per-pair order.  Pass a ``scratch`` dict to
    reuse the gather buffers across calls (see :func:`_gathered_rows`).
    """
    n_ref = unit_flat.shape[0]
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    uniq, inverse = np.unique(lo * n_ref + hi, return_inverse=True)
    ul, ur = np.divmod(uniq, n_ref)
    cos = np.einsum(
        "ij,ij->i",
        _gathered_rows(unit_flat, ul, scratch, "pair_left"),
        _gathered_rows(unit_flat, ur, scratch, "pair_right"),
    )
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)[inverse]


def unique_pair_mei(
    left: IntArray,
    right: IntArray,
    pixels_flat: FloatArray,
    norms_flat: FloatArray,
    scratch: dict[str, FloatArray] | None = None,
) -> FloatArray:
    """Eq. 5 SAD between raw-spectra pairs, each distinct pair once.

    Matches :func:`mei_scores` float-for-float: the cosine is the raw
    dot over ``max(‖e‖·‖d‖, eps)`` with precomputed norms.  ``scratch``
    reuses gather buffers across calls (shared with
    :func:`unique_pair_angles` — the buffers grow to the larger need).
    """
    n_ref = pixels_flat.shape[0]
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    uniq, inverse = np.unique(lo * n_ref + hi, return_inverse=True)
    ul, ur = np.divmod(uniq, n_ref)
    denom = np.maximum(norms_flat[ul] * norms_flat[ur], _EPS)
    cos = np.einsum(
        "ij,ij->i",
        _gathered_rows(pixels_flat, ul, scratch, "pair_left"),
        _gathered_rows(pixels_flat, ur, scratch, "pair_right"),
    ) / denom
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos)[inverse]
