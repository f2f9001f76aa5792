"""Orthogonal subspace projection (OSP) kernels.

ATDCA (Algorithm 2) repeatedly projects every pixel onto the orthogonal
complement of the span of the targets found so far,
``P^⊥_U = I − U (UᵀU)⁻¹ Uᵀ``, and picks the pixel with the largest
projected energy.  Forming the ``N×N`` projector explicitly is O(N²)
memory and O(npix·N²) time; we instead keep an orthonormal basis ``Q``
of span(U) and evaluate the projected energy as
``‖x‖² − ‖Qᵀx‖²``, which is O(npix·N·t) — the textbook algebraic
identity, exact up to round-off.  :func:`osp_projector` still builds the
explicit projector for tests and small problems.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, ShapeError
from repro.types import FloatArray

__all__ = [
    "osp_projector",
    "orthonormal_basis",
    "projected_energy",
    "residual_energy",
    "brightest_pixel_index",
    "IncrementalOSP",
]


def _as_matrix(u: FloatArray) -> FloatArray:
    mat = np.asarray(u, dtype=float)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise ShapeError(f"U must be (t, bands), got shape {mat.shape}")
    return mat


def osp_projector(u: FloatArray, rcond: float = 1e-10) -> FloatArray:
    """The explicit orthogonal-complement projector ``I − Uᵀ(UUᵀ)⁻¹U``.

    Args:
        u: target matrix, ``(t, bands)`` — rows are signatures (the
            paper writes U as t×N).
        rcond: cutoff for the pseudo-inverse (rank-deficient U is fine).

    Returns:
        ``(bands, bands)`` symmetric idempotent matrix.
    """
    mat = _as_matrix(u)
    bands = mat.shape[1]
    pinv = np.linalg.pinv(mat @ mat.T, rcond=rcond, hermitian=True)
    return np.eye(bands) - mat.T @ pinv @ mat


def orthonormal_basis(u: FloatArray, tol: float = 1e-10) -> FloatArray:
    """An orthonormal basis of span(rows of U) via thin QR → ``(bands, r)``.

    Columns span the same subspace as U's rows; rank-deficient inputs
    are reduced (columns with negligible R diagonal dropped).
    """
    mat = _as_matrix(u)
    q, r = np.linalg.qr(mat.T)  # (bands, t), (t, t)
    keep = np.abs(np.diag(r)) > tol * max(1.0, float(np.abs(r).max()))
    if not keep.all():
        # Unpivoted QR cannot simply drop zero-diagonal columns: a row
        # that is dependent on *earlier* rows zeroes its diagonal, but
        # later independent rows still carry components along the
        # arbitrary Q columns LAPACK filled in there (R[i, j] ≠ 0 for
        # j > i), so filtering would discard genuine span.  Rank
        # deficiency is rare, so only then pay for the SVD, which
        # orders directions by singular value and cuts cleanly.
        q, s, _ = np.linalg.svd(mat.T, full_matrices=False)
        keep = s > tol * max(1.0, float(s[0])) if s.size else s.astype(bool)
    basis = q[:, keep]
    if basis.shape[1] == 0:
        raise DataError("target matrix U has rank zero")
    return basis


def projected_energy(pixels: FloatArray, basis: FloatArray) -> FloatArray:
    """Energy of each pixel after projecting *onto* span(basis columns).

    ``pixels`` is ``(n, bands)``; returns ``(n,)`` of ``‖Qᵀx‖²``.
    """
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim == 1:
        pix = pix[None, :]
    if pix.shape[1] != basis.shape[0]:
        raise ShapeError(
            f"pixels have {pix.shape[1]} bands, basis expects {basis.shape[0]}"
        )
    coeff = pix @ basis  # (n, r)
    return np.einsum("ij,ij->i", coeff, coeff)


def residual_energy(pixels: FloatArray, u: FloatArray | None) -> FloatArray:
    """OSP score per pixel: ``‖P^⊥_U x‖²`` (total energy if U is None).

    This is the quantity maximized in ATDCA steps 2 and 4.  Computed as
    ``‖x‖² − ‖Qᵀx‖²`` with Q an orthonormal basis of span(U); clipped at
    zero to absorb round-off.
    """
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim == 1:
        pix = pix[None, :]
    total = np.einsum("ij,ij->i", pix, pix)
    if u is None:
        return total
    basis = orthonormal_basis(u)
    return np.maximum(total - projected_energy(pix, basis), 0.0)


class IncrementalOSP:
    """Incrementally maintained OSP residual energies for a fixed pixel set.

    ATDCA's loop evaluates ``‖P^⊥_U x‖²`` for a target matrix that grows
    by one row per iteration.  Recomputing from scratch costs one QR plus
    an ``(n, bands) × (bands, t)`` product per iteration —
    O(n·bands·t²) over the whole run.  This class keeps the orthonormal
    basis across iterations (one modified-Gram–Schmidt step per new
    target) and updates the residual energies by subtracting only the
    new basis direction's coefficients: O(n·bands) per iteration,
    O(n·bands·t) total.

    Exactness: the maintained residuals equal
    :func:`residual_energy` up to round-off (the Pythagorean update is
    the same algebraic identity evaluated one column at a time), and the
    basis spans the same subspace as the from-scratch QR.  The update is
    *bypassed* (no new column) when a target is numerically dependent on
    the span so far — mirroring the rank reduction in
    :func:`orthonormal_basis`.

    The per-pixel arithmetic is independent of how pixels are batched,
    so ranks holding row-partitions of a scene compute bit-identical
    scores to a sequential pass over the whole scene — the property the
    parallel/sequential equivalence tests pin.
    """

    def __init__(self, pixels: FloatArray, tol: float = 1e-10) -> None:
        pix = np.asarray(pixels, dtype=float)
        if pix.ndim != 2:
            raise ShapeError(f"expected (n, bands), got {pix.shape}")
        self._pix = pix
        self._tol = float(tol)
        self._bands = pix.shape[1]
        #: columns are the orthonormal basis vectors, in insertion order.
        self._q: list[FloatArray] = []
        self._residual = np.einsum("ij,ij->i", pix, pix)

    @property
    def n_directions(self) -> int:
        """Independent directions absorbed so far (the basis rank)."""
        return len(self._q)

    @property
    def basis(self) -> FloatArray:
        """The ``(bands, r)`` orthonormal basis accumulated so far."""
        if not self._q:
            return np.empty((self._bands, 0))
        return np.stack(self._q, axis=1)

    def add_target(self, signature: FloatArray) -> bool:
        """Fold one new target into the basis and the residual energies.

        One modified-Gram–Schmidt step (with re-orthogonalization, for
        accuracy on near-collinear target sets), then one
        ``pixels @ q`` product.  Returns ``False`` — the bypass — when
        the signature is numerically inside the current span, in which
        case neither basis nor residuals change (matching the QR rank
        cutoff of :func:`orthonormal_basis`).
        """
        sig = np.asarray(signature, dtype=float).reshape(-1)
        if sig.shape[0] != self._bands:
            raise ShapeError(
                f"signature has {sig.shape[0]} bands, expected {self._bands}"
            )
        scale = float(np.linalg.norm(sig))
        if scale == 0.0:
            return False
        v = sig.astype(float, copy=True)
        # Two MGS sweeps: the second repairs the cancellation a single
        # sweep suffers when the target is nearly in the span already.
        for _ in range(2):
            for q in self._q:
                v -= (q @ v) * q
        norm = float(np.linalg.norm(v))
        if norm <= self._tol * max(1.0, scale):
            return False
        q_new = v / norm
        self._q.append(q_new)
        coeff = self._pix @ q_new
        self._residual -= coeff * coeff
        return True

    def residual_energy(self) -> FloatArray:
        """Current ``‖P^⊥_U x‖²`` per pixel, clipped at zero (round-off)."""
        return np.maximum(self._residual, 0.0)


def brightest_pixel_index(pixels: FloatArray) -> int:
    """Index of the pixel with the largest ``xᵀx`` (ATDCA's seed)."""
    pix = np.asarray(pixels, dtype=float)
    if pix.ndim != 2 or pix.shape[0] == 0:
        raise ShapeError(f"expected non-empty (n, bands), got {pix.shape}")
    return int(np.argmax(np.einsum("ij,ij->i", pix, pix)))
