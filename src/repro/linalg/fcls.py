"""Least-squares linear unmixing solvers.

UFCLS (Algorithm 3) scores every pixel by the residual of a linear-mixture
fit against the current target set whose abundances are non-negative and
sum to one.  We provide the Heinz–Chang active-set iteration on top of
the sum-to-one solve (SCLS, closed form via a Lagrange multiplier) that
UFCLS calls FCLS, and the reconstruction-error map UFCLS consumes.  That
iteration drops a pixel's most negative abundance until none is left and
never re-admits a lane, so its answer is feasible but not always the
constrained optimum.

The SCLS solve is one batched expression; the pixels it leaves negative
enter a refinement batched over pixels and their distinct active lane sets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, DataError, ShapeError
from repro.types import FloatArray

__all__ = [
    "fcls_abundances",
    "reconstruction_error",
    "IncrementalFCLS",
    "ScratchFCLS",
]


def _validate(pixels: FloatArray, endmembers: FloatArray) -> tuple[FloatArray, FloatArray]:
    pix = np.asarray(pixels, dtype=float)
    end = np.asarray(endmembers, dtype=float)
    if pix.ndim == 1:
        pix = pix[None, :]
    if end.ndim == 1:
        end = end[None, :]
    if pix.ndim != 2 or end.ndim != 2:
        raise ShapeError(
            f"pixels and endmembers must be 2-D, got {pix.shape} and {end.shape}"
        )
    if pix.shape[1] != end.shape[1]:
        raise ShapeError(
            f"band mismatch: pixels {pix.shape[1]} vs endmembers {end.shape[1]}"
        )
    if end.shape[0] == 0:
        raise DataError("need at least one endmember")
    return pix, end


def _damped(gram: FloatArray, ridge: float) -> FloatArray:
    # A tiny ridge keeps near-collinear target sets (common once ATDCA/UFCLS
    # have extracted many similar spectra) numerically solvable.  The damping
    # is per-entry (``ridge·max(1, G_jj)``, Levenberg–Marquardt style): entry
    # ``j``'s regularization depends only on target ``j``, never on later
    # additions, which is what lets :class:`IncrementalFCLS` grow the inverse
    # by rank-1 bordering and still invert *exactly* the same matrix as this
    # from-scratch path.
    return gram + np.diag(ridge * np.maximum(1.0, np.diag(gram)))


def _reg_inverse(gram: FloatArray, ridge: float) -> FloatArray:
    return np.linalg.inv(_damped(gram, ridge))


def _scls_from_cross(cross: FloatArray, ginv: FloatArray) -> FloatArray:
    """The closed-form SCLS solution from cross-products alone.

    ``cross`` is ``pixels @ endmembers.T`` (``(n, k)``) and ``ginv`` the
    (regularized) Gram inverse — everything the Lagrange formula needs,
    so callers that already hold these products skip the O(n·bands·k)
    design-matrix work entirely.
    """
    a_ls = cross @ ginv  # (n, k)
    ones = np.ones(ginv.shape[0])
    ginv_one = ginv @ ones  # (k,)
    denom = float(ones @ ginv_one)
    if abs(denom) < 1e-300:
        raise DataError("sum-to-one constraint is degenerate for these endmembers")
    correction = (a_ls.sum(axis=1) - 1.0) / denom
    return a_ls - correction[:, None] * ginv_one[None, :]


#: Bytes a block of ``q × q`` systems or a chunk of their pixels may take: 16 rank
#: threads hold each 16 times over; glibc maps 128 KiB and more afresh each time.
_ROUND_BYTES = 128 * 1024


def _active_set_refine(
    result: FloatArray, cross: FloatArray, gram: FloatArray, ridge: float, rounds: int
) -> FloatArray:
    """Heinz–Chang active-set refinement on top of a full SCLS solve.

    A dropped lane never comes back, so in round ``r`` every open pixel has
    exactly ``q = k − 1 − r`` active lanes, carried as an ascending row of
    ``lanes`` that loses one column a round.  A round keys each pixel's
    lanes as an int64 bit set and sorts the pixels by key; it inverts the
    damped Gram block of each distinct key at its lanes, a stack of
    ``q × q`` systems, and applies each pixel's inverse to its ``cross``
    row at its lanes in one batched ``matmul``.  Masks, then their pixels,
    are taken ``_ROUND_BYTES`` worth at a time; each matrix is inverted and
    applied on its own, so a pixel's result depends on that pixel and its
    lanes, never on which pixels share the call or where a block ends.
    Open rows are zeroed once and written when they become feasible.
    Mutates and returns ``result``, with all abundances non-negative.
    """
    k = result.shape[1]
    if k > 62:
        raise DataError(f"active masks are int64 keys: at most 62 endmembers, got {k}")
    todo = np.flatnonzero((result < -1e-12).any(axis=1))
    lanes = np.tile(np.arange(k), (todo.size, 1))
    # Round 0 already solved the all-active case; record first drops.
    drop = np.argmin(result[todo], axis=1)
    result[todo] = 0.0
    damped = _damped(gram, ridge)
    for _ in range(rounds):
        if todo.size == 0:
            break
        q = lanes.shape[1] - 1
        if q == 0:
            raise ConvergenceError("FCLS active-set iteration emptied an active set")
        lanes = lanes[np.arange(q + 1) != drop[:, None]].reshape(todo.size, q)
        keys = (1 << lanes).sum(axis=1)
        order = np.argsort(keys)
        todo, lanes = todo[order], lanes[order]
        _, first, group = np.unique(keys[order], return_index=True, return_inverse=True)
        step = max(1, _ROUND_BYTES // (8 * q * q))
        bad, drop = np.empty(todo.size, dtype=bool), np.empty(todo.size, dtype=np.intp)
        for g in range(0, first.size, step):
            ml = lanes[first[g:g + step]]
            inv = np.linalg.inv(damped[ml[:, :, None], ml[:, None, :]])
            ginv_one = inv.sum(axis=2)
            denom = ginv_one.sum(axis=1)
            if (np.abs(denom) < 1e-300).any():
                raise DataError(
                    "sum-to-one constraint is degenerate for these endmembers"
                )
            # Pixels are sorted by mask: masks g:g+step own one run of them.
            start, stop = np.searchsorted(group, (g, g + step))
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                rows, local, pl = todo[lo:hi], group[lo:hi] - g, lanes[lo:hi]
                c = cross[rows[:, None], pl]
                a_ls = np.matmul(c[:, None, :], inv[local])[:, 0, :]
                correction = (a_ls.sum(axis=1) - 1.0) / denom[local]
                sub = a_ls - correction[:, None] * ginv_one[local]
                done = ~(sub < -1e-12).any(axis=1)
                result[rows[done, None], pl[done]] = sub[done]
                bad[lo:hi] = ~done
                drop[lo:hi] = sub.argmin(axis=1)
        todo, lanes, drop = todo[bad], lanes[bad], drop[bad]
    if todo.size:
        raise ConvergenceError(
            f"FCLS failed to converge for {todo.size} pixel(s) in {rounds} rounds"
        )
    np.maximum(result, 0.0, out=result)
    return result


def fcls_abundances(
    pixels: FloatArray,
    endmembers: FloatArray,
    ridge: float = 1e-10,
    max_iter: int | None = None,
) -> FloatArray:
    """Non-negative, sum-to-one abundances by Heinz–Chang → ``(n, k)``.

    Each round solves SCLS for every still-infeasible pixel over its active
    lanes and drops its most negative abundance, so a pixel converges in at
    most ``k − 1`` drops (:func:`_active_set_refine`).  A dropped lane is
    never re-admitted, so this is *not* always the fully constrained
    optimum: on the grid scene at 18 targets, 564, 698 and 1 892 of 6 144
    pixels (seeds 7, 0, 1) end with an inactive lane whose multiplier has
    the wrong sign.
    """
    pix, end = _validate(pixels, endmembers)
    rounds = max_iter if max_iter is not None else end.shape[0] + 1
    cross = pix @ end.T
    gram = end @ end.T
    result = _scls_from_cross(cross, _reg_inverse(gram, ridge))
    return _active_set_refine(result, cross, gram, ridge, rounds)


def reconstruction_error(
    pixels: FloatArray, endmembers: FloatArray, abundances: FloatArray
) -> FloatArray:
    """Per-pixel squared reconstruction error ``‖x − aᵀE‖²`` → ``(n,)``.

    This is the UFCLS 'error image' score: the pixel worst explained by
    the current target set becomes the next target.
    """
    pix, end = _validate(pixels, endmembers)
    ab = np.asarray(abundances, dtype=float)
    if ab.shape != (pix.shape[0], end.shape[0]):
        raise ShapeError(
            f"abundances shape {ab.shape} does not match "
            f"({pix.shape[0]}, {end.shape[0]})"
        )
    resid = pix - ab @ end
    return np.einsum("ij,ij->i", resid, resid)


class ScratchFCLS:
    """Reference UFCLS state: a from-scratch FCLS solve per error query.

    Presents the same ``add_target``/``error_image`` surface as
    :class:`IncrementalFCLS` (the ``fcls_solve`` registry protocol) but
    carries no cross-products or Gram inverse — every
    :meth:`error_image` call rebuilds the design matrix, solves
    :func:`fcls_abundances`, and forms the residual
    :func:`reconstruction_error` directly.  This is the rank-tolerant
    baseline: near-collinear target sets go through the one fully
    regularized solve instead of a bordering update plus guard, and the
    microbench verifies the incremental variant against the picks this
    one makes.  Batch-size independent, like the incremental state.
    """

    def __init__(self, pixels: FloatArray, ridge: float = 1e-10) -> None:
        pix = np.asarray(pixels, dtype=float)
        if pix.ndim == 1:
            pix = pix[None, :]
        if pix.ndim != 2:
            raise ShapeError(f"expected (n, bands), got {pix.shape}")
        self._pix = pix
        self._ridge = float(ridge)
        self._targets: list[FloatArray] = []

    @property
    def count(self) -> int:
        """Targets added so far."""
        return len(self._targets)

    def add_target(self, signature: FloatArray) -> None:
        """Append one target row (validated against the band count)."""
        sig = np.asarray(signature, dtype=float).reshape(-1)
        if sig.shape[0] != self._pix.shape[1]:
            raise ShapeError(
                f"signature has {sig.shape[0]} bands, "
                f"expected {self._pix.shape[1]}"
            )
        if not self._targets and float(sig @ sig) == 0.0:
            raise DataError("cannot add an all-zero first target")
        self._targets.append(sig)

    def abundances(self, max_iter: int | None = None) -> FloatArray:
        """FCLS abundances of every pixel against the current targets."""
        if not self._targets:
            raise DataError("need at least one endmember")
        end = np.vstack(self._targets)
        return fcls_abundances(self._pix, end, self._ridge, max_iter)

    def error_image(self, max_iter: int | None = None) -> FloatArray:
        """The UFCLS error image, formed from the explicit residual."""
        ab = self.abundances(max_iter)
        return reconstruction_error(self._pix, np.vstack(self._targets), ab)


class IncrementalFCLS:
    """Incremental UFCLS state: cross-products and the Gram inverse are
    carried across iterations as the target set grows one row at a time.

    Per added target this computes one ``pixels @ signature`` product
    (O(n·bands)) and a rank-1 *bordering* update of the regularized Gram
    inverse (O(t²)); the per-iteration FCLS error image is then solved
    entirely from cached cross-products — O(n·t²) instead of the
    from-scratch O(n·bands·t).  Because :func:`_reg_inverse` damps each
    diagonal entry independently of later additions, the bordered update
    inverts *exactly* the same matrix as the from-scratch path.

    Bypass: when the new target's Schur complement is not safely
    positive (a numerically dependent / near-collinear signature), the
    bordering update would amplify round-off, so the inverse is
    recomputed from scratch for that step instead.

    The per-pixel arithmetic is batch-size independent, so partitioned
    ranks reproduce a sequential pass bit-for-bit — the property the
    parallel/sequential equivalence tests pin.
    """

    #: Relative Schur-complement floor below which bordering falls back
    #: to a from-scratch inverse.
    SCHUR_GUARD = 1e-9

    def __init__(self, pixels: FloatArray, ridge: float = 1e-10) -> None:
        pix = np.asarray(pixels, dtype=float)
        if pix.ndim == 1:
            pix = pix[None, :]
        if pix.ndim != 2:
            raise ShapeError(f"expected (n, bands), got {pix.shape}")
        self._pix = pix
        self._ridge = float(ridge)
        self._total = np.einsum("ij,ij->i", pix, pix)
        self._end = np.empty((0, pix.shape[1]))
        self._cross = np.empty((pix.shape[0], 0))
        self._gram = np.empty((0, 0))
        self._minv = np.empty((0, 0))

    @property
    def count(self) -> int:
        """Targets added so far."""
        return self._end.shape[0]

    @property
    def gram_inverse(self) -> FloatArray:
        """The maintained inverse of the regularized Gram matrix."""
        return self._minv

    def add_target(self, signature: FloatArray) -> None:
        """Grow the target set by one signature (O(n·bands) + O(t²))."""
        sig = np.asarray(signature, dtype=float).reshape(-1)
        if sig.shape[0] != self._pix.shape[1]:
            raise ShapeError(
                f"signature has {sig.shape[0]} bands, "
                f"expected {self._pix.shape[1]}"
            )
        k = self.count
        b = self._end @ sig  # (k,) new Gram column
        c = float(sig @ sig)
        new_gram = np.empty((k + 1, k + 1))
        new_gram[:k, :k] = self._gram
        new_gram[:k, k] = b
        new_gram[k, :k] = b
        new_gram[k, k] = c
        damped_c = c + self._ridge * max(1.0, c)
        if k == 0:
            if damped_c == 0.0:
                raise DataError("cannot add an all-zero first target")
            minv = np.array([[1.0 / damped_c]])
        else:
            u = self._minv @ b
            schur = damped_c - float(b @ u)
            if schur <= self.SCHUR_GUARD * damped_c:
                # Bypass: near-collinear addition — bordering would
                # amplify round-off; rebuild the inverse from scratch.
                minv = _reg_inverse(new_gram, self._ridge)
            else:
                minv = np.empty((k + 1, k + 1))
                minv[:k, :k] = self._minv + np.outer(u, u) / schur
                minv[:k, k] = -u / schur
                minv[k, :k] = -u / schur
                minv[k, k] = 1.0 / schur
        self._gram = new_gram
        self._minv = minv
        self._end = np.vstack([self._end, sig[None, :]])
        self._cross = np.concatenate(
            [self._cross, (self._pix @ sig)[:, None]], axis=1
        )

    def abundances(self, max_iter: int | None = None) -> FloatArray:
        """FCLS abundances of every pixel against the current targets."""
        if self.count == 0:
            raise DataError("need at least one endmember")
        rounds = max_iter if max_iter is not None else self.count + 1
        result = _scls_from_cross(self._cross, self._minv)
        return _active_set_refine(
            result, self._cross, self._gram, self._ridge, rounds
        )

    def error_image(self, max_iter: int | None = None) -> FloatArray:
        """The UFCLS error image from cached products → ``(n,)``.

        Uses the expansion ``‖x − aᵀE‖² = ‖x‖² − 2a·(Ex) + aᵀGa`` so no
        O(n·bands) reconstruction is formed; clipped at zero to absorb
        the round-off the expansion admits where the residual vanishes.
        """
        ab = self.abundances(max_iter)
        err = (
            self._total
            - 2.0 * np.einsum("ij,ij->i", ab, self._cross)
            + np.einsum("ij,ij->i", ab @ self._gram, ab)
        )
        return np.maximum(err, 0.0)
