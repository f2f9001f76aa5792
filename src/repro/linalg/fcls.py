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
Across UFCLS iterations :class:`IncrementalFCLS` keeps each pixel's last
answer: a pixel whose first drop is the newest target takes that answer
instead of walking the refinement again.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, DataError, ShapeError
from repro.types import FloatArray, IntArray

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


def _affine_maps(inv: FloatArray) -> tuple[FloatArray, FloatArray]:
    """SCLS as an affine map per Gram inverse: ``a = c·P + o``.

    With ``g = G⁻¹·1`` the Lagrange solution ``c·G⁻¹ − (c·g − 1)·g/Σg`` is
    ``c·P + o`` for ``P = G⁻¹ − g·gᵀ/Σg`` and ``o = g/Σg``.  Takes one
    ``(q, q)`` inverse or a stack of them, turns ``inv`` into ``P`` in
    place and returns ``(P, o)``.
    """
    ginv_one = inv.sum(axis=-1)
    denom = ginv_one.sum(axis=-1, keepdims=True)
    if (np.abs(denom) < 1e-300).any():
        raise DataError("sum-to-one constraint is degenerate for these endmembers")
    offset = ginv_one / denom
    inv -= ginv_one[..., :, None] * offset[..., None, :]
    return inv, offset


def _each_row(rows: FloatArray, matrix: FloatArray) -> FloatArray:
    """``rows @ matrix`` as a stack of ``1 × k`` products.  One BLAS
    ``gemm`` over all rows rounds a row by where it falls in the call;
    a product per row rounds it the same whichever rows share the call."""
    return np.matmul(rows[:, None, :], matrix)[:, 0, :]


def _scls_from_cross(cross: FloatArray, ginv: FloatArray) -> FloatArray:
    """The closed-form SCLS solution from cross-products alone.

    ``cross`` is ``pixels @ endmembers.T`` (``(n, k)``) and ``ginv`` the
    (regularized) Gram inverse — everything the Lagrange formula needs,
    so callers that already hold these products skip the O(n·bands·k)
    design-matrix work entirely.
    """
    amap, offset = _affine_maps(ginv.copy())
    result = _each_row(cross, amap)
    result += offset
    return result


#: Bytes a block of ``q × q`` systems or a chunk of their pixels may take: 16 rank
#: threads hold each 16 times over; glibc maps 128 KiB and more afresh each time.
_ROUND_BYTES = 128 * 1024


def _not_converged(open_rows: int, rounds: int) -> ConvergenceError:
    """The error for ``open_rows`` pixels still infeasible after ``rounds``."""
    return ConvergenceError(
        f"FCLS failed to converge for {open_rows} pixel(s) in {rounds} rounds"
    )


def _active_set_refine(
    result: FloatArray,
    cross: FloatArray,
    gram: FloatArray,
    ridge: float,
    rounds: int,
    taken: IntArray | None = None,
) -> FloatArray:
    """Heinz–Chang active-set refinement on top of a full SCLS solve.

    A dropped lane never comes back, so in round ``r`` every open pixel has
    exactly ``q = k − 1 − r`` active lanes.  Each open pixel carries them
    as an int64 bit set, its key, which loses the dropped lane's bit, and
    carries its ``cross`` row at those lanes, which loses that column.  A
    round sorts the pixels by key once; the distinct keys are its masks,
    whose lanes are read back from their bits.  It inverts the damped Gram
    block of each mask at its lanes (a stack of ``q × q`` systems) and
    folds the sum-to-one correction into one affine map per mask,
    ``P = G⁻¹ − g·gᵀ/Σg`` and ``o = g/Σg`` with ``g = G⁻¹·1``, so a pixel's
    SCLS answer is ``c·P + o``: one gather, one batched matvec, one add.
    Masks, then their pixels, are taken ``_ROUND_BYTES`` worth at a time;
    each matrix is inverted and applied on its own, so a pixel's result
    depends on that pixel and its lanes, never on which pixels share the
    call or where a block ends.  Open rows are zeroed once and written, by
    flat index, in the round they become feasible.

    ``taken``, when given, holds the rounds each row has already used
    (rows a caller answered beforehand; zero elsewhere): a row this call
    refines gets the rounds it needed, and a row already past ``rounds``
    counts as not converged.  Mutates and returns ``result``, with all
    abundances non-negative.
    """
    k = result.shape[1]
    if k > 62:
        raise DataError(f"active masks are int64 keys: at most 62 endmembers, got {k}")
    todo = np.flatnonzero((result < -1e-12).any(axis=1))
    bit = np.left_shift(1, np.arange(k, dtype=np.int64))
    keys = np.full(todo.size, (1 << k) - 1, dtype=np.int64)
    c = cross[todo]
    # Round 0 already solved the all-active case; record first drops.
    drop = np.argmin(result[todo], axis=1)
    result[todo] = 0.0
    keys -= bit[drop]
    damped = _damped(gram, ridge)
    src = np.arange(todo.size)  # each open pixel's row of ``c``
    for r in range(rounds):
        m = todo.size
        if m == 0:
            break
        q = c.shape[1] - 1
        if q == 0:
            raise ConvergenceError("FCLS active-set iteration emptied an active set")
        order = np.argsort(keys)
        keys, todo, drop, src = keys[order], todo[order], drop[order], src[order]
        # Row ``d`` of ``skip`` lists the columns kept when column ``d`` drops.
        skip = np.arange(q) + (np.arange(q) >= np.arange(q + 1)[:, None])
        at = skip[drop]
        at += (src * (q + 1))[:, None]
        c = c.take(at)
        opens = np.concatenate(([True], keys[1:] != keys[:-1]))
        first, group = np.flatnonzero(opens), np.cumsum(opens) - 1
        lanes = np.nonzero(keys[first, None] & bit)[1].reshape(first.size, q)
        step = max(1, _ROUND_BYTES // (8 * q * q))
        sub = np.empty((m, q))
        for g in range(0, first.size, step):
            ml = lanes[g:g + step]
            amap, offset = _affine_maps(
                np.linalg.inv(damped[ml[:, :, None], ml[:, None, :]])
            )
            # Pixels are sorted by mask: masks g:g+step own one run of them.
            start = first[g]
            stop = first[g + step] if g + step < first.size else m
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                local = group[lo:hi] - g
                np.matmul(c[lo:hi, None, :], amap[local], out=sub[lo:hi, None, :])
                sub[lo:hi] += offset[local]
        drop = sub.argmin(axis=1)
        done = ~(sub.take(np.arange(m) * q + drop) < -1e-12)
        rows = todo[done]
        result.put(rows[:, None] * k + lanes[group[done]], sub[done])
        if taken is not None:
            taken[rows] = r + 1
        src = np.flatnonzero(~done)
        todo, keys, drop = todo[src], keys[src], drop[src]
        keys -= bit[lanes.take(group[src] * q + drop)]
    failed = todo.size
    if taken is not None:
        failed += int(np.count_nonzero(taken > rounds))
    if failed:
        raise _not_converged(failed, rounds)
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
    """Incremental UFCLS state: cross-products, the Gram inverse and each
    pixel's last answer are carried across iterations as the target set
    grows one row at a time.

    Per added target this computes one ``pixels · signature`` column
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

    Kept answers: a pixel whose all-lanes SCLS solve at ``t`` targets is
    infeasible with its most negative abundance on the newest target
    drops that lane first, which leaves exactly the ``t − 1`` lanes, cross
    products and damped Gram block it had at ``t − 1`` targets; from there
    Heinz–Chang walks the path it walked then.  So the state keeps each
    pixel's answer and round count at the last solved count, gives such a
    pixel that answer (newest lane 0) and ``1 +`` its rounds, and refines
    only the others (28–33 % of all pixel-rounds on the grid scene are
    skipped this way).  The answer at ``t`` is thus defined from the one
    at ``t − 1``, so a state that was not asked at ``t − 1`` (targets
    replayed on a checkpoint resume or a repartition) first solves the
    counts it skipped, from the bordered inverse kept for every count:
    answers depend on the target sequence only, never on which counts
    were asked.  Memory: one ``(n, t)`` answer, ``n`` round counts and
    ``t`` inverses of ``1² … t²`` entries.

    The per-pixel arithmetic is batch-size independent, so partitioned
    ranks reproduce a sequential pass bit-for-bit: every product a row
    enters is taken row by row (an ``einsum`` for the new cross column,
    :func:`_each_row` for the SCLS map and ``a·G``), since one BLAS call
    over all rows rounds a row by where it falls in the call.
    ``test_incremental_rows_depend_on_nothing_but_themselves`` pins it.
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
        #: The bordered inverse at every count, 1 … ``count``.
        self._minvs: list[FloatArray] = []
        #: Each pixel's answer at the last solved count, and its rounds.
        self._kept = np.empty((pix.shape[0], 0))
        self._taken = np.zeros(pix.shape[0], dtype=np.intp)

    @property
    def count(self) -> int:
        """Targets added so far."""
        return self._end.shape[0]

    @property
    def gram_inverse(self) -> FloatArray:
        """The maintained inverse of the regularized Gram matrix."""
        return self._minvs[-1] if self._minvs else np.empty((0, 0))

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
            u = self.gram_inverse @ b
            schur = damped_c - float(b @ u)
            if schur <= self.SCHUR_GUARD * damped_c:
                # Bypass: near-collinear addition — bordering would
                # amplify round-off; rebuild the inverse from scratch.
                minv = _reg_inverse(new_gram, self._ridge)
            else:
                minv = np.empty((k + 1, k + 1))
                minv[:k, :k] = self.gram_inverse + np.outer(u, u) / schur
                minv[:k, k] = -u / schur
                minv[k, :k] = -u / schur
                minv[k, k] = 1.0 / schur
        self._gram = new_gram
        self._minvs.append(minv)
        self._end = np.vstack([self._end, sig[None, :]])
        self._cross = np.concatenate(
            [self._cross, np.einsum("ij,j->i", self._pix, sig)[:, None]], axis=1
        )

    def _solve(self, count: int, max_iter: int | None) -> tuple[FloatArray, IntArray]:
        """The answer and rounds at ``count`` targets, from the kept ones
        at ``count − 1``."""
        cross = np.ascontiguousarray(self._cross[:, :count])
        gram = self._gram[:count, :count]
        result = _scls_from_cross(cross, self._minvs[count - 1])
        taken = np.zeros(result.shape[0], dtype=np.intp)
        open_rows = np.flatnonzero((result < -1e-12).any(axis=1))
        reuse = open_rows[np.argmin(result[open_rows], axis=1) == count - 1]
        result[reuse, :-1] = self._kept[reuse]
        result[reuse, -1] = 0.0
        taken[reuse] = self._taken[reuse] + 1
        rounds = max_iter if max_iter is not None else count + 1
        _active_set_refine(result, cross, gram, self._ridge, rounds, taken)
        return result, taken

    def _answer(self, max_iter: int | None) -> FloatArray:
        """The kept answer at the current count, solved if need be."""
        if self.count == 0:
            raise DataError("need at least one endmember")
        # Targets replayed without an answer: solve the counts skipped.
        for count in range(self._kept.shape[1] + 1, self.count):
            self._kept, self._taken = self._solve(count, None)
        if self._kept.shape[1] < self.count:
            self._kept, self._taken = self._solve(self.count, max_iter)
        elif max_iter is not None:
            # Asked again: the kept answer, under this round limit.
            failed = int(np.count_nonzero(self._taken > max_iter))
            if failed:
                raise _not_converged(failed, max_iter)
        return self._kept

    def abundances(self, max_iter: int | None = None) -> FloatArray:
        """FCLS abundances of every pixel against the current targets."""
        return self._answer(max_iter).copy()

    def error_image(self, max_iter: int | None = None) -> FloatArray:
        """The UFCLS error image from cached products → ``(n,)``.

        Uses the expansion ``‖x − aᵀE‖² = ‖x‖² − 2a·(Ex) + aᵀGa`` so no
        O(n·bands) reconstruction is formed; clipped at zero to absorb
        the round-off the expansion admits where the residual vanishes.
        """
        ab = self._answer(max_iter)
        err = (
            self._total
            - 2.0 * np.einsum("ij,ij->i", ab, self._cross)
            + np.einsum("ij,ij->i", _each_row(ab, self._gram), ab)
        )
        return np.maximum(err, 0.0)
