"""Tests for the constrained unmixing solvers."""

import copy
import dataclasses
import functools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ufcls import ufcls_pixels
from repro.errors import ConvergenceError, DataError, ShapeError
from repro.experiments.config import ExperimentConfig
from repro.hsi import SceneConfig, make_wtc_scene
from repro.linalg import fcls
from repro.linalg.fcls import fcls_abundances, reconstruction_error


@pytest.fixture()
def endmembers(rng):
    # Well-separated random endmembers.
    return rng.random((4, 16)) + np.eye(4, 16) * 2.0


class TestFCLS:
    def test_constraints_hold(self, rng, endmembers):
        pixels = rng.random((50, 16)) * 3.0
        est = fcls_abundances(pixels, endmembers)
        assert est.min() >= 0.0
        assert np.allclose(est.sum(axis=1), 1.0, atol=1e-8)

    def test_recovers_simplex_mixture_exactly(self, rng, endmembers):
        truth = rng.random((20, 4))
        truth /= truth.sum(axis=1, keepdims=True)
        pixels = truth @ endmembers
        est = fcls_abundances(pixels, endmembers)
        assert np.allclose(est, truth, atol=1e-6)

    def test_pure_pixel_gets_unit_abundance(self, endmembers):
        est = fcls_abundances(endmembers[1], endmembers)
        assert est[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert est[0].sum() == pytest.approx(1.0)

    def test_matches_scipy_nnls_direction(self, rng, endmembers):
        # For pixels needing clipping, FCLS error should be within a
        # small factor of the (differently-constrained) NNLS error.
        pixels = rng.random((5, 16))
        f = fcls_abundances(pixels, endmembers)
        n = np.array([scipy.optimize.nnls(endmembers.T, pix)[0] for pix in pixels])
        err_f = reconstruction_error(pixels, endmembers, f)
        err_n = reconstruction_error(pixels, endmembers, n)
        assert np.all(err_f >= err_n - 1e-9)  # FCLS is more constrained

    def test_single_endmember(self, rng):
        end = rng.random((1, 8)) + 0.1
        est = fcls_abundances(rng.random((5, 8)), end)
        assert np.allclose(est, 1.0)

    def test_empty_endmembers_rejected(self, rng):
        with pytest.raises(DataError):
            fcls_abundances(rng.random((2, 4)), np.empty((0, 4)))

    def test_more_endmembers_than_a_mask_key_holds_rejected(self, rng):
        with pytest.raises(DataError, match="at most 62"):
            fcls_abundances(rng.random((4, 80)), rng.random((63, 80)))

    def test_running_out_of_rounds_raises(self):
        # SCLS gives (-1, -0.5, 2.5): the pixel has to drop the first
        # endmember, then the second.
        pixel = np.array([-1.0, -0.5, 2.5])
        assert np.allclose(fcls_abundances(pixel, np.eye(3)), [0.0, 0.0, 1.0])
        with pytest.raises(ConvergenceError, match="1 pixel"):
            fcls_abundances(pixel, np.eye(3), max_iter=1)

    def test_degenerate_sum_to_one_of_a_sub_mask_raises(self):
        # 1ᵀG⁻¹1 is 1.8e-300 over both endmembers and 0.9e-300, below the
        # solver's floor, once the pixel has dropped the first.
        end = np.eye(2) * np.sqrt(1.0 / 0.9e-300)
        pixel = -1.0 * end[0] + 2.0 * end[1]
        with pytest.raises(DataError, match="degenerate"):
            fcls_abundances(pixel, end, ridge=0.0)


class TestReconstructionError:
    def test_zero_for_exact(self, rng, endmembers):
        truth = rng.random((5, 4))
        truth /= truth.sum(axis=1, keepdims=True)
        pixels = truth @ endmembers
        err = reconstruction_error(pixels, endmembers, truth)
        assert np.allclose(err, 0.0, atol=1e-12)

    def test_shape_checked(self, rng, endmembers):
        with pytest.raises(ShapeError):
            reconstruction_error(
                rng.random((5, 16)), endmembers, rng.random((4, 4))
            )


@settings(max_examples=30, deadline=None)
@given(
    n_end=st.integers(min_value=1, max_value=5),
    bands=st.integers(min_value=6, max_value=20),
    n_pixels=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fcls_constraints_property(n_end, bands, n_pixels, seed):
    """FCLS output always satisfies both constraints, for any input."""
    rng = np.random.default_rng(seed)
    endmembers = rng.random((n_end, bands)) + 0.05
    pixels = rng.random((n_pixels, bands)) * rng.uniform(0.1, 5.0)
    est = fcls_abundances(pixels, endmembers)
    assert est.min() >= -1e-12
    assert np.allclose(est.sum(axis=1), 1.0, atol=1e-7)


@settings(max_examples=30, deadline=None)
@given(
    n_end=st.integers(min_value=2, max_value=18),
    blocks=st.sampled_from([0, 1, 3]),
    spill=st.integers(min_value=2, max_value=9),
    duplicate=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(n_end=18, blocks=3, spill=2, duplicate=True, seed=0)
@example(n_end=2, blocks=3, spill=2, duplicate=False, seed=0)
@example(n_end=3, blocks=3, spill=2, duplicate=False, seed=1)
def test_fcls_pixel_depends_on_nothing_but_itself(
    n_end, blocks, spill, duplicate, seed
):
    """Solving a subset gives the rows the full solve gives, to the bit:
    which pixels share the call, their order, and where the byte budget
    cuts a round into blocks all leave a pixel's abundances alone.

    Subsets hold two pixels or more: for a single row BLAS takes its
    matrix-vector path in ``pixels @ endmembers.T``, before the solver
    sees anything, and rounds that product differently."""
    rng = np.random.default_rng(seed)
    # The first refinement round's systems have n_end - 1 lanes.
    block = fcls._ROUND_BYTES // (8 * (n_end - 1) ** 2)
    n_pixels = blocks * block + spill
    endmembers = rng.random((n_end, 24)) + 0.05
    if duplicate:
        endmembers[-1] = endmembers[0]
    pixels = rng.random((n_pixels, 24)) * rng.uniform(0.1, 5.0)
    idx = rng.permutation(n_pixels)[: rng.integers(2, n_pixels + 1)]
    full = fcls_abundances(pixels, endmembers)
    assert np.array_equal(full[idx], fcls_abundances(pixels[idx], endmembers))


def _per_mask_loop_refine(result, cross, gram, ridge, rounds, open_after=None):
    """The kernel ``_active_set_refine`` replaced, verbatim: one SCLS per
    distinct active mask per round, in a Python loop.  The oracle.
    ``open_after``, when given, gets the open-pixel count of each round."""
    n, k = result.shape
    bad = np.flatnonzero((result < -1e-12).any(axis=1))
    if bad.size == 0:
        np.maximum(result, 0.0, out=result)
        return result

    active = np.ones((n, k), dtype=bool)
    # Round 0 already solved the all-active case; record first drops.
    worst = np.argmin(result[bad], axis=1)
    active[bad, worst] = False
    todo = bad

    for _ in range(rounds):
        if todo.size == 0:
            break
        masks, inverse = np.unique(active[todo], axis=0, return_inverse=True)
        next_todo: list[np.ndarray] = []
        for m_idx in range(masks.shape[0]):
            mask = masks[m_idx]
            rows = todo[inverse == m_idx]
            live = np.flatnonzero(mask)
            if live.size == 0:
                raise ConvergenceError(
                    "FCLS active-set iteration emptied an active set"
                )
            sub_cross = cross[rows[:, None], live[None, :]]
            sub_ginv = fcls._reg_inverse(gram[live[:, None], live[None, :]], ridge)
            sub = fcls._scls_from_cross(sub_cross, sub_ginv)
            feasible = ~(sub < -1e-12).any(axis=1)
            done_rows = rows[feasible]
            if done_rows.size:
                result[done_rows] = 0.0
                result[done_rows[:, None], live[None, :]] = np.maximum(
                    sub[feasible], 0.0
                )
            bad_rows = rows[~feasible]
            if bad_rows.size:
                worst_local = np.argmin(sub[~feasible], axis=1)
                active[bad_rows, live[worst_local]] = False
                next_todo.append(bad_rows)
        todo = (
            np.concatenate(next_todo) if next_todo else np.empty(0, dtype=np.int64)
        )
        if open_after is not None:
            open_after.append(todo.size)
    if todo.size:
        raise ConvergenceError(
            f"FCLS failed to converge for {todo.size} pixel(s) in "
            f"{rounds} rounds"
        )
    np.maximum(result, 0.0, out=result)
    return result


class TestAgainstPerMaskLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_scene_picks_and_abundances(self, seed, monkeypatch):
        config = dataclasses.replace(ExperimentConfig().grid_scene, seed=seed)
        pixels = make_wtc_scene(config).image.flatten_pixels()
        picks = ufcls_pixels(pixels, 18).flat_indices
        abundances = fcls_abundances(pixels, pixels[picks[:-1]])
        monkeypatch.setattr(fcls, "_active_set_refine", _per_mask_loop_refine)
        # The stateless variant: every iteration's picks come from the
        # per-mask loop run from round 0, never from a kept answer.
        reference = ufcls_pixels(pixels, 18, fcls_variant="reference")
        assert np.array_equal(reference.flat_indices, picks)
        oracle = fcls_abundances(pixels, pixels[picks[:-1]])
        assert np.abs(abundances - oracle).max() < 1e-9

    def test_one_mask_per_pixel(self, monkeypatch):
        # 30 targets over 512 pixels: nearly every open pixel has a mask
        # of its own, so the rounds cut the *masks* into blocks too.
        rng = np.random.default_rng(30)
        pixels = rng.random((512, 48))
        endmembers = pixels[:30] + 0.01 * rng.random((30, 48))
        abundances = fcls_abundances(pixels, endmembers)
        monkeypatch.setattr(fcls, "_active_set_refine", _per_mask_loop_refine)
        oracle = fcls_abundances(pixels, endmembers)
        assert np.abs(abundances - oracle).max() < 1e-9

    def test_every_round_drops_exactly_one_lane(self, monkeypatch):
        # Given max_iter rounds, the kernel and the oracle leave the same
        # number of pixels open, for every max_iter, on the case above.
        rng = np.random.default_rng(30)
        pixels = rng.random((512, 48))
        endmembers = pixels[:30] + 0.01 * rng.random((30, 48))

        def outcome(max_iter):
            try:
                fcls_abundances(pixels, endmembers, max_iter=max_iter)
            except ConvergenceError as exc:
                return str(exc)
            return None

        kernel = [outcome(r) for r in range(1, 31)]
        # One oracle run: the error after r rounds names the pixels still
        # open after round r, so its per-round counts give all 30 outcomes.
        counts = []
        monkeypatch.setattr(
            fcls, "_active_set_refine",
            functools.partial(_per_mask_loop_refine, open_after=counts),
        )
        fcls_abundances(pixels, endmembers, max_iter=30)
        counts += [0] * (30 - len(counts))
        oracle = [
            f"FCLS failed to converge for {n} pixel(s) in {r} rounds" if n else None
            for r, n in enumerate(counts, start=1)
        ]
        assert oracle == kernel
        assert kernel[0] is not None and kernel[-1] is None


@pytest.fixture(scope="module")
def grid_share():
    """768 pixels of a small grid scene and its 12 UFCLS targets, in order."""
    pixels = make_wtc_scene(
        SceneConfig(rows=48, cols=16, bands=24, seed=7)
    ).image.flatten_pixels()
    return pixels, pixels[ufcls_pixels(pixels, 12).flat_indices]


def _solved_every_step(pixels, targets):
    state = fcls.IncrementalFCLS(pixels)
    for signature in targets:
        state.add_target(signature)
        state.error_image()
    return state


class TestKeptAnswers:
    def test_replayed_targets_solve_the_counts_they_skipped(self, grid_share):
        # A checkpoint resume or a repartition adds targets without asking
        # for answers; the state must still answer as one that asked at
        # every count, since its answer at t is built on the one at t - 1.
        pixels, targets = grid_share
        live = _solved_every_step(pixels, targets)
        for asked_at in (None, 4):
            replayed = fcls.IncrementalFCLS(pixels)
            for count, signature in enumerate(targets, start=1):
                replayed.add_target(signature)
                if count == asked_at:
                    replayed.error_image()
            assert np.array_equal(replayed.abundances(), live.abundances())
            assert np.array_equal(replayed.error_image(), live.error_image())

    def test_round_limit_fails_the_pixels_the_reference_fails(self, grid_share):
        # A kept answer costs its pixel 1 + the rounds it took before, so
        # every max_iter fails on as many pixels as a from-scratch solve.
        pixels, targets = grid_share
        state = _solved_every_step(pixels, targets[:-1])
        state.add_target(targets[-1])
        reference = fcls.ScratchFCLS(pixels)
        for signature in targets:
            reference.add_target(signature)

        def outcome(solver, max_iter):
            try:
                solver.abundances(max_iter)
            except ConvergenceError as exc:
                return str(exc)
            return None

        limits = range(1, len(targets) + 1)
        expected = [outcome(reference, r) for r in limits]
        assert [outcome(copy.deepcopy(state), r) for r in limits] == expected
        # Asked again at the same count: the kept answer, the same limits.
        state.abundances()
        assert [outcome(state, r) for r in limits] == expected
        assert expected[0] is not None and expected[-1] is None

    def test_pixels_that_drop_the_newest_target_first_skip_refinement(
        self, grid_share, monkeypatch
    ):
        pixels, targets = grid_share
        solve, refine = fcls._scls_from_cross, fcls._active_set_refine
        open_after_round_0, refined = [], []

        def counting_solve(cross, ginv):
            result = solve(cross, ginv)
            open_after_round_0.append(int((result < -1e-12).any(axis=1).sum()))
            return result

        def counting_refine(result, *args):
            refined.append(int((result < -1e-12).any(axis=1).sum()))
            return refine(result, *args)

        monkeypatch.setattr(fcls, "_scls_from_cross", counting_solve)
        monkeypatch.setattr(fcls, "_active_set_refine", counting_refine)
        _solved_every_step(pixels, targets)
        assert sum(refined) < sum(open_after_round_0)


@settings(max_examples=30, deadline=None)
@given(
    n_end=st.integers(min_value=2, max_value=18),
    n_pixels=st.integers(min_value=4, max_value=200),
    duplicate=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(n_end=18, n_pixels=200, duplicate=True, seed=0)
# One ``gemm`` over the 16 rows of this case rounds a row of ``a @ G``
# differently from one over its share.
@example(n_end=18, n_pixels=16, duplicate=False, seed=1)
def test_incremental_rows_depend_on_nothing_but_themselves(
    n_end, n_pixels, duplicate, seed
):
    """States over row slices give the full-frame state's error-image rows,
    to the bit, at every count: kept answers are per pixel, and every
    product a row enters is taken row by row, so how the frame is cut into
    shares leaves them alone.  Slices hold two rows or more, as in the
    batch property above."""
    rng = np.random.default_rng(seed)
    endmembers = rng.random((n_end, 24)) + 0.05
    if duplicate:
        endmembers[-1] = endmembers[0]
    pixels = rng.random((n_pixels, 24)) * rng.uniform(0.1, 5.0)
    cut = int(rng.integers(2, n_pixels - 1))
    bounds = [(0, cut), (cut, n_pixels)]
    full = fcls.IncrementalFCLS(pixels)
    shares = [fcls.IncrementalFCLS(pixels[lo:hi]) for lo, hi in bounds]
    for signature in endmembers:
        full.add_target(signature)
        error = full.error_image()
        for (lo, hi), share in zip(bounds, shares):
            share.add_target(signature)
            assert np.array_equal(share.error_image(), error[lo:hi])
