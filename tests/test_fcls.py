"""Tests for the constrained unmixing solvers."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError, ShapeError
from repro.linalg.fcls import (
    fcls_abundances,
    ls_abundances,
    reconstruction_error,
    scls_abundances,
)


@pytest.fixture()
def endmembers(rng):
    # Well-separated random endmembers.
    return rng.random((4, 16)) + np.eye(4, 16) * 2.0


class TestLS:
    def test_recovers_exact_mixture(self, rng, endmembers):
        truth = rng.random((10, 4))
        pixels = truth @ endmembers
        est = ls_abundances(pixels, endmembers)
        assert np.allclose(est, truth, atol=1e-8)

    def test_band_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            ls_abundances(rng.random((2, 8)), rng.random((3, 9)))


class TestSCLS:
    def test_sum_to_one(self, rng, endmembers):
        pixels = rng.random((25, 16))
        est = scls_abundances(pixels, endmembers)
        assert np.allclose(est.sum(axis=1), 1.0, atol=1e-9)

    def test_recovers_simplex_mixture(self, rng, endmembers):
        truth = rng.random((10, 4))
        truth /= truth.sum(axis=1, keepdims=True)
        pixels = truth @ endmembers
        est = scls_abundances(pixels, endmembers)
        assert np.allclose(est, truth, atol=1e-7)


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
