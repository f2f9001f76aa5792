"""Tests for the PCT building blocks."""

import numpy as np
import pytest

from repro.errors import DataError, ShapeError
from repro.linalg.pca import (
    apply_pct,
    combine_covariance_sums,
    covariance_matrix,
    mean_vector,
    partial_covariance_sums,
    pct_transform,
)


class TestStatistics:
    def test_mean(self, rng):
        pix = rng.random((100, 6))
        assert np.allclose(mean_vector(pix), pix.mean(axis=0))

    def test_covariance_matches_numpy(self, rng):
        pix = rng.random((200, 5))
        ours = covariance_matrix(pix)
        reference = np.cov(pix.T, bias=True)
        assert np.allclose(ours, reference, atol=1e-10)

    def test_partial_sums_combine_to_direct(self, rng):
        pix = rng.random((90, 7))
        parts = [
            partial_covariance_sums(pix[:30]),
            partial_covariance_sums(pix[30:50]),
            partial_covariance_sums(pix[50:]),
        ]
        mean, cov = combine_covariance_sums(parts)
        assert np.allclose(mean, mean_vector(pix), atol=1e-10)
        assert np.allclose(cov, covariance_matrix(pix), atol=1e-9)

    def test_empty_parts_rejected(self):
        with pytest.raises(DataError):
            combine_covariance_sums([])

    def test_zero_pixels_rejected(self, rng):
        with pytest.raises(DataError):
            mean_vector(np.empty((0, 4)))


class TestTransform:
    def test_rows_orthonormal(self, rng):
        cov = covariance_matrix(rng.random((100, 8)))
        t, _ = pct_transform(cov)
        assert np.allclose(t @ t.T, np.eye(8), atol=1e-9)

    def test_eigenvalues_descending(self, rng):
        cov = covariance_matrix(rng.random((100, 8)))
        _, vals = pct_transform(cov)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_first_component_captures_planted_direction(self, rng):
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        pix = rng.standard_normal((500, 1)) * 10 @ direction[None, :]
        pix += rng.standard_normal((500, 4)) * 0.01
        t, _ = pct_transform(covariance_matrix(pix), n_components=1)
        assert abs(t[0] @ direction) == pytest.approx(1.0, abs=1e-3)

    def test_sign_convention_deterministic(self, rng):
        pix = rng.random((60, 5))
        cov_a = covariance_matrix(pix)
        mean, cov_b = combine_covariance_sums([partial_covariance_sums(pix)])
        ta, _ = pct_transform(cov_a)
        tb, _ = pct_transform(cov_b)
        assert np.allclose(ta, tb, atol=1e-6)

    def test_bad_n_components_rejected(self, rng):
        cov = covariance_matrix(rng.random((20, 4)))
        with pytest.raises(DataError):
            pct_transform(cov, n_components=5)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(DataError):
            pct_transform(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("parallel", [False, True])
    def test_nan_pixel_is_named_as_the_cause(self, parallel, tiny_platform):
        from repro.core import pct_classify
        from repro.core.runner import run_parallel
        from repro.hsi import HyperspectralImage, SceneConfig, make_wtc_scene

        scene = make_wtc_scene(SceneConfig(rows=48, cols=8, bands=16, seed=7))
        values = np.array(scene.image.values, copy=True)
        values[5, 3, 2] = np.nan
        image = HyperspectralImage(values)
        # Sequential PCT meets the NaN in its covariance; run_parallel
        # names the pixel (flat 5 * 8 + 3) before any rank launches.
        cause = "pixel 43, band 2 is nan" if parallel else "non-finite"
        with pytest.raises(DataError, match=cause):
            if parallel:
                run_parallel("pct", image, tiny_platform)
            else:
                pct_classify(image, 8)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            pct_transform(np.ones((2, 3)))


class TestApply:
    def test_projection_shape(self, rng):
        pix = rng.random((50, 6))
        mean = mean_vector(pix)
        t, _ = pct_transform(covariance_matrix(pix), n_components=3)
        reduced = apply_pct(pix, mean, t)
        assert reduced.shape == (50, 3)

    def test_full_transform_preserves_distances(self, rng):
        pix = rng.random((30, 5))
        mean = mean_vector(pix)
        t, _ = pct_transform(covariance_matrix(pix))
        reduced = apply_pct(pix, mean, t)
        d_orig = np.linalg.norm(pix[0] - pix[1])
        d_red = np.linalg.norm(reduced[0] - reduced[1])
        assert d_red == pytest.approx(d_orig, rel=1e-9)

    def test_reduced_space_decorrelated(self, rng):
        pix = rng.random((300, 6)) @ rng.random((6, 6))
        mean = mean_vector(pix)
        t, _ = pct_transform(covariance_matrix(pix))
        reduced = apply_pct(pix, mean, t)
        cov_red = covariance_matrix(reduced)
        off_diag = cov_red[~np.eye(6, dtype=bool)]
        assert np.allclose(off_diag, 0.0, atol=1e-8)
