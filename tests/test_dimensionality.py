"""Tests for the HFC/NWHFC virtual dimensionality estimators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.hsi.dimensionality import (
    estimate_noise_covariance,
    hfc_virtual_dimensionality,
)


def mixture_data(rng, n_sources, n_pixels=6000, bands=24, noise=0.005):
    """Linear mixtures of ``n_sources`` random positive endmembers."""
    endmembers = rng.random((n_sources, bands)) + 0.2
    abundances = rng.dirichlet(np.ones(n_sources), size=n_pixels)
    return abundances @ endmembers + rng.normal(0, noise, (n_pixels, bands))


class TestHFC:
    def test_pure_noise_gives_zero(self, rng):
        data = rng.normal(0, 1, (8000, 20))
        assert hfc_virtual_dimensionality(data).vd == 0

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_recovers_source_count(self, rng, k):
        data = mixture_data(rng, k)
        vd = hfc_virtual_dimensionality(data).vd
        # HFC resolves well-separated random sources to within ~1.
        assert abs(vd - k) <= 1, (vd, k)

    def test_monotone_in_pfa(self, rng):
        data = mixture_data(rng, 5, noise=0.05)
        strict = hfc_virtual_dimensionality(data, p_fa=1e-6).vd
        loose = hfc_virtual_dimensionality(data, p_fa=1e-2).vd
        assert strict <= loose

    def test_scene_dimensionality_reasonable(self, default_scene):
        # The scene mixes 12 materials + 7 fires; HFC typically resolves
        # the well-separated subset.
        result = hfc_virtual_dimensionality(default_scene.image)
        assert 8 <= result.vd <= 25

    def test_decisions_align_with_vd(self, rng):
        result = hfc_virtual_dimensionality(mixture_data(rng, 3))
        assert result.decisions.sum() == result.vd

    @pytest.mark.parametrize(
        "p_fa, quantile",
        [(1e-3, 3.090232306167813), (1e-4, 3.7190164854556804)],
    )
    def test_threshold_is_the_normal_quantile(self, rng, p_fa, quantile):
        data = mixture_data(rng, 3)
        result = hfc_virtual_dimensionality(data, p_fa=p_fa)
        sigma = np.sqrt(
            2.0 * (result.correlation_eigenvalues**2
                   + result.covariance_eigenvalues**2) / len(data)
        )
        assert result.thresholds == pytest.approx(quantile * sigma, rel=1e-12)

    def test_bad_pfa_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            hfc_virtual_dimensionality(rng.random((100, 4)), p_fa=0.9)

    def test_too_few_pixels_rejected(self, rng):
        with pytest.raises(DataError):
            hfc_virtual_dimensionality(rng.random((10, 20)))


class TestNoiseEstimate:
    def test_recovers_diagonal_noise(self, rng):
        sigma = np.array([0.01, 0.05, 0.02])
        cube = np.ones((80, 80, 3)) + rng.normal(0, 1, (80, 80, 3)) * sigma
        est = estimate_noise_covariance(cube)
        assert np.allclose(np.sqrt(np.diag(est)), sigma, rtol=0.15)

    def test_smooth_signal_cancelled(self, rng):
        # Strong smooth gradient + small noise: estimate sees the noise.
        gradient = np.linspace(0, 10, 100)[:, None, None] * np.ones((1, 50, 2))
        cube = gradient + rng.normal(0, 0.01, (100, 50, 2))
        est = estimate_noise_covariance(cube)
        assert np.sqrt(est[0, 0]) < 0.1  # nowhere near the signal range
