"""Tests for the sequential reference algorithms (ATDCA, UFCLS, PCT,
MORPH) on crafted inputs and the synthetic WTC scene."""

import numpy as np
import pytest

from repro.core.atdca import atdca, atdca_pixels
from repro.core.morph import morph_classify
from repro.core.pct import pct_classify, pct_classify_pixels
from repro.core.ufcls import fcls_error_image, ufcls, ufcls_pixels
from repro.errors import ConfigurationError, DataError, ShapeError
from repro.hsi import HyperspectralImage, match_targets, score_classification
from repro.hsi.metrics import sad


def planted_pixels(rng, n_background=200, bands=12):
    """Background cluster + 3 mutually orthogonal bright targets."""
    background = rng.random((n_background, bands)) * 0.2 + 0.4
    targets = np.zeros((3, bands))
    targets[0, 0] = 5.0
    targets[1, 1] = 4.0
    targets[2, 2] = 3.0
    pixels = np.vstack([background, targets])
    return pixels, np.arange(n_background, n_background + 3)


class TestATDCA:
    def test_finds_planted_targets(self, rng):
        pixels, target_idx = planted_pixels(rng)
        result = atdca_pixels(pixels, 3)
        assert set(result.flat_indices) == set(target_idx)

    def test_first_target_is_brightest(self, rng):
        pixels, target_idx = planted_pixels(rng)
        result = atdca_pixels(pixels, 1)
        assert result.flat_indices[0] == target_idx[0]

    def test_no_duplicate_targets(self, rng):
        pixels, _ = planted_pixels(rng)
        result = atdca_pixels(pixels, 8)
        assert len(set(result.flat_indices)) == 8

    def test_deterministic(self, rng):
        pixels, _ = planted_pixels(rng)
        a = atdca_pixels(pixels, 5)
        b = atdca_pixels(pixels, 5)
        assert np.array_equal(a.flat_indices, b.flat_indices)

    def test_positions_from_image(self, rng):
        cube = rng.random((6, 7, 5))
        cube[3, 2] *= 20.0
        result = atdca(HyperspectralImage(cube), 1)
        assert tuple(result.positions[0]) == (3, 2)

    def test_too_many_targets_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            atdca_pixels(rng.random((5, 4)), 10)

    def test_bad_shape_rejected(self, rng):
        with pytest.raises(ShapeError):
            atdca_pixels(rng.random(10), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, rng, value):
        pixels, _ = planted_pixels(rng)
        pixels[17, 5] = value
        pixels[40, 2] = value
        with pytest.raises(DataError, match="pixel 17, band 5"):
            atdca_pixels(pixels, 3)

    def test_scene_detects_all_hotspots(self, default_scene):
        result = atdca(default_scene.image, 18)
        matches = match_targets(
            result.signatures, default_scene.truth.target_signatures()
        )
        assert all(m["sad"] < 0.01 for m in matches.values())


class TestUFCLS:
    def test_finds_planted_targets(self, rng):
        pixels, target_idx = planted_pixels(rng)
        result = ufcls_pixels(pixels, 3)
        assert set(result.flat_indices) == set(target_idx)

    def test_error_image_zero_at_targets(self, rng):
        pixels, _ = planted_pixels(rng)
        targets = pixels[[200, 201]]
        err = fcls_error_image(pixels, targets)
        assert err[200] == pytest.approx(0.0, abs=1e-9)
        assert err[201] == pytest.approx(0.0, abs=1e-9)

    def test_shares_seed_with_atdca(self, rng):
        pixels, _ = planted_pixels(rng)
        a = atdca_pixels(pixels, 1)
        u = ufcls_pixels(pixels, 1)
        assert a.flat_indices[0] == u.flat_indices[0]

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_pixel_rejected(self, rng, value):
        pixels, _ = planted_pixels(rng)
        pixels[17, 5] = value
        pixels[40, 2] = value
        with pytest.raises(DataError, match="pixel 17, band 5"):
            ufcls_pixels(pixels, 3)

    def test_scene_misses_coolest_spot(self, default_scene):
        """The paper's Table 3 failure mode: UFCLS cannot pull the dim
        700F spot 'F' out of the error image."""
        result = ufcls(default_scene.image, 18)
        matches = match_targets(
            result.signatures, default_scene.truth.target_signatures()
        )
        assert matches["F"]["sad"] > 0.02
        # ... but it finds the hot, bright ones.
        assert matches["G"]["sad"] < 0.01
        assert matches["C"]["sad"] < 0.01


class TestPCT:
    def test_labels_shape(self, small_scene):
        result = pct_classify(small_scene.image, 8)
        assert result.labels.shape == small_scene.truth.class_map.shape

    def test_separable_clusters_classified(self, rng):
        # Two well-separated spectral clusters in a flat pixel list.
        a = np.tile([1.0, 0.1, 0.1, 0.1, 0.1, 0.1], (50, 1))
        b = np.tile([0.1, 0.1, 0.1, 0.1, 0.1, 1.0], (50, 1))
        pixels = np.vstack([a, b]) + rng.normal(0, 0.01, (100, 6))
        result = pct_classify_pixels(pixels, 2)
        labels = result.labels
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[99]

    def test_n_classes_bounded_by_bands(self, rng):
        with pytest.raises(ConfigurationError):
            pct_classify_pixels(rng.random((20, 4)), 5)

    def test_transform_rows_match_unique_count(self, small_scene):
        result = pct_classify(small_scene.image, 6)
        assert result.transform.shape[0] == result.unique.count


class TestMORPH:
    def test_labels_shape(self, small_scene):
        result = morph_classify(small_scene.image, 8, iterations=2)
        assert result.labels.shape == small_scene.truth.class_map.shape
        assert result.mei.shape == small_scene.truth.class_map.shape

    def test_classifies_blocky_scene(self, rng):
        # Two spatial halves of distinct materials.
        cube = np.empty((12, 12, 6))
        cube[:, :6] = [1.0, 0.1, 0.1, 0.1, 0.1, 0.1]
        cube[:, 6:] = [0.1, 0.1, 0.1, 0.1, 0.1, 1.0]
        cube += rng.normal(0, 0.005, cube.shape)
        result = morph_classify(HyperspectralImage(cube), 2, iterations=2)
        left = result.labels[:, :4]
        right = result.labels[:, 8:]
        assert len(np.unique(left)) == 1
        assert len(np.unique(right)) == 1
        assert left[0, 0] != right[0, 0]

    def test_endmember_indices_refer_to_image(self, small_scene):
        result = morph_classify(small_scene.image, 6, iterations=2)
        flat = small_scene.image.flatten_pixels()
        for idx, sig in zip(result.endmembers.indices, result.endmembers.signatures):
            assert sad(flat[idx], sig) < 1e-6  # arccos precision floor

    def test_bad_iterations_rejected(self, small_scene):
        with pytest.raises(ConfigurationError):
            morph_classify(small_scene.image, 4, iterations=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cube_rejected(self, rng, value):
        cube = rng.random((6, 5, 4))
        cube[3, 2, 1] = value  # flat pixel 3 * 5 + 2
        cube[4, 0, 0] = value
        with pytest.raises(DataError, match="pixel 17, band 1"):
            morph_classify(HyperspectralImage(cube), 2, iterations=1)


class TestScenePaperShape:
    """The Table 3/4 qualitative claims on the default scene."""

    def test_morph_beats_pct(self, default_scene):
        truth = default_scene.truth.class_map
        morph = morph_classify(default_scene.image, 24)
        pct = pct_classify(default_scene.image, 24)
        s_morph = score_classification(truth, morph.labels, default_scene.class_names)
        s_pct = score_classification(truth, pct.labels, default_scene.class_names)
        assert s_morph.overall > s_pct.overall
        assert s_morph.overall > 90.0
        assert 55.0 < s_pct.overall < s_morph.overall
