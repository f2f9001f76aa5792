"""Tests for spectral metrics and accuracy scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import DataError, ShapeError
from repro.hsi.metrics import (
    confusion_matrix,
    match_targets,
    overall_accuracy,
    per_class_accuracy,
    sad,
    sad_pairwise,
    sad_to_references,
)

_spectra = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=32),
    elements=st.floats(min_value=0.01, max_value=10.0),
)


class TestSAD:
    def test_self_distance_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert sad(x, x) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_is_half_pi(self):
        assert sad([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_antiparallel_is_pi(self):
        assert sad([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(np.pi)

    def test_symmetry(self, rng):
        x, y = rng.random(16), rng.random(16)
        assert sad(x, y) == pytest.approx(sad(y, x))

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            sad(np.zeros(4), np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sad(np.ones(3), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(x=_spectra, scale=st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, x, scale):
        y = x * scale
        assert sad(x, y) == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(x=_spectra)
    def test_range(self, x):
        y = np.roll(x, 1)
        if np.linalg.norm(y) > 1e-9:
            angle = sad(x, y)
            assert 0.0 <= angle <= np.pi


class TestSADBatched:
    def test_pairwise_matches_scalar(self, rng):
        mat = rng.random((5, 12)) + 0.1
        angles = sad_pairwise(mat)
        for i in range(5):
            for j in range(5):
                # arccos near 1.0 is only accurate to ~1e-8 — fine for
                # angles, and the pairwise diagonal is pinned to 0.
                assert angles[i, j] == pytest.approx(
                    sad(mat[i], mat[j]), abs=1e-7
                )

    def test_pairwise_diagonal_zero(self, rng):
        mat = rng.random((4, 8)) + 0.1
        assert np.allclose(np.diag(sad_pairwise(mat)), 0.0)

    def test_to_references_matches_scalar(self, rng):
        pix = rng.random((7, 10)) + 0.1
        refs = rng.random((3, 10)) + 0.1
        angles = sad_to_references(pix, refs)
        assert angles.shape == (7, 3)
        assert angles[4, 2] == pytest.approx(sad(pix[4], refs[2]), abs=1e-9)

    def test_to_references_zero_pixel_gets_right_angle(self):
        pix = np.zeros((1, 4))
        refs = np.ones((2, 4))
        angles = sad_to_references(pix, refs)
        assert np.allclose(angles, np.pi / 2)

    def test_band_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            sad_to_references(rng.random((3, 5)), rng.random((2, 6)))


class TestAccuracy:
    def test_confusion_perfect(self):
        t = np.array([0, 1, 2, 0])
        cm = confusion_matrix(t, t, 3)
        assert np.array_equal(cm, np.diag([2, 1, 1]))

    def test_confusion_ignores_unlabelled(self):
        t = np.array([-1, 0, 1])
        p = np.array([0, 0, 0])
        cm = confusion_matrix(t, p, 2)
        assert cm.sum() == 2

    def test_per_class_accuracy(self):
        t = np.array([0, 0, 1, 1])
        p = np.array([0, 1, 1, 1])
        acc = per_class_accuracy(t, p, 2)
        assert acc[0] == pytest.approx(50.0)
        assert acc[1] == pytest.approx(100.0)

    def test_absent_class_is_nan(self):
        t = np.array([0, 0])
        p = np.array([0, 0])
        acc = per_class_accuracy(t, p, 2)
        assert np.isnan(acc[1])

    def test_overall_accuracy(self):
        t = np.array([0, 0, 1, 1])
        p = np.array([0, 1, 1, 1])
        assert overall_accuracy(t, p, 2) == pytest.approx(75.0)

    def test_no_labels_rejected(self):
        with pytest.raises(DataError):
            overall_accuracy(np.array([-1, -1]), np.array([0, 0]), 2)

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix(np.array([0]), np.array([5]), 2)


class TestMatchTargets:
    def test_exact_match(self, rng):
        detected = rng.random((4, 8)) + 0.1
        truth = {"A": detected[2].copy()}
        result = match_targets(detected, truth)
        assert result["A"]["sad"] == pytest.approx(0.0, abs=1e-9)
        assert result["A"]["detected_index"] == 2

    def test_sequence_input_gets_string_labels(self, rng):
        detected = rng.random((2, 8)) + 0.1
        result = match_targets(detected, [detected[0]])
        assert "0" in result

    def test_empty_detected_rejected(self):
        with pytest.raises(DataError):
            match_targets(np.empty((0, 4)), {"A": np.ones(4)})
