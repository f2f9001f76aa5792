"""Tests for the hyperspectral cube container."""

import numpy as np
import pytest

from repro.errors import DataError, ShapeError
from repro.hsi.cube import HyperspectralImage
from repro.types import Interleave


@pytest.fixture()
def cube_array(rng):
    return rng.random((6, 5, 4))


class TestConstruction:
    def test_bip_default(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert img.shape == (6, 5, 4)
        assert (img.rows, img.cols, img.bands) == (6, 5, 4)

    def test_bsq_conversion(self, cube_array):
        bsq = np.moveaxis(cube_array, 2, 0)
        img = HyperspectralImage(bsq, interleave="bsq")
        assert np.allclose(img.values, cube_array)

    def test_bil_conversion(self, cube_array):
        bil = np.moveaxis(cube_array, 2, 1)
        img = HyperspectralImage(bil, interleave=Interleave.BIL)
        assert np.allclose(img.values, cube_array)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            HyperspectralImage(np.ones((4, 4)))

    def test_rejects_empty_axis(self):
        with pytest.raises(ShapeError):
            HyperspectralImage(np.ones((0, 4, 4)))

    def test_integer_input_promoted_to_float(self):
        img = HyperspectralImage(np.ones((2, 2, 3), dtype=np.int32))
        assert np.issubdtype(img.values.dtype, np.floating)

    def test_wavelengths_length_checked(self, cube_array):
        with pytest.raises(ShapeError):
            HyperspectralImage(cube_array, wavelengths=np.ones(3))

    def test_unknown_interleave_rejected(self, cube_array):
        with pytest.raises(ValueError):
            HyperspectralImage(cube_array, interleave="xyz")


class TestAccess:
    def test_pixel_view(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert np.array_equal(img.pixel(2, 3), cube_array[2, 3])

    def test_pixels_at(self, cube_array):
        img = HyperspectralImage(cube_array)
        got = img.pixels_at([(0, 0), (5, 4)])
        assert got.shape == (2, 4)
        assert np.array_equal(got[1], cube_array[5, 4])

    def test_pixels_at_empty(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert img.pixels_at([]).shape == (0, 4)

    def test_band_view(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert np.array_equal(img.band(1), cube_array[:, :, 1])

    def test_band_nearest(self, cube_array):
        img = HyperspectralImage(
            cube_array, wavelengths=np.array([0.4, 0.9, 1.6, 2.4])
        )
        assert img.band_nearest(1.0) == 1

    def test_band_nearest_requires_wavelengths(self, cube_array):
        img = HyperspectralImage(cube_array)
        with pytest.raises(DataError):
            img.band_nearest(1.0)

    def test_flatten_row_major(self, cube_array):
        img = HyperspectralImage(cube_array)
        flat = img.flatten_pixels()
        assert flat.shape == (30, 4)
        assert np.array_equal(flat[5], cube_array[1, 0])

    def test_iter_pixels_order(self, cube_array):
        img = HyperspectralImage(cube_array)
        first_positions = [pos for pos, _ in list(img.iter_pixels())[:6]]
        assert first_positions[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        assert first_positions[5] == (1, 0)

    def test_megabits(self):
        img = HyperspectralImage(np.zeros((10, 10, 10)))
        assert img.megabits == pytest.approx(1000 * 8 * 8 / 1e6)


class TestLayoutExport:
    @pytest.mark.parametrize("layout", ["bsq", "bil", "bip"])
    def test_roundtrip(self, cube_array, layout):
        img = HyperspectralImage(cube_array)
        exported = img.as_array(layout)
        back = HyperspectralImage(exported, interleave=layout)
        assert np.allclose(back.values, cube_array)

    def test_bsq_shape(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert img.as_array("bsq").shape == (4, 6, 5)

    def test_bil_shape(self, cube_array):
        img = HyperspectralImage(cube_array)
        assert img.as_array("bil").shape == (6, 4, 5)


class TestRowBlocks:
    def test_row_block_is_view(self, cube_array):
        img = HyperspectralImage(cube_array)
        block = img.row_block(1, 3)
        block.values[0, 0, 0] = 99.0
        assert img.values[1, 0, 0] == 99.0

    def test_row_block_bounds_checked(self, cube_array):
        img = HyperspectralImage(cube_array)
        with pytest.raises(ShapeError):
            img.row_block(3, 3)
        with pytest.raises(ShapeError):
            img.row_block(0, 7)

    def test_copy_is_independent(self, cube_array):
        img = HyperspectralImage(cube_array)
        dup = img.copy()
        dup.values[0, 0, 0] = -1.0
        assert img.values[0, 0, 0] != -1.0

    def test_equality(self, cube_array):
        a = HyperspectralImage(cube_array)
        b = HyperspectralImage(cube_array.copy())
        assert a == b
        b.values[0, 0, 0] += 1
        assert a != b
