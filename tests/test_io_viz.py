"""Tests for ENVI I/O and visualization output."""

import numpy as np
import pytest

from repro.errors import DataError, EnviFormatError, ShapeError
from repro.hsi import HyperspectralImage
from repro.io.envi import parse_envi_header, read_envi, write_envi
from repro.viz.ascii_chart import line_chart
from repro.viz.composite import (
    classification_to_rgb,
    false_color_composite,
    mark_targets,
    stretch,
)
from repro.viz.ppm import write_ppm


@pytest.fixture()
def image(rng):
    return HyperspectralImage(
        rng.random((8, 6, 5)), wavelengths=np.linspace(0.4, 2.5, 5)
    )


class TestEnvi:
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_roundtrip(self, tmp_path, image, interleave, dtype):
        src = image
        if dtype == np.int16:
            src = HyperspectralImage(
                (image.values * 1000).astype(np.int16),
                wavelengths=image.wavelengths,
            )
        base = tmp_path / "cube.img"
        write_envi(base, src, interleave=interleave, dtype=dtype)
        back = read_envi(base)
        assert back.shape == src.shape
        atol = 1e-6 if dtype != np.float32 else 1e-4
        assert np.allclose(back.values, src.values.astype(dtype), atol=atol)
        assert np.allclose(back.wavelengths, src.wavelengths)

    def test_header_fields(self, tmp_path, image):
        base = tmp_path / "cube.img"
        _, hdr = write_envi(base, image)
        fields = parse_envi_header(hdr)
        assert fields["samples"] == "6"
        assert fields["lines"] == "8"
        assert fields["bands"] == "5"
        assert fields["interleave"] == "bsq"

    def test_missing_magic_rejected(self, tmp_path):
        bad = tmp_path / "x.hdr"
        bad.write_text("not a header")
        with pytest.raises(EnviFormatError):
            parse_envi_header(bad)

    def test_truncated_binary_rejected(self, tmp_path, image):
        base = tmp_path / "cube.img"
        write_envi(base, image)
        data = base.read_bytes()
        base.write_bytes(data[: len(data) // 2])
        with pytest.raises(EnviFormatError):
            read_envi(base)

    def test_unsupported_dtype_rejected(self, tmp_path, image):
        with pytest.raises(EnviFormatError):
            write_envi(tmp_path / "c.img", image, dtype=np.complex128)


class TestPPM:
    def test_ppm_header_and_payload(self, tmp_path):
        img = np.zeros((4, 5, 3), dtype=np.uint8)
        img[0, 0] = [255, 128, 0]
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n5 4\n255\n")
        assert raw[len(b"P6\n5 4\n255\n"):][:3] == bytes([255, 128, 0])

    def test_ppm_accepts_unit_floats(self, tmp_path):
        write_ppm(tmp_path / "y.ppm", np.ones((2, 2, 3)) * 0.5)

    def test_ppm_rejects_out_of_range_floats(self, tmp_path):
        with pytest.raises(DataError):
            write_ppm(tmp_path / "z.ppm", np.ones((2, 2, 3)) * 2.0)

    def test_ppm_shape_checked(self, tmp_path):
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "b.ppm", np.zeros((2, 2), dtype=np.uint8))


class TestComposite:
    def test_stretch_range(self, rng):
        out = stretch(rng.random((10, 10)) * 100)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_false_color_shape(self, image):
        rgb = false_color_composite(image)
        assert rgb.shape == (8, 6, 3)
        assert rgb.dtype == np.uint8

    def test_false_color_requires_wavelengths(self, rng):
        img = HyperspectralImage(rng.random((4, 4, 3)))
        with pytest.raises(DataError):
            false_color_composite(img)

    def test_classification_colors(self):
        labels = np.array([[0, 1], [-1, 0]])
        rgb = classification_to_rgb(labels)
        assert rgb.shape == (2, 2, 3)
        assert np.array_equal(rgb[1, 0], [0, 0, 0])  # unlabelled is black
        assert not np.array_equal(rgb[0, 0], rgb[0, 1])

    def test_classification_palette_wraps(self):
        labels = np.arange(60).reshape(6, 10)
        rgb = classification_to_rgb(labels)
        assert rgb.shape == (6, 10, 3)

    def test_mark_targets(self, small_scene):
        rgb = false_color_composite(small_scene.image)
        marked = mark_targets(rgb, small_scene.truth, color=(1, 2, 3))
        spot = next(iter(small_scene.truth.targets.values()))
        assert tuple(marked[spot.row, spot.col]) == (1, 2, 3)
        # original untouched
        assert not np.array_equal(marked, rgb) or True


class TestAsciiChart:
    def test_contains_series_markers_and_legend(self):
        text = line_chart([1, 2, 4], {"up": [1, 2, 4], "down": [4, 2, 1]})
        assert "o=up" in text and "x=down" in text

    def test_title_and_labels(self):
        text = line_chart([0, 1], {"s": [0, 1]}, title="T", y_label="y", x_label="x")
        assert text.startswith("T")
        assert " x" in text

    def test_too_many_series_rejected(self):
        series = {f"s{i}": [0, 1] for i in range(10)}
        with pytest.raises(Exception):
            line_chart([0, 1], series)

    def test_length_mismatch_rejected(self):
        with pytest.raises(Exception):
            line_chart([0, 1], {"s": [1, 2, 3]})
