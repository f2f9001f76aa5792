"""Tests for structuring elements, vector morphology, and halos."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.morph import mei_map, mei_map_reference
from repro.errors import ConfigurationError, ShapeError
from repro.experiments.config import ExperimentConfig
from repro.hsi import make_wtc_scene
from repro.morphology import ops
from repro.morphology.halo import (
    HaloBlock,
    extract_halo_block,
    halo_depth,
    redundant_fraction,
)
from repro.morphology.ops import (
    cumulative_sad_map,
    dilation,
    erosion,
    extrema_positions,
    mei_scores,
    morph_extrema,
    window_indices,
)
from repro.morphology.structuring import StructuringElement, cross, disk, square


class TestStructuringElements:
    def test_square(self):
        se = square(3)
        assert se.shape == (3, 3)
        assert se.size == 9
        assert se.radius == 1

    def test_cross(self):
        se = cross(3)
        assert se.size == 5
        assert (0, 0) in se.offsets()

    def test_disk_radius_one(self):
        se = disk(1)
        assert se.shape == (3, 3)
        assert se.size == 5  # centre + 4-neighbours

    def test_disk_zero_is_single_cell(self):
        assert disk(0).size == 1

    def test_offsets_centered(self):
        offsets = square(3).offsets()
        assert (-1, -1) in offsets and (1, 1) in offsets

    def test_even_size_rejected(self):
        with pytest.raises(ConfigurationError):
            square(4)

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            StructuringElement(np.zeros((3, 3), dtype=bool))

    def test_even_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            StructuringElement(np.ones((2, 3), dtype=bool))


class TestCumulativeSAD:
    def test_zero_on_constant_image(self):
        cube = np.ones((6, 6, 4))
        dmap = cumulative_sad_map(cube, square(3))
        assert np.allclose(dmap, 0.0, atol=1e-6)

    def test_boundary_pixels_have_high_score(self):
        cube = np.ones((6, 6, 4))
        cube[:, 3:] = [[0.0, 0.0, 1.0, 1.0]]  # different material right half
        dmap = cumulative_sad_map(cube, square(3))
        assert dmap[:, 2:4].max() > dmap[:, 0].max() + 0.1

    def test_scale_invariant(self, rng):
        cube = rng.random((5, 5, 3)) + 0.1
        a = cumulative_sad_map(cube, square(3))
        b = cumulative_sad_map(cube * 7.0, square(3))
        assert np.allclose(a, b, atol=1e-9)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            cumulative_sad_map(np.ones((4, 4)), square(3))


class TestExtrema:
    def _two_phase_cube(self):
        cube = np.ones((5, 7, 3))
        cube[:, 4:] = [0.1, 1.0, 0.1]
        return cube

    def test_extrema_coords_within_image(self, rng):
        cube = rng.random((6, 6, 4)) + 0.1
        ext = morph_extrema(cube, square(3))
        assert ext.eroded_rows.min() >= 0 and ext.eroded_rows.max() < 6
        assert ext.dilated_cols.min() >= 0 and ext.dilated_cols.max() < 6

    def test_eroded_and_dilated_are_image_pixels(self, rng):
        cube = rng.random((6, 6, 4)) + 0.1
        ext = morph_extrema(cube, square(3))
        r, c = 3, 3
        assert np.array_equal(
            ext.eroded[r, c], cube[ext.eroded_rows[r, c], ext.eroded_cols[r, c]]
        )
        assert np.array_equal(
            ext.dilated[r, c],
            cube[ext.dilated_rows[r, c], ext.dilated_cols[r, c]],
        )

    def test_interior_of_uniform_region_unchanged_by_erosion(self):
        cube = self._two_phase_cube()
        eroded = erosion(cube, square(3))
        # deep inside the left phase everything is identical anyway
        assert np.allclose(eroded[2, 1], cube[2, 1])

    def test_mei_zero_on_constant_image(self):
        cube = np.ones((5, 5, 3))
        ext = morph_extrema(cube, square(3))
        assert np.allclose(mei_scores(ext), 0.0, atol=1e-6)

    def test_mei_positive_at_boundary(self):
        cube = self._two_phase_cube()
        ext = morph_extrema(cube, square(3))
        mei = mei_scores(ext)
        assert mei[:, 3:5].max() > 0.3

    def test_dilation_output_shape(self, rng):
        cube = rng.random((4, 5, 6))
        assert dilation(cube, square(3)).shape == cube.shape

    def test_erosion_output_shape(self, rng):
        cube = rng.random((4, 5, 6))
        assert erosion(cube, square(3)).shape == cube.shape


def _running_extrema(dmap, se):
    """The strict running-comparison scan ``extrema_positions`` replaced,
    kept verbatim as its oracle."""
    rows, cols = dmap.shape
    pr, pc = se.shape[0] // 2, se.shape[1] // 2
    dpad = np.pad(dmap, ((pr, pr), (pc, pc)), mode="edge")

    best_min = np.full((rows, cols), np.inf)
    best_max = np.full((rows, cols), -np.inf)
    min_dr = np.zeros((rows, cols), dtype=np.int64)
    min_dc = np.zeros((rows, cols), dtype=np.int64)
    max_dr = np.zeros((rows, cols), dtype=np.int64)
    max_dc = np.zeros((rows, cols), dtype=np.int64)

    for dr, dc in se.offsets():
        window = dpad[pr + dr : pr + dr + rows, pc + dc : pc + dc + cols]
        lower = window < best_min
        best_min = np.where(lower, window, best_min)
        min_dr = np.where(lower, dr, min_dr)
        min_dc = np.where(lower, dc, min_dc)
        higher = window > best_max
        best_max = np.where(higher, window, best_max)
        max_dr = np.where(higher, dr, max_dr)
        max_dc = np.where(higher, dc, max_dc)

    base_r = np.arange(rows)[:, None]
    base_c = np.arange(cols)[None, :]
    er_r = np.clip(base_r + min_dr, 0, rows - 1)
    er_c = np.clip(base_c + min_dc, 0, cols - 1)
    di_r = np.clip(base_r + max_dr, 0, rows - 1)
    di_c = np.clip(base_c + max_dc, 0, cols - 1)
    return er_r, er_c, di_r, di_c


ORACLE_SES = {
    "square1": square(1),
    "square3": square(3),
    "square5": square(5),
    "cross3": cross(3),
    "disk2": disk(2),
}


class TestExtremaOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        se_name=st.sampled_from(sorted(ORACLE_SES)),
        layout=st.sampled_from(["1x1", "1xn", "nx1", "nxm"]),
        n=st.integers(min_value=2, max_value=9),
        m=st.integers(min_value=2, max_value=9),
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_running_scan(self, se_name, layout, n, m, levels, seed):
        """Integer-valued D_B maps with few levels: ties everywhere, and
        the first offset in ``se.offsets()`` order must win each one."""
        shape = {"1x1": (1, 1), "1xn": (1, n), "nx1": (n, 1), "nxm": (n, m)}
        dmap = np.random.default_rng(seed).integers(
            0, levels, size=shape[layout]
        ).astype(float)
        se = ORACLE_SES[se_name]
        got = extrema_positions(dmap, se)
        want = _running_extrema(dmap, se)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (4, 7)])
    @pytest.mark.parametrize(
        "se",
        [square(3), square(5), cross(3), disk(2),
         StructuringElement(np.ones((1, 5), dtype=bool))],
    )
    def test_window_indices_match_edge_padding(self, shape, se):
        rows, cols = shape
        pr, pc = se.shape[0] // 2, se.shape[1] // 2
        flat = np.arange(rows * cols).reshape(rows, cols)
        padded = np.pad(flat, ((pr, pr), (pc, pc)), mode="edge")
        window = window_indices(rows, cols, se)
        assert window.shape == (se.size, rows * cols)
        assert window.dtype == np.intp
        for k, (dr, dc) in enumerate(se.offsets()):
            read = padded[pr + dr : pr + dr + rows, pc + dc : pc + dc + cols]
            assert np.array_equal(window[k], read.ravel())


class TestMeiBlocks:
    """MORPH's pair dots gather their rows under one byte budget."""

    @settings(max_examples=30, deadline=None)
    @given(
        se_name=st.sampled_from(sorted(ORACLE_SES) + ["no_centre"]),
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=9),
        bands=st.integers(min_value=1, max_value=24),
        palette=st.integers(min_value=1, max_value=12),
        iterations=st.integers(min_value=1, max_value=4),
        block=st.sampled_from(["one row", "odd rows", "default"]),
        odd=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    # An element reaching past the frame: every pixel is border.
    @example(
        se_name="square5", rows=1, cols=1, bands=1, palette=1,
        iterations=1, block="one row", odd=0, seed=0,
    )
    def test_equals_reference_wherever_a_block_ends(
        self, se_name, rows, cols, bands, palette, iterations, block, odd, seed
    ):
        """Bit-identical to the direct evaluation with blocks of one row,
        of an odd row count and of the default budget: no result depends
        on where a block ends.  Pixels drawn from a small palette repeat,
        as dilated frames do."""
        rng = np.random.default_rng(seed)
        spectra = np.abs(rng.normal(size=(palette, bands))) + 0.05
        cube = spectra[rng.integers(0, palette, size=(rows, cols))]
        se = ORACLE_SES.get(se_name) or StructuringElement(
            ~np.eye(3, dtype=bool)
        )
        budget = {
            "one row": 8 * bands,
            "odd rows": 8 * bands * (2 * odd + 1),
            "default": ops.BLOCK_BYTES,
        }[block]
        want = mei_map_reference(cube, se, iterations)
        with mock.patch.object(ops, "BLOCK_BYTES", budget):
            got = mei_map(cube, se, iterations)
        assert np.array_equal(got, want)

    def test_peak_traced_allocation_on_the_grid_scene(self):
        """No whole-pass gather buffer, padded frame or whole-cube unit
        copy past the first pass: the peak traced allocation of the
        768×8×48 grid scene's MEI map reads 6.4 MiB; with the two
        whole-pass gather buffers it read 14.5 MiB."""
        cube = make_wtc_scene(ExperimentConfig().grid_scene).image.values
        assert cube.shape == (768, 8, 48)
        tracemalloc.start()
        try:
            mei_map(cube, square(3), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 2**20


class TestHalo:
    def test_halo_depth(self):
        assert halo_depth(square(3), 5) == 5
        assert halo_depth(square(5), 2) == 4

    def test_bad_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            halo_depth(square(3), 0)

    def test_extract_interior_block(self, rng):
        cube = rng.random((10, 4, 3))
        block = extract_halo_block(cube, 4, 6, 2)
        assert block.top == 2 and block.bottom == 2
        assert block.total_rows == 6
        assert np.array_equal(block.core_view(), cube[4:6])

    def test_extract_at_boundary_clips(self, rng):
        cube = rng.random((10, 4, 3))
        block = extract_halo_block(cube, 0, 3, 2)
        assert block.top == 0 and block.bottom == 2

    def test_core_view_of_derived_array(self, rng):
        cube = rng.random((10, 4, 3))
        block = extract_halo_block(cube, 4, 6, 2)
        derived = np.arange(block.total_rows)
        assert block.core_view(derived).tolist() == [2, 3]

    def test_to_global_row(self, rng):
        cube = rng.random((10, 4, 3))
        block = extract_halo_block(cube, 4, 6, 2)
        assert block.to_global_row(0) == 2
        assert block.to_global_row(2) == 4

    def test_invalid_range_rejected(self, rng):
        with pytest.raises(ShapeError):
            extract_halo_block(np.ones((5, 2, 2)), 4, 3, 1)

    def test_redundant_fraction(self, rng):
        cube = rng.random((12, 4, 3))
        blocks = [
            extract_halo_block(cube, 0, 6, 2),
            extract_halo_block(cube, 6, 12, 2),
        ]
        # 12 core rows, each block borrows 2 from the other side.
        assert redundant_fraction(blocks) == pytest.approx(4 / 16)

    def test_blocks_cover_image(self, rng):
        cube = rng.random((9, 3, 2))
        blocks = [
            extract_halo_block(cube, 0, 4, 1),
            extract_halo_block(cube, 4, 9, 1),
        ]
        rebuilt = np.concatenate([b.core_view() for b in blocks])
        assert np.array_equal(rebuilt, cube)

    def test_halo_block_validates_array_rows(self, rng):
        block = extract_halo_block(rng.random((8, 2, 2)), 2, 4, 1)
        with pytest.raises(ShapeError):
            block.core_view(np.ones(99))
