"""Parallel ↔ sequential equivalence: the core correctness invariant.

ATDCA and UFCLS must produce *bit-identical* target sets in parallel:
per-partition argmax + lowest-global-index tie-breaking equals the
global argmax, and all numerical kernels are pixel-row-independent.
PCT and MORPH involve data-dependent selection structured by the
partitioning, so they are held to agreement/accuracy bounds instead.
"""

import numpy as np
import pytest

from repro.core import (
    ALGORITHM_NAMES,
    morph_classify,
    pct_classify,
    run_parallel,
)
from repro.core.atdca import atdca
from repro.core.ufcls import ufcls
from repro.hsi import SceneConfig, make_wtc_scene, score_classification
from repro.scheduling import RowPartition

from conftest import make_tiny_platform

N_TARGETS = 8


@pytest.fixture(scope="module", params=["tiny", "het16"])
def platform(request):
    if request.param == "tiny":
        return make_tiny_platform()
    from repro.cluster import fully_heterogeneous

    return fully_heterogeneous()


class TestDetectorsBitIdentical:
    @pytest.mark.parametrize("variant", ["hetero", "homo", "dlt"])
    def test_atdca_sim(self, small_scene, platform, variant):
        seq = atdca(small_scene.image, N_TARGETS)
        run = run_parallel(
            "atdca", small_scene.image, platform,
            params={"n_targets": N_TARGETS}, variant=variant,
        )
        assert np.array_equal(seq.flat_indices, run.output.flat_indices)
        assert np.allclose(seq.signatures, run.output.signatures)

    def test_ufcls_sim(self, small_scene, platform):
        seq = ufcls(small_scene.image, N_TARGETS)
        run = run_parallel(
            "ufcls", small_scene.image, platform,
            params={"n_targets": N_TARGETS},
        )
        assert np.array_equal(seq.flat_indices, run.output.flat_indices)

    def test_atdca_inproc_backend(self, small_scene, platform):
        seq = atdca(small_scene.image, N_TARGETS)
        run = run_parallel(
            "atdca", small_scene.image, platform,
            params={"n_targets": N_TARGETS}, backend="inproc",
        )
        assert np.array_equal(seq.flat_indices, run.output.flat_indices)

    def test_sim_and_inproc_agree(self, small_scene, platform):
        sim = run_parallel(
            "ufcls", small_scene.image, platform, params={"n_targets": 4}
        )
        inproc = run_parallel(
            "ufcls", small_scene.image, platform, params={"n_targets": 4},
            backend="inproc",
        )
        assert np.array_equal(
            sim.output.flat_indices, inproc.output.flat_indices
        )


class TestDegeneratePartitions:
    """Legal partitions WEA never emits: every driver must still take
    part in every collective and assemble a full-size result."""

    PARTITIONS = {
        "zero_share_workers": [40] + [0] * 7 + [1] * 8,
        "zero_share_master": [0, 34] + [1] * 14,
        "one_row_each_rest_on_last": [1] * 15 + [33],
    }

    @pytest.mark.parametrize("counts", PARTITIONS.values(), ids=PARTITIONS)
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_every_driver_on_both_backends(
        self, het_platform, algorithm, counts
    ):
        image = make_wtc_scene(
            SceneConfig(rows=48, cols=8, bands=16, seed=7)
        ).image
        params = {"n_targets": 5, "n_classes": 4, "iterations": 2}
        sim, inproc = (
            run_parallel(
                algorithm, image, het_platform, params=params,
                partition=RowPartition(counts), backend=backend,
            ).output
            for backend in ("sim", "inproc")
        )
        sequential = {"atdca": atdca, "ufcls": ufcls}.get(algorithm)
        if sequential is not None:
            expected = sequential(image, params["n_targets"]).flat_indices
            assert np.array_equal(sim.flat_indices, expected)
            assert np.array_equal(inproc.flat_indices, expected)
        else:
            assert sim.labels.shape == (image.rows, image.cols)
            assert np.array_equal(sim.labels, inproc.labels)


class TestDegenerateScenes:
    """A scene with fewer distinct spectra than targets asked for: once
    the targets found span it, every score is round-off and the argmax
    lands on a pixel already chosen.  That is an error, the same one
    from the sequential detectors and from the master on both backends,
    never a result padded with repeats."""

    @staticmethod
    def scenes():
        from repro.hsi.cube import HyperspectralImage

        rng = np.random.default_rng(3)
        spectra = rng.uniform(0.1, 1.0, (3, 8))
        labels = rng.integers(0, 3, (16, 4))
        return {
            "three_spectra": (HyperspectralImage(spectra[labels]), 8),
            "constant": (HyperspectralImage(np.full((16, 4, 8), 0.5)), 4),
        }

    @pytest.mark.parametrize("scene", ["three_spectra", "constant"])
    @pytest.mark.parametrize("algorithm", ["atdca", "ufcls"])
    def test_a_repeated_pixel_is_an_error_everywhere(self, algorithm, scene):
        from repro.errors import DataError

        image, n_targets = self.scenes()[scene]
        sequential = {"atdca": atdca, "ufcls": ufcls}[algorithm]
        with pytest.raises(
            DataError, match=r"iteration \d+ selected pixel \d+ again"
        ) as seq:
            sequential(image, n_targets)
        if scene == "constant":
            assert str(seq.value) == (
                "iteration 1 selected pixel 0 again: the scene ran out of "
                "distinct targets after 1"
            )
        for backend in ("sim", "inproc"):
            with pytest.raises(DataError) as par:
                run_parallel(
                    algorithm, image, make_tiny_platform(),
                    params={"n_targets": n_targets}, backend=backend,
                )
            assert type(par.value) is type(seq.value)
            assert str(par.value) == str(seq.value)


class TestNonFiniteInput:
    """A NaN or an inf in the cube is the sequential functions' error,
    raised from ``run_parallel`` before any rank launches."""

    PARAMS = {
        "atdca": {"n_targets": 4},
        "ufcls": {"n_targets": 4},
        "pct": {"n_classes": 2},
        "morph": {"n_classes": 2, "iterations": 1},
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_run_parallel_rejects_non_finite_cube(
        self, algorithm, backend, value
    ):
        from repro.errors import DataError
        from repro.hsi.cube import HyperspectralImage

        cube = np.random.default_rng(5).uniform(0.1, 1.0, (16, 4, 8))
        cube[3, 2, 1] = value  # flat pixel 3 * 4 + 2
        cube[9, 0, 0] = value
        with pytest.raises(
            DataError,
            match=rf"^pixels must be finite: pixel 14, band 1 is {value}$",
        ):
            run_parallel(
                algorithm, HyperspectralImage(cube), make_tiny_platform(),
                params=self.PARAMS[algorithm], backend=backend,
            )

    @pytest.mark.parametrize("driver", ["run_parallel", "run_with_recovery"])
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_both_drivers_reject_a_nan_pixel(self, algorithm, driver):
        """The fault-tolerant driver launches through the same path, so
        it raises the same error instead of detecting, or classifying,
        on a NaN."""
        from repro.errors import DataError
        from repro.faults.recovery import run_with_recovery
        from repro.hsi.cube import HyperspectralImage

        scene = make_wtc_scene(SceneConfig(rows=48, cols=8, bands=16, seed=7))
        values = np.array(scene.image.values, copy=True)
        values[3, 2, 5] = np.nan  # flat pixel 3 * 8 + 2
        run = run_parallel if driver == "run_parallel" else run_with_recovery
        with pytest.raises(
            DataError,
            match=r"^pixels must be finite: pixel 26, band 5 is nan$",
        ):
            run(
                algorithm, HyperspectralImage(values), make_tiny_platform(),
                params=self.PARAMS[algorithm],
            )


class TestClassifierAgreement:
    def test_pct_high_label_agreement(self, small_scene, platform):
        seq = pct_classify(small_scene.image, 12)
        run = run_parallel(
            "pct", small_scene.image, platform, params={"n_classes": 12}
        )
        par = run.output
        # Unique sets may differ (partition-structured selection), but
        # both must classify; with matching unique sets labels agree.
        assert par.labels.shape == seq.labels.shape
        truth = small_scene.truth.class_map
        s_seq = score_classification(truth, seq.labels, small_scene.class_names)
        s_par = score_classification(truth, par.labels, small_scene.class_names)
        assert abs(s_seq.overall - s_par.overall) < 20.0

    def test_pct_identical_when_partitions_match_strata(self, small_scene):
        """With equal 16-way partitioning the parallel unique sets equal
        the sequential 16-strata ones, so labels agree almost surely."""
        from repro.cluster import fully_homogeneous

        seq = pct_classify(small_scene.image, 12)
        run = run_parallel(
            "pct", small_scene.image, fully_homogeneous(),
            params={"n_classes": 12}, variant="homo",
        )
        agreement = float((seq.labels == run.output.labels).mean())
        assert agreement > 0.99

    def test_morph_exact_halo_matches_sequential(self, small_scene):
        from repro.cluster import fully_homogeneous
        from repro.core.morph import mei_map
        from repro.morphology.structuring import square

        seq = morph_classify(small_scene.image, 12, iterations=3)
        run = run_parallel(
            "morph", small_scene.image, fully_homogeneous(),
            params={"n_classes": 12, "iterations": 3, "exact_halo": True},
            variant="homo",
        )
        # With the exact overlap borders the distributed MEI map equals
        # the sequential one bit for bit ...
        seq_mei = mei_map(small_scene.image.values, square(3), 3)
        assert np.array_equal(seq_mei, run.output.mei)
        # ... and so does the classification.
        assert np.array_equal(seq.labels, run.output.labels)

    def test_morph_approximate_halo_accuracy_close(self, default_scene):
        """The paper's single-reach overlap border: classification
        quality must be essentially unaffected."""
        from repro.cluster import fully_heterogeneous

        truth = default_scene.truth.class_map
        exact = run_parallel(
            "morph", default_scene.image, fully_heterogeneous(),
            params={"n_classes": 24, "exact_halo": True},
        )
        approx = run_parallel(
            "morph", default_scene.image, fully_heterogeneous(),
            params={"n_classes": 24, "exact_halo": False},
        )
        s_exact = score_classification(
            truth, exact.output.labels, default_scene.class_names
        )
        s_approx = score_classification(
            truth, approx.output.labels, default_scene.class_names
        )
        assert abs(s_exact.overall - s_approx.overall) < 8.0

    def test_morph_exchange_variant_accuracy(self, default_scene):
        """The halo-exchange variant must classify as well as the
        redundant-computation variant (its halos are always fresh)."""
        from repro.cluster import SimulationEngine, fully_heterogeneous
        from repro.core.parallel_morph import parallel_morph_exchange_program
        from repro.core.runner import make_row_partition

        plat = fully_heterogeneous()
        params = {"n_classes": 24, "iterations": 5}
        part = make_row_partition(plat, default_scene.image, "morph", params)
        engine = SimulationEngine(plat)
        res = engine.run(
            parallel_morph_exchange_program,
            kwargs_per_rank=[
                {"image": default_scene.image if r == 0 else None}
                for r in range(plat.size)
            ],
            common_kwargs={"partition": part, "n_classes": 24, "iterations": 5},
        )
        score = score_classification(
            default_scene.truth.class_map,
            res.return_values[0].labels,
            default_scene.class_names,
        )
        assert score.overall > 90.0

    def test_morph_parallel_accuracy_matches_sequential(self, default_scene):
        from repro.cluster import fully_heterogeneous

        truth = default_scene.truth.class_map
        seq = morph_classify(default_scene.image, 24)
        run = run_parallel(
            "morph", default_scene.image, fully_heterogeneous(),
            params={"n_classes": 24},
        )
        s_seq = score_classification(truth, seq.labels, default_scene.class_names)
        s_par = score_classification(
            truth, run.output.labels, default_scene.class_names
        )
        assert s_par.overall > s_seq.overall - 10.0


class TestTimingDeterminism:
    def test_repeat_run_same_virtual_times(self, small_scene, platform):
        a = run_parallel(
            "atdca", small_scene.image, platform, params={"n_targets": 4}
        )
        b = run_parallel(
            "atdca", small_scene.image, platform, params={"n_targets": 4}
        )
        assert a.makespan == b.makespan
        assert a.sim.finish_times == b.sim.finish_times

    def test_hetero_beats_homo_on_heterogeneous_platform(self, small_scene):
        from repro.cluster import CostModel, fully_heterogeneous

        # Paper-like regime: computation dominates communication.
        cost = CostModel(compute_scale=2000.0, comm_scale=40.0)
        het = run_parallel(
            "atdca", small_scene.image, fully_heterogeneous(),
            params={"n_targets": 6}, variant="hetero", cost_model=cost,
        )
        homo = run_parallel(
            "atdca", small_scene.image, fully_heterogeneous(),
            params={"n_targets": 6}, variant="homo", cost_model=cost,
        )
        assert homo.makespan > het.makespan * 1.5
