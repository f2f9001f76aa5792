"""Kernel registry + autotuning planner (``repro.tuning``).

Covers the registry's resolution semantics, the planner's
auto-≤-default guarantee and degenerate-input fallbacks, plan
round-tripping, dispatch through ``run_parallel``/``run_with_recovery``,
and the ``bench plan`` gate.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.presets import fully_heterogeneous
from repro.core.atdca import atdca_pixels
from repro.core.runner import run_parallel
from repro.errors import ConfigurationError, DataError
from repro.hsi.scene import SceneConfig, make_wtc_scene
from repro.tuning import (
    KERNEL_NAMES,
    default_variant,
    resolve,
    variants_of,
)
from repro.tuning.planner import (
    PARTITION_VARIANTS,
    PLAN_SCHEMA,
    TuningPlan,
    choose_kernel_variants,
    plan_run,
)

N_TARGETS = 6


@pytest.fixture(scope="module")
def platform():
    return fully_heterogeneous()


@pytest.fixture(scope="module")
def scene():
    return make_wtc_scene(SceneConfig(rows=64, cols=16, bands=24, seed=7))


@pytest.fixture(scope="module")
def auto_plan(platform, scene):
    return plan_run(
        "atdca", platform,
        scene.image.rows, scene.image.cols, scene.image.bands,
        {"n_targets": N_TARGETS},
    )


class TestRegistry:
    def test_every_kernel_has_a_reference_and_a_fast_variant(self):
        for kernel in KERNEL_NAMES:
            names = [v.name for v in variants_of(kernel)]
            assert "reference" in names
            assert len(names) >= 2

    def test_default_is_the_fastest_registered_variant(self):
        for kernel in KERNEL_NAMES:
            best = max(variants_of(kernel), key=lambda v: v.speed_hint)
            assert default_variant(kernel).speed_hint == best.speed_hint

    def test_reference_is_rank_tolerant_and_unconditional(self):
        for kernel in KERNEL_NAMES:
            ref = resolve(kernel, "reference")
            assert ref.name == "reference"
            assert ref.min_pixels == 0

    def test_resolve_unknown_kernel_raises(self):
        with pytest.raises(ConfigurationError):
            resolve("no_such_kernel", "reference")

    def test_resolve_unknown_variant_raises(self):
        with pytest.raises(ConfigurationError):
            resolve("osp_step", "no_such_variant")

    def test_implementations_are_callable(self):
        for kernel in KERNEL_NAMES:
            for variant in variants_of(kernel):
                assert callable(variant.implementation())


class TestPlanner:
    def test_auto_never_exceeds_default_on_the_grid(self, platform, scene):
        from repro.cluster.presets import all_networks

        img = scene.image
        for network, plat in all_networks().items():
            for algorithm in ("atdca", "ufcls", "pct", "morph"):
                params = (
                    {"n_targets": N_TARGETS}
                    if algorithm in ("atdca", "ufcls")
                    else {"n_classes": 8}
                )
                for default in PARTITION_VARIANTS:
                    plan = plan_run(
                        algorithm, plat, img.rows, img.cols, img.bands,
                        params, default_variant=default,
                    )
                    assert (
                        plan.predicted_makespan_s
                        <= plan.default_predicted_s
                    ), f"{algorithm}/{default}/{network}"
                    assert set(plan.candidates) == set(PARTITION_VARIANTS)

    def test_ties_break_toward_the_default(self, platform, scene):
        img = scene.image
        for default in PARTITION_VARIANTS:
            plan = plan_run(
                "atdca", platform, img.rows, img.cols, img.bands,
                {"n_targets": N_TARGETS}, default_variant=default,
            )
            if plan.partition_variant != default:
                assert (
                    plan.candidates[plan.partition_variant]
                    < plan.candidates[default]
                )

    def test_prediction_is_exact_on_sim(self, platform, scene, auto_plan):
        run = run_parallel(
            "atdca", scene.image, platform,
            params={"n_targets": N_TARGETS}, plan=auto_plan,
        )
        assert run.makespan == pytest.approx(
            auto_plan.predicted_makespan_s, rel=1e-9
        )

    def test_chosen_variant_wins_the_measured_comparison(
        self, platform, scene, auto_plan
    ):
        """The predicted-optimal variant's *measured* makespan beats (or
        ties) every other candidate's measured makespan on sim."""
        img = scene.image
        measured = {
            variant: run_parallel(
                "atdca", img, platform,
                params={"n_targets": N_TARGETS}, variant=variant,
            ).makespan
            for variant in PARTITION_VARIANTS
        }
        best = min(measured.values())
        assert measured[auto_plan.partition_variant] == pytest.approx(
            best, rel=1e-9
        )

    def test_auto_run_is_result_equal_to_sequential(
        self, platform, scene, auto_plan
    ):
        run = run_parallel(
            "atdca", scene.image, platform,
            params={"n_targets": N_TARGETS}, plan=auto_plan,
        )
        seq = atdca_pixels(
            scene.image.flatten_pixels(), n_targets=N_TARGETS
        )
        assert np.array_equal(
            np.asarray(run.output.flat_indices),
            np.asarray(seq.flat_indices),
        )

    def test_rank_deficient_targets_fall_back_to_reference(
        self, platform, scene
    ):
        img = scene.image
        plan = plan_run(
            "atdca", platform, img.rows, img.cols, img.bands,
            {"n_targets": img.bands + 2},
        )
        assert plan.kernels["osp_step"] == "reference"
        # ... and the planned run gets through the rank-deficient rounds
        # to the typed error: a scene has no more distinct ATDCA targets
        # than spectral dimensions.
        with pytest.raises(DataError, match="ran out of distinct targets"):
            run_parallel(
                "atdca", img, platform,
                params={"n_targets": img.bands + 2}, plan=plan,
            )

    def test_tiny_scenes_fall_back_to_reference(self, platform):
        plan = plan_run(
            "ufcls", platform, 16, 2, 8, {"n_targets": 3}
        )
        assert plan.kernels["fcls_solve"] == "reference"

    def test_degenerate_kernel_choice_never_errors(self):
        for algorithm in ("atdca", "ufcls", "pct", "morph"):
            chosen = choose_kernel_variants(
                algorithm, n_pixels=1, bands=2,
                params={"n_targets": 99, "n_classes": 4},
            )
            assert chosen  # never empty; reference always eligible

    def test_unknown_algorithm_and_variant_raise(self, platform):
        with pytest.raises(ConfigurationError):
            plan_run("fft", platform, 64, 16, 24)
        with pytest.raises(ConfigurationError):
            plan_run(
                "atdca", platform, 64, 16, 24,
                default_variant="speediest",
            )


class TestPlanDocument:
    def test_round_trip(self, auto_plan):
        doc = auto_plan.to_document()
        assert doc["schema"] == PLAN_SCHEMA
        again = TuningPlan.from_document(doc)
        assert again == auto_plan

    def test_serialization_is_deterministic(self, auto_plan, tmp_path):
        blob = json.dumps(auto_plan.to_document(), sort_keys=True)
        blob2 = json.dumps(
            TuningPlan.from_document(
                json.loads(blob)
            ).to_document(),
            sort_keys=True,
        )
        assert blob == blob2
        path = tmp_path / "plan.json"
        path.write_text(blob, encoding="utf-8")
        assert TuningPlan.load(path) == auto_plan

    def test_bad_schema_raises(self, auto_plan):
        doc = auto_plan.to_document()
        doc["schema"] = "bogus/9"
        with pytest.raises(ConfigurationError):
            TuningPlan.from_document(doc)

    def test_mismatched_plan_is_rejected_at_dispatch(
        self, platform, scene, auto_plan
    ):
        other = make_wtc_scene(
            SceneConfig(rows=96, cols=16, bands=24, seed=7)
        )
        with pytest.raises(ConfigurationError, match="does not match"):
            run_parallel(
                "atdca", other.image, platform,
                params={"n_targets": N_TARGETS}, plan=auto_plan,
            )
        with pytest.raises(ConfigurationError, match="does not match"):
            run_parallel(
                "ufcls", scene.image, platform,
                params={"n_targets": N_TARGETS}, plan=auto_plan,
            )


class TestRecoveryTuning:
    def test_auto_tuning_replans_after_a_crash(self, platform, scene):
        from repro.faults.plan import FaultPlan, RankCrash
        from repro.faults.recovery import run_with_recovery

        fault = FaultPlan(
            name="one-crash", faults=(RankCrash(rank=3, at_op_index=8),)
        )
        tuned = run_with_recovery(
            "atdca", scene.image, platform,
            params={"n_targets": N_TARGETS}, plan=fault, tuning="auto",
        )
        plain = run_with_recovery(
            "atdca", scene.image, platform,
            params={"n_targets": N_TARGETS}, plan=fault,
        )
        assert tuned.recovered
        assert all(a.tuned_variant is not None for a in tuned.attempts)
        assert all(a.tuned_variant is None for a in plain.attempts)
        assert np.array_equal(
            np.asarray(tuned.output.flat_indices),
            np.asarray(plain.output.flat_indices),
        )

    def test_initial_plan_must_match(self, platform, scene, auto_plan):
        from repro.faults.recovery import run_with_recovery

        with pytest.raises(ConfigurationError, match="does not match"):
            run_with_recovery(
                "ufcls", scene.image, platform,
                params={"n_targets": N_TARGETS}, tuning=auto_plan,
            )

    def test_bad_tuning_value_raises(self, platform, scene):
        from repro.faults.recovery import run_with_recovery

        with pytest.raises(ConfigurationError, match="tuning"):
            run_with_recovery(
                "atdca", scene.image, platform,
                params={"n_targets": N_TARGETS}, tuning="fastest",
            )


class TestPlanBenchGate:
    @pytest.fixture(scope="class")
    def artifact(self):
        from repro.obs.bench import BenchConfig, run_plan_bench

        config = BenchConfig(
            algorithms=("atdca",),
            variants=("homo",),
            networks=("fully heterogeneous",),
            rows=64, cols=16, bands=24, n_targets=N_TARGETS,
        )
        return run_plan_bench(config, date="2026-01-01")

    def test_cells_predict_exactly_and_match_sequential(self, artifact):
        from repro.obs.bench import gate_plan

        gate = {
            "max_prediction_rel_error": 1e-9,
            "min_best_improvement": 1.0,
        }
        assert gate_plan(artifact, gate) == []
        for cell in artifact["cells"].values():
            assert cell["auto"]["rel_error"] <= 1e-9
            assert cell["default"]["rel_error"] <= 1e-9
            assert cell["result_equal"]

    def test_planner_beats_the_static_homo_default(self, artifact):
        improvements = [
            cell["improvement_measured"]
            for cell in artifact["cells"].values()
        ]
        assert max(improvements) > 1.5

    def test_gate_flags_tampered_cells(self, artifact):
        from repro.obs.bench import gate_plan

        bad = json.loads(json.dumps(artifact))
        cid = sorted(bad["cells"])[0]
        cell = bad["cells"][cid]
        cell["auto"]["predicted_s"] = cell["default"]["predicted_s"] * 2
        cell["auto"]["rel_error"] = 1.0
        cell["result_equal"] = False
        failures = gate_plan(
            bad,
            {"max_prediction_rel_error": 1e-9, "min_best_improvement": 1.0},
        )
        assert any("exceeds default" in f for f in failures)
        assert any("prediction off" in f for f in failures)
        assert any("diverged" in f for f in failures)

    def test_gate_enforces_the_improvement_floor(self, artifact):
        from repro.obs.bench import gate_plan

        failures = gate_plan(
            artifact,
            {"max_prediction_rel_error": 1e-9,
             "min_best_improvement": 1e6},
        )
        assert any("below" in f for f in failures)

    def test_non_exact_algorithms_are_rejected(self):
        from repro.errors import ReproError
        from repro.obs.bench import BenchConfig, run_plan_bench

        with pytest.raises(ReproError, match="plan bench supports"):
            run_plan_bench(
                BenchConfig(algorithms=("pct",)), date="2026-01-01"
            )


class TestScaleProvenance:
    def test_committed_baseline_carries_provenance(self):
        from repro.obs.health import scales_from_calibration

        scales, provenance = scales_from_calibration(
            "benchmarks/baselines/calibration.json",
            backend="sim", with_provenance=True,
        )
        assert set(scales) == {"compute", "transfer"}
        assert provenance is not None
        assert set(provenance) >= {"git_sha", "date", "source"}

    def test_plan_carries_the_provenance(self, auto_plan):
        assert auto_plan.scale_provenance is not None
        assert "git_sha" in auto_plan.scale_provenance

    def test_planned_trace_exposes_the_provenance(self, platform, scene,
                                                  auto_plan):
        from repro.obs import ObsSession, analyze_trace

        obs = ObsSession.create()
        run_parallel(
            "atdca", scene.image, platform,
            params={"n_targets": N_TARGETS}, plan=auto_plan, obs=obs,
        )
        analysis = analyze_trace(obs)
        assert analysis.tuning is not None
        doc = analysis.to_dict()["tuning"]
        assert doc["plan_partition_variant"] == auto_plan.partition_variant
        assert doc["plan_scales_git_sha"] == (
            auto_plan.scale_provenance["git_sha"]
        )
