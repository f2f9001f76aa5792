"""Performance-adaptive repartitioning: controller semantics and the
end-to-end straggler-recovery loop on both backends."""

import numpy as np
import pytest

from repro.core.atdca import atdca
from repro.core.ufcls import ufcls
from repro.errors import ConfigurationError, RepartitionSignal
from repro.faults import (
    AdaptiveConfig,
    AdaptiveController,
    FaultPlan,
    RankCrash,
    RankComputeScale,
    run_with_recovery,
)
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession
from repro.obs.health import HealthMonitor

from conftest import make_tiny_platform

FULL_RUN_S = 1e9


@pytest.fixture(scope="module")
def gate_scene():
    """The committed adaptive-gate scenario's scene (96x64x48)."""
    return make_wtc_scene(SceneConfig())


@pytest.fixture(scope="module")
def small_adaptive_scene():
    return make_wtc_scene(SceneConfig(rows=64, cols=32, bands=32, seed=7))


def _slowdown_plan(rank=1, factor=4.0):
    return FaultPlan(
        (RankComputeScale(rank=rank, factor=factor, start_s=0.0, end_s=FULL_RUN_S),),
        name="adaptive-test",
    )


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        cfg = AdaptiveConfig()
        assert cfg.min_factor > 1.0
        assert cfg.max_factor >= cfg.min_factor
        assert cfg.max_adaptations >= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(min_factor=1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(min_factor=2.0, max_factor=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(max_adaptations=0)


class TestControllerDecision:
    def test_estimate_factor_inverts_exactly(self):
        c = AdaptiveController()
        # e = (f-1)/f  =>  f = 1/(1-e), exactly.
        assert c.estimate_factor(0.75) == pytest.approx(4.0, rel=1e-12)
        assert c.estimate_factor(2.0 / 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_estimate_factor_clamped(self):
        c = AdaptiveController(AdaptiveConfig(max_factor=8.0))
        assert c.estimate_factor(0.999999) == pytest.approx(8.0)
        assert c.estimate_factor(-0.5) == 1.0

    def test_decide_picks_lowest_flagged(self):
        c = AdaptiveController()
        reports = [(False, 0.0), (True, 0.75), (True, 0.9)]
        assert c.decide(reports, step=2) == (1, pytest.approx(4.0), 0.75)

    def test_decide_skips_below_min_factor(self):
        c = AdaptiveController(AdaptiveConfig(min_factor=1.5))
        # e = 0.2 -> f = 1.25 < min_factor: not worth a restart.
        assert c.decide([(True, 0.2)], step=1) is None

    def test_decide_skips_already_adapted_original_rank(self):
        c = AdaptiveController()
        c.commit(1, 4.0, last_error=0.75, step=2)
        decision = c.decide([(False, 0.0), (True, 0.75), (True, 0.8)], step=3)
        assert decision is not None and decision[0] == 2

    def test_decide_respects_budget(self):
        c = AdaptiveController(AdaptiveConfig(max_adaptations=1))
        c.commit(1, 4.0, last_error=0.75, step=2)
        assert c.decide([(True, 0.75)], step=3) is None

    def test_rank_map_translates_dense_to_original(self):
        c = AdaptiveController()
        c.attach(rank_map=(0, 2, 3))  # rank 1 crashed out earlier
        c.commit(1, 4.0, last_error=0.75, step=2)
        (event,) = c.events
        assert (event.rank, event.dense_rank) == (2, 1)
        assert c.adapted == {2: pytest.approx(4.0)}
        # The already-adapted check is by original id.
        assert c.decide([(False, 0.0), (True, 0.75)], step=3) is None

    def test_commit_accumulates_factor(self):
        c = AdaptiveController()
        c.commit(1, 2.0, last_error=0.5, step=1)
        c.commit(1, 3.0, last_error=2.0 / 3.0, step=2)
        assert c.adapted[1] == pytest.approx(6.0)
        assert [e.step for e in c.events] == [1, 2]

    def test_self_report_without_monitor_is_silent(self):
        assert AdaptiveController().self_report(0) == (False, 0.0)


class TestAdaptiveEndToEnd:
    def test_adaptive_beats_noadapt_on_gate_scenario(self, gate_scene):
        """The committed win: rank-1 x4 slowdown on the tiny platform,
        n_targets=18 — adaptive repartitioning must recover a large
        fraction of the injected imbalance (measured ratio 0.731)."""
        platform = make_tiny_platform()
        params = {"n_targets": 18}
        obs = ObsSession.create(health=HealthMonitor())
        adaptive = run_with_recovery(
            "atdca", gate_scene.image, platform, params=params,
            plan=_slowdown_plan(), adaptive=True, obs=obs,
        )
        noadapt = run_with_recovery(
            "atdca", gate_scene.image, platform, params=params,
            plan=_slowdown_plan(),
        )
        assert adaptive.adapted and not noadapt.adapted
        ratio = adaptive.makespan / noadapt.makespan
        assert ratio < 0.9, f"adaptive/no-adapt ratio {ratio:.3f}"
        # Detection artifacts: one committed event for the injected rank,
        # with the exact inverted factor ((f-1)/f -> f).
        (event,) = adaptive.adaptations
        assert event.rank == 1
        assert event.factor == pytest.approx(4.0, rel=1e-9)
        assert obs.metrics.total("adaptive.repartitions") == 1.0
        # The *model* platform was downgraded; the real one was not.
        assert adaptive.model_platform is not None
        assert "~x" in adaptive.model_platform.processors[1].name
        assert adaptive.platform.processors[1].cycle_time == pytest.approx(
            platform.processors[1].cycle_time
        )
        # Output still byte-equal to the sequential reference.
        ref = atdca(gate_scene.image, 18)
        for run in (adaptive, noadapt):
            np.testing.assert_array_equal(
                run.output.flat_indices, ref.flat_indices
            )
            np.testing.assert_array_equal(
                run.output.signatures, ref.signatures
            )

    def test_trigger_points_identical_across_backends(self, small_adaptive_scene):
        """The decision comes from deterministic per-op error bounds, so
        both backends adapt the same rank at the same step with the
        same factor — and produce the same detections."""
        params = {"n_targets": 8}
        runs = {}
        for backend in ("sim", "inproc"):
            runs[backend] = run_with_recovery(
                "atdca", small_adaptive_scene.image, make_tiny_platform(),
                params=params, backend=backend,
                plan=_slowdown_plan(factor=3.0), adaptive=True,
            )
        sim_events = [
            (e.step, e.rank, e.dense_rank) for e in runs["sim"].adaptations
        ]
        inproc_events = [
            (e.step, e.rank, e.dense_rank) for e in runs["inproc"].adaptations
        ]
        assert sim_events and sim_events == inproc_events
        for sim_e, in_e in zip(runs["sim"].adaptations,
                               runs["inproc"].adaptations):
            assert sim_e.factor == pytest.approx(in_e.factor, rel=1e-9)
        np.testing.assert_array_equal(
            runs["sim"].output.flat_indices,
            runs["inproc"].output.flat_indices,
        )
        np.testing.assert_array_equal(
            runs["sim"].output.signatures, runs["inproc"].output.signatures,
        )

    def test_ufcls_adapts_and_stays_exact(self, small_adaptive_scene):
        run = run_with_recovery(
            "ufcls", small_adaptive_scene.image, make_tiny_platform(),
            params={"n_targets": 8}, plan=_slowdown_plan(factor=4.0),
            adaptive=True,
        )
        assert run.adapted
        ref = ufcls(small_adaptive_scene.image, 8)
        np.testing.assert_array_equal(
            run.output.flat_indices, ref.flat_indices
        )

    def test_crash_and_slowdown_compose(self, small_adaptive_scene):
        """A crash mid-run and a straggler in the same plan: the driver
        recovers the crash AND repartitions around the straggler."""
        plan = FaultPlan(
            (
                RankCrash(rank=3, at_op_index=40),
                RankComputeScale(rank=1, factor=4.0, start_s=0.0, end_s=FULL_RUN_S),
            ),
            name="crash+slow",
        )
        run = run_with_recovery(
            "atdca", small_adaptive_scene.image, make_tiny_platform(),
            params={"n_targets": 8}, plan=plan, adaptive=True,
        )
        assert run.crashed_ranks == (3,)
        assert run.adapted and run.adaptations[0].rank == 1
        ref = atdca(small_adaptive_scene.image, 8)
        np.testing.assert_array_equal(
            run.output.flat_indices, ref.flat_indices
        )

    def test_adaptive_requires_checkpointed_algorithm(self, small_adaptive_scene):
        with pytest.raises(ConfigurationError, match="checkpointed"):
            run_with_recovery(
                "pct", small_adaptive_scene.image, make_tiny_platform(),
                adaptive=True,
            )

    def test_adaptive_rejects_junk(self, small_adaptive_scene):
        with pytest.raises(ConfigurationError, match="adaptive"):
            run_with_recovery(
                "atdca", small_adaptive_scene.image, make_tiny_platform(),
                params={"n_targets": 4}, adaptive="yes",
            )

    def test_clean_adaptive_run_never_repartitions(self, small_adaptive_scene):
        run = run_with_recovery(
            "atdca", small_adaptive_scene.image, make_tiny_platform(),
            params={"n_targets": 6}, adaptive=True,
        )
        assert not run.adapted
        assert run.attempts[-1].adapted_rank is None


class TestRepartitionSignal:
    def test_signal_is_cooperative(self):
        sig = RepartitionSignal(rank=1, factor=4.0, step=3, ewma=0.7)
        assert sig.cooperative
        assert (sig.rank, sig.factor, sig.step) == (1, 4.0, 3)
