"""The rank drift detector and the cross-backend determinism of its
detections."""

from __future__ import annotations

import pytest

from repro.cluster.presets import fully_heterogeneous
from repro.core.runner import ALGORITHM_NAMES, run_parallel
from repro.experiments.config import ExperimentConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RankComputeScale
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession
from repro.obs.health import MIN_OPS, HealthMonitor, relative_error


def _slowdown_plan(rank: int = 1, factor: float = 3.0) -> FaultPlan:
    return FaultPlan(
        (RankComputeScale(rank=rank, factor=factor, start_s=0.0, end_s=1e9),),
        name="slowdown",
    )


def _monitored_run(
    backend: str, plan: FaultPlan | None, algorithm: str = "atdca"
) -> ObsSession:
    """One run with a drift detector attached, optionally faulted."""
    cfg = ExperimentConfig(scene=SceneConfig(rows=48, cols=32, bands=24, seed=7))
    scene = make_wtc_scene(cfg.scene)
    platform = fully_heterogeneous()
    obs = ObsSession.create(health=HealthMonitor())
    faults = (
        FaultInjector(plan).attach(platform=platform, obs=obs)
        if plan is not None
        else None
    )
    run_parallel(
        algorithm,
        scene.image,
        platform,
        params=cfg.params_for(algorithm),
        backend=backend,
        obs=obs,
        faults=faults,
    )
    return obs


def _event_keys(obs: ObsSession) -> list[tuple[str, str, int]]:
    return [(e.kind, e.subject, e.op_index) for e in obs.health.events]


class TestHealthMonitor:
    def test_relative_error_is_bounded_and_symmetric(self):
        assert relative_error(1.0, 3.0) == pytest.approx(2 / 3)
        assert relative_error(3.0, 1.0) == pytest.approx(2 / 3)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(0.0, 1.0) == 1.0

    def test_drift_fires_after_warmup_with_hysteresis(self):
        monitor = HealthMonitor()
        # Slowed by 3x: error settles at 2/3 > threshold 0.25 ...
        for _ in range(5):
            monitor.observe_compute(1, 1.0, 3.0, at=0.0)
        kinds = [e.kind for e in monitor.events]
        assert kinds == ["rank_drift"]  # fires once, no flapping
        assert monitor.flagged_ranks() == [1]
        # ... and healthy ops decay the EWMA below the clear level.
        for _ in range(20):
            monitor.observe_compute(1, 1.0, 1.0, at=0.0)
        assert [e.kind for e in monitor.events] == [
            "rank_drift", "rank_recovered"
        ]
        assert monitor.flagged_ranks() == []

    def test_min_ops_warmup_suppresses_early_flags(self):
        assert MIN_OPS == 3
        monitor = HealthMonitor()
        for _ in range(MIN_OPS - 1):
            monitor.observe_compute(0, 1.0, 5.0, at=0.0)
        assert monitor.events == []
        monitor.observe_compute(0, 1.0, 5.0, at=0.0)
        assert [e.kind for e in monitor.events] == ["rank_drift"]
        assert monitor.events[0].op_index == MIN_OPS

    def test_clean_stream_never_flags(self):
        monitor = HealthMonitor()
        for i in range(50):
            monitor.observe_compute(0, 2.0, 2.0, at=float(i))
        assert monitor.events == []
        assert monitor.flagged_ranks() == []


class TestCrossBackendDeterminism:
    """The acceptance property: an injected rank slowdown flags the same
    rank at the same op index on the virtual-time engine and the
    wall-clock backend, for every algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_slowdown_flags_identically_on_both_backends(self, algorithm):
        plan = _slowdown_plan(rank=1, factor=3.0)
        sim = _monitored_run("sim", plan, algorithm)
        inproc = _monitored_run("inproc", plan, algorithm)
        sim_events = _event_keys(sim)
        assert sim_events, "sim backend detected no drift"
        assert sim_events == _event_keys(inproc)
        assert sim.health.flagged_ranks() == [1]
        assert inproc.health.flagged_ranks() == [1]
        kind, subject, _ = sim_events[0]
        assert (kind, subject) == ("rank_drift", "rank:1")

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_clean_runs_stay_silent_on_both_backends(self, algorithm):
        for backend in ("sim", "inproc"):
            obs = _monitored_run(backend, None, algorithm)
            assert obs.health.events == []
            assert obs.health.flagged_ranks() == []

    def test_drift_surfaces_as_health_span_and_counter(self):
        obs = _monitored_run("sim", _slowdown_plan())
        health_spans = [
            s for s in obs.tracer.spans() if s.category == "health"
        ]
        assert [s.name for s in health_spans] == ["health.rank_drift"]
        assert health_spans[0].attrs["subject"] == "rank:1"
        counters = [
            r for r in obs.metrics.records() if r["name"] == "health.events"
        ]
        assert counters and counters[0]["value"] == 1.0
