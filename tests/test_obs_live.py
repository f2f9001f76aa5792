"""The live observability runtime: flight recorder, health monitor,
snapshots, and the cross-backend determinism of drift detection."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.cluster.presets import fully_heterogeneous
from repro.core.runner import run_parallel
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RankComputeScale
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession, Tracer
from repro.obs.health import (
    HealthConfig,
    HealthMonitor,
    relative_error,
    scales_from_calibration,
)
from repro.obs.live import (
    LIVE_SCHEMA,
    FlightRecorder,
    LiveRuntime,
    main as live_main,
    read_snapshot,
    render_snapshot,
)


def _slowdown_plan(rank: int = 1, factor: float = 3.0) -> FaultPlan:
    return FaultPlan(
        (RankComputeScale(rank=rank, factor=factor, start_s=0.0, end_s=1e9),),
        name="slowdown",
    )


def _small_config() -> ExperimentConfig:
    return ExperimentConfig(
        scene=SceneConfig(rows=48, cols=32, bands=24, seed=7)
    )


def _live_run(backend: str, plan: FaultPlan | None, tmp_path=None):
    """One atdca run with a LiveRuntime attached, optionally faulted."""
    cfg = _small_config()
    scene = make_wtc_scene(cfg.scene)
    platform = fully_heterogeneous()
    out_dir = tmp_path if tmp_path is None else tmp_path / backend
    live = LiveRuntime(out_dir=out_dir)
    obs = ObsSession.create(live=live)
    faults = (
        FaultInjector(plan).attach(platform=platform, obs=obs)
        if plan is not None
        else None
    )
    run_parallel(
        "atdca",
        scene.image,
        platform,
        params=cfg.params_for("atdca"),
        backend=backend,
        obs=obs,
        faults=faults,
    )
    return live, obs


def _event_keys(live: LiveRuntime) -> list[tuple[str, str, int]]:
    return [
        (e.kind, e.subject, e.op_index) for e in live.health.events
    ]


class TestFlightRecorder:
    def test_ring_is_bounded_but_aggregates_count_everything(self):
        recorder = FlightRecorder(ring_size=8)
        tracer = Tracer()
        tracer.add_listener(recorder.record)
        for i in range(100):
            tracer.add_span("op", 0, float(i), float(i) + 0.5,
                            category="compute")
        assert len(recorder) == 8
        assert recorder.spans_seen == 100
        [aggregate] = recorder.aggregates().values()
        assert aggregate.count == 100
        assert aggregate.total_s == pytest.approx(50.0)

    def test_per_rank_rings(self):
        recorder = FlightRecorder(ring_size=4)
        tracer = Tracer()
        tracer.add_listener(recorder.record)
        for rank in (0, 1, 2):
            for i in range(10):
                tracer.add_span("op", rank, float(i), float(i) + 0.1,
                                category="compute")
        assert len(recorder) == 12  # 4 per rank

    def test_memory_stays_bounded_without_span_retention(self):
        """retain_spans=False keeps the tracer empty while the recorder
        still aggregates every span — O(ring), not O(run length)."""
        tracer = Tracer(retain_spans=False)
        recorder = FlightRecorder(ring_size=16)
        tracer.add_listener(recorder.record)
        for i in range(10_000):
            tracer.add_span("op", 0, float(i), float(i) + 1.0,
                            category="kernel", kernel="osp")
        assert len(tracer) == 0
        assert tracer.spans() == []
        assert len(recorder) == 16
        assert recorder.spans_seen == 10_000
        [aggregate] = recorder.aggregates().values()
        assert aggregate.count == 10_000

    def test_merged_aggregates_equal_single_stream_sketch(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        tracer.add_listener(recorder.record)
        durations = [0.001 * (i % 7 + 1) for i in range(60)]
        for i, d in enumerate(durations):
            tracer.add_span("op", i % 3, 0.0, d, category="compute")
        merged = recorder.merged_aggregates()[("compute", "op")]
        from repro.obs.sketch import LatencySketch

        single = LatencySketch(*recorder.sketch_config)
        single.observe_many(durations)
        assert merged == single

    def test_uncategorized_spans_ride_the_ring_only(self):
        recorder = FlightRecorder()
        tracer = Tracer()
        tracer.add_listener(recorder.record)
        tracer.add_span("fault.window", 0, 0.0, 1.0, category="fault")
        assert recorder.spans_seen == 1
        assert recorder.aggregates() == {}

    def test_ring_size_validation(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(ring_size=0)


class TestHealthMonitor:
    def test_relative_error_is_bounded_and_symmetric(self):
        assert relative_error(1.0, 3.0) == pytest.approx(2 / 3)
        assert relative_error(3.0, 1.0) == pytest.approx(2 / 3)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(0.0, 1.0) == 1.0

    def test_drift_fires_after_warmup_with_hysteresis(self):
        monitor = HealthMonitor(HealthConfig(min_ops=3))
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
        monitor = HealthMonitor(HealthConfig(min_ops=10))
        for _ in range(9):
            monitor.observe_compute(0, 1.0, 5.0, at=0.0)
        assert monitor.events == []
        monitor.observe_compute(0, 1.0, 5.0, at=0.0)
        assert [e.kind for e in monitor.events] == ["rank_drift"]
        assert monitor.events[0].op_index == 10

    def test_clean_stream_never_flags(self):
        monitor = HealthMonitor()
        for i in range(50):
            monitor.observe_compute(0, 2.0, 2.0, at=float(i))
        assert monitor.events == []
        assert monitor.flagged_ranks() == []

    def test_link_drift(self):
        monitor = HealthMonitor()
        for _ in range(5):
            monitor.observe_transfer("seg_a~seg_b", 1.0, 4.0, at=0.0)
        assert monitor.flagged_links() == ["seg_a~seg_b"]
        assert monitor.drift_events()[0].kind == "link_drift"
        assert monitor.drift_events()[0].rank is None

    def test_calibrated_scale_suppresses_known_model_error(self):
        """A prediction off by a constant calibrated factor is not
        drift once the scale is applied."""
        drifty = HealthMonitor()
        scaled = HealthMonitor(HealthConfig(compute_scale=2.0))
        for _ in range(10):
            drifty.observe_compute(0, 1.0, 2.0, at=0.0)
            scaled.observe_compute(0, 1.0, 2.0, at=0.0)
        assert drifty.flagged_ranks() == [0]
        assert scaled.flagged_ranks() == []

    def test_state_is_json_safe(self):
        monitor = HealthMonitor()
        for _ in range(4):
            monitor.observe_compute(2, 1.0, 3.0, at=1.5)
        state = json.loads(json.dumps(monitor.state()))
        assert state["flagged_ranks"] == [2]
        assert state["subjects"][0]["subject"] == "rank:2"
        assert state["events"][0]["kind"] == "rank_drift"

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HealthConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            HealthConfig(threshold=-1.0)
        with pytest.raises(ConfigurationError):
            HealthConfig(clear_ratio=1.0)
        with pytest.raises(ConfigurationError):
            HealthConfig(min_ops=0)
        with pytest.raises(ConfigurationError):
            HealthConfig(compute_scale=0.0)

    def test_scales_from_committed_calibration(self):
        for backend in ("sim", "inproc"):
            scales = scales_from_calibration(
                "benchmarks/baselines/calibration.json", backend=backend
            )
            assert scales == {"compute": 1.0, "transfer": 1.0}
        # Missing block -> neutral scales (warns); bad values rejected.
        with pytest.warns(UserWarning):
            assert scales_from_calibration({}, backend="sim") == {
                "compute": 1.0, "transfer": 1.0
            }
        with pytest.raises(ConfigurationError):
            scales_from_calibration(
                {"scales": {"sim": {"compute": -1.0}}}, backend="sim"
            )

    @pytest.mark.parametrize("doc,reason", [
        ({}, 'missing "scales" block'),
        ({"scales": [1.0, 2.0]}, "expected a mapping"),
        ({"scales": {"sim": "fast"}}, "expected a mapping"),
        ({"scales": {"sim": {"compute": "quick"}}}, "is not a number"),
    ])
    def test_stale_baselines_warn_and_degrade(self, doc, reason):
        """Older or malformed calibration exports must not disable
        detection: they warn once and fall back to neutral scales."""
        with pytest.warns(UserWarning, match="no usable scales") as record:
            scales = scales_from_calibration(doc, backend="sim")
        assert scales == {"compute": 1.0, "transfer": 1.0}
        assert reason in str(record[0].message)

    def test_missing_backend_key_is_silent_identity(self):
        """A calibration fitted only for the other backend is not
        stale — its absence for this backend is the identity, no
        warning."""
        import warnings

        doc = {"scales": {"inproc": {"compute": 2.0, "transfer": 3.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scales = scales_from_calibration(doc, backend="sim")
        assert scales == {"compute": 1.0, "transfer": 1.0}
        assert scales_from_calibration(doc, backend="inproc") == {
            "compute": 2.0, "transfer": 3.0
        }


class TestCrossBackendDeterminism:
    """The acceptance property: an injected rank slowdown flags the same
    rank at the same op index on the virtual-time engine and the
    wall-clock backend."""

    def test_slowdown_flags_identically_on_both_backends(self, tmp_path):
        plan = _slowdown_plan(rank=1, factor=3.0)
        sim_live, _ = _live_run("sim", plan, tmp_path)
        inproc_live, _ = _live_run("inproc", plan, tmp_path)
        sim_events = _event_keys(sim_live)
        assert sim_events, "sim backend detected no drift"
        assert sim_events == _event_keys(inproc_live)
        assert sim_live.health.flagged_ranks() == [1]
        assert inproc_live.health.flagged_ranks() == [1]
        kind, subject, _ = sim_events[0]
        assert (kind, subject) == ("rank_drift", "rank:1")

    def test_clean_runs_stay_silent_on_both_backends(self, tmp_path):
        for backend in ("sim", "inproc"):
            live, _ = _live_run(backend, None, tmp_path)
            assert live.health.events == []
            assert live.health.flagged_ranks() == []
            assert live.health.flagged_links() == []

    def test_drift_surfaces_as_health_span_and_counter(self, tmp_path):
        live, obs = _live_run("sim", _slowdown_plan(), tmp_path)
        health_spans = [
            s for s in obs.tracer.spans() if s.category == "health"
        ]
        assert [s.name for s in health_spans] == ["health.rank_drift"]
        assert health_spans[0].attrs["subject"] == "rank:1"
        counters = [
            r for r in obs.metrics.records() if r["name"] == "health.events"
        ]
        assert counters and counters[0]["value"] == 1.0


class TestSnapshots:
    def test_sim_snapshots_are_deterministic(self, tmp_path):
        blobs = []
        for attempt in ("a", "b"):
            live, _ = _live_run("sim", _slowdown_plan(),
                                tmp_path / attempt)
            live.write_snapshot(include_sketches=True)
            blobs.append(
                (live.out_dir / "live.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_snapshot_shape_and_read_back(self, tmp_path):
        live, _ = _live_run("sim", _slowdown_plan(), tmp_path)
        files = live.write_snapshot(include_sketches=True)
        assert sorted(p.name for p in files) == ["live.json", "live.prom"]
        data = read_snapshot(live.out_dir)
        assert data["schema"] == LIVE_SCHEMA
        assert data["health"]["flagged_ranks"] == [1]
        assert data["spans_seen"] > 0
        op_kinds = {entry["kind"] for entry in data["merged"]}
        assert "compute" in op_kinds
        for entry in data["ops"]:
            assert entry["count"] == entry["sketch"]["count"]
            assert entry["p50_s"] <= entry["p90_s"] <= entry["p99_s"]
        # The .prom side is a valid OpenMetrics document.
        from repro.obs.export import parse_openmetrics

        records = parse_openmetrics(
            (live.out_dir / "live.prom").read_text(encoding="utf-8")
        )
        assert any(r["name"] == "health_events" for r in records)

    def test_read_snapshot_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "live.json"
        path.write_text(json.dumps({"schema": "bogus/9"}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema"):
            read_snapshot(path)

    def test_snapshot_without_out_dir(self):
        live = LiveRuntime()
        with pytest.raises(ConfigurationError, match="out_dir"):
            live.write_snapshot()
        # In-memory snapshot still works.
        assert live.snapshot()["spans_seen"] == 0

    def test_periodic_snapshots_written_during_run(self, tmp_path):
        out = tmp_path / "periodic"
        cfg = _small_config()
        scene = make_wtc_scene(cfg.scene)
        live = LiveRuntime(out_dir=out, snapshot_every=100)
        obs = ObsSession.create(live=live)
        run_parallel(
            "atdca", scene.image, fully_heterogeneous(),
            params=cfg.params_for("atdca"), backend="sim", obs=obs,
        )
        # The run emits thousands of spans, so the countdown fired.
        data = read_snapshot(out)
        assert data["snapshot_index"] >= 1

    def test_concurrent_writers_share_one_out_dir(self, tmp_path):
        """Rank threads whose countdowns expire back to back all write
        through ``live.json.tmp``; unserialized, the loser's rename
        finds the file already moved."""
        live = LiveRuntime(out_dir=tmp_path)
        errors = []

        def writer():
            try:
                for _ in range(50):
                    live.write_snapshot()
            except Exception as exc:  # surfaced below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert read_snapshot(tmp_path)["snapshot_index"] >= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LiveRuntime(snapshot_every=-1)


class TestWatchCLI:
    def test_watch_prints_snapshot(self, tmp_path, capsys):
        live, _ = _live_run("sim", _slowdown_plan(), tmp_path)
        live.write_snapshot()
        assert live_main(["watch", str(live.out_dir)]) == 0
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "ranks 1" in out
        assert "rank_drift" in out

    def test_watch_clean_run_reports_ok(self, tmp_path, capsys):
        live, _ = _live_run("sim", None, tmp_path)
        live.write_snapshot()
        assert live_main(["watch", str(live.out_dir)]) == 0
        assert "health: ok" in capsys.readouterr().out

    def test_watch_missing_snapshot_fails(self, tmp_path, capsys):
        assert live_main(["watch", str(tmp_path / "nothing")]) == 2

    def test_render_snapshot_top_limits_table(self, tmp_path):
        live, _ = _live_run("sim", None, tmp_path)
        data = live.snapshot()
        text = render_snapshot(data, top=2)
        table_lines = [
            line for line in text.splitlines()
            if line and not line.startswith(("live", "health", " ", "-"))
            and not line.startswith("kind")
        ]
        assert len(table_lines) <= 2


class TestGridIntegration:
    def test_single_cell_writes_live_snapshot_and_flags(self, tmp_path):
        from repro.experiments.grid import _cell_stem, _run_grid_cell

        cfg = _small_config()
        scene = make_wtc_scene(cfg.grid_scene)
        cost = cfg.cost_model(cfg.grid_scene)
        run = _run_grid_cell(
            cfg, scene.image, cost, None, _slowdown_plan(), tmp_path,
            ("fully heterogeneous", "atdca", "hetero"),
        )
        assert (run.algorithm, run.variant) == ("atdca", "hetero")
        assert run.sim.platform_name == "fully heterogeneous"
        stem = _cell_stem("atdca", "hetero", "fully heterogeneous")
        data = read_snapshot(tmp_path / stem)
        assert data["health"]["flagged_ranks"] == [1]
        # Sketches ride along for cross-cell merging.
        assert all("sketch" in entry for entry in data["ops"])
