"""Single-file HTML run reports (repro.obs.report) and the
post-recovery gantt lanes they depend on."""

from __future__ import annotations

import json

import pytest

from repro.core.runner import run_parallel
from repro.faults.plan import FaultPlan, RankCrash, RankComputeScale
from repro.faults.recovery import run_with_recovery
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession, analyze_trace
from repro.obs.profile import profile_trace
from repro.obs.report import render_report, write_report
from repro.viz.timeline import gantt_of_trace

from conftest import make_tiny_platform


@pytest.fixture(scope="module")
def report_scene():
    return make_wtc_scene(SceneConfig(rows=32, cols=8, bands=16, seed=7))


@pytest.fixture(scope="module")
def plain_run(report_scene):
    platform = make_tiny_platform()
    obs = ObsSession.create()
    run = run_parallel(
        "atdca", report_scene.image, platform,
        params={"n_targets": 4}, backend="sim", obs=obs,
    )
    analysis = analyze_trace(
        obs, result=run.sim, partition=run.partition, platform=platform
    )
    return obs, analysis, platform


@pytest.fixture(scope="module")
def crash_run(report_scene):
    platform = make_tiny_platform()
    obs = ObsSession.create()
    plan = FaultPlan((RankCrash(rank=3, at_op_index=7),), name="crash-r3")
    run = run_with_recovery(
        "atdca", report_scene.image, platform,
        params={"n_targets": 4}, backend="sim", plan=plan, obs=obs,
    )
    assert run.recovered
    analysis = analyze_trace(obs, platform=platform)
    return obs, analysis, platform


class TestRenderReport:
    def test_self_contained_and_deterministic(self, plain_run):
        obs, analysis, _ = plain_run
        html = render_report(obs, analysis, title="atdca — sim")
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "<svg" in html
        assert "atdca — sim" in html
        assert render_report(obs, analysis, title="atdca — sim") == html

    def test_embedded_analysis_json_is_verbatim(self, plain_run):
        obs, analysis, _ = plain_run
        html = render_report(obs, analysis)
        marker = '<script type="application/json" id="repro-analysis">'
        start = html.index(marker) + len(marker)
        embedded = html[start:html.index("</script>", start)]
        assert embedded == analysis.to_json()
        json.loads(embedded)  # and it parses

    def test_calibration_section_and_embed(self, plain_run):
        obs, analysis, platform = plain_run
        calibration = profile_trace(obs, platform)
        html = render_report(obs, analysis, calibration)
        marker = '<script type="application/json" id="repro-calibration">'
        start = html.index(marker) + len(marker)
        embedded = html[start:html.index("</script>", start)]
        assert embedded == calibration.to_json()
        assert "median phase model error" in html.lower()
        # Without a calibration neither the section nor the embed exist.
        assert marker not in render_report(obs, analysis)

    def test_titles_are_escaped(self, plain_run):
        obs, analysis, _ = plain_run
        html = render_report(obs, analysis, title="a<b>&c")
        assert "a<b>&c" not in html
        assert "a&lt;b&gt;&amp;c" in html

    def test_write_report_round_trip(self, plain_run, tmp_path):
        obs, analysis, _ = plain_run
        path = write_report(tmp_path / "out" / "report.html", obs, analysis)
        assert path.is_file()
        assert "<svg" in path.read_text(encoding="utf-8")


class TestFaultRendering:
    def test_crash_run_marks_seam_and_fault_tile(self, crash_run):
        obs, analysis, _ = crash_run
        html = render_report(obs, analysis)
        assert 'class="seam"' in html
        assert "fault windows" in html

    def test_slowdown_window_is_shaded(self, report_scene):
        platform = make_tiny_platform()
        obs = ObsSession.create()
        plan = FaultPlan(
            (RankComputeScale(rank=2, factor=3.0, start_s=0.0, end_s=1e9),),
            name="slow-r2",
        )
        run_with_recovery(
            "atdca", report_scene.image, platform,
            params={"n_targets": 4}, backend="sim", plan=plan, obs=obs,
        )
        html = render_report(obs, analyze_trace(obs, platform=platform))
        assert 'class="fault-window"' in html


class TestPostRecoveryGantt:
    def test_survivor_lanes_follow_the_seam_mapping(self, crash_run):
        """After rank 3 crashes, the dense post-recovery ranks 0..2 map
        back to original lanes via the repartition seam: the crashed
        lane carries no work past the seam."""
        obs, _, _ = crash_run
        spans = obs.tracer.spans()
        seams = [
            s for s in spans
            if s.category == "fault" and s.name == "recovery.repartition"
        ]
        assert seams, "recovery must record a repartition seam"
        seam = seams[-1]
        survivors = tuple(seam.attrs["ranks"])
        assert 3 not in survivors
        chart = gantt_of_trace(obs, width=72)
        # The crashed rank keeps its own lane (four lanes, not three
        # dense ones) and the chart renders a fault glyph for it.
        assert "r  3" in chart or "r 3" in chart or "r3" in chart
        assert "!" in chart
        # Post-seam spans carry dense ranks that all resolve through the
        # seam mapping to survivors — never to the crashed rank's lane.
        for span in spans:
            if span.category == "fault":
                continue
            if span.start >= seam.end:
                assert span.rank < len(survivors)
                assert survivors[span.rank] != 3
