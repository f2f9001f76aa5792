"""Cross-run trace diff (repro.obs.diff): structural equivalence
between backends, slowdown attribution, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.runner import ALGORITHM_NAMES, run_parallel
from repro.faults.plan import FaultPlan, RankComputeScale
from repro.faults.recovery import run_with_recovery
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession, write_jsonl
from repro.obs.diff import diff_traces, main

from conftest import make_tiny_platform

#: Small parameter sets so the wall-clock backend stays fast.
PARAMS = {
    "atdca": {"n_targets": 4},
    "ufcls": {"n_targets": 4},
    "pct": {"n_classes": 5},
    "morph": {"n_classes": 5, "iterations": 1},
}


@pytest.fixture(scope="module")
def diff_scene():
    return make_wtc_scene(SceneConfig(rows=32, cols=8, bands=16, seed=7))


def _traced(scene, algorithm="atdca", backend="sim", plan=None, **overrides):
    obs = ObsSession.create()
    params = dict(PARAMS[algorithm], **overrides)
    platform = make_tiny_platform()
    if plan is not None:
        run_with_recovery(
            algorithm, scene.image, platform, params=params,
            backend=backend, plan=plan, obs=obs,
        )
    else:
        run_parallel(
            algorithm, scene.image, platform, params=params,
            backend=backend, obs=obs,
        )
    return obs


class TestEquivalence:
    def test_identical_sim_runs_are_equivalent(self, diff_scene):
        base = _traced(diff_scene)
        cand = _traced(diff_scene)
        diff = diff_traces(base, cand)
        assert diff.equivalent
        assert diff.first_divergence is None
        assert diff.n_ops > 0
        assert diff.makespan_delta == 0.0
        assert all(d.delta_s == 0.0 for d in diff.deltas)
        assert diff.dominant_rank is None

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_sim_and_inproc_are_structurally_equivalent(
        self, diff_scene, algorithm
    ):
        """The two backends execute the same program: every rank's
        sequence of phases, collectives, kernels, and transfers (with
        volumes) must align op for op."""
        sim = _traced(diff_scene, algorithm, backend="sim")
        inproc = _traced(diff_scene, algorithm, backend="inproc")
        diff = diff_traces(sim, inproc)
        assert diff.equivalent, diff.to_text()
        assert diff.n_ops > 0

    def test_different_programs_diverge(self, diff_scene):
        base = _traced(diff_scene, "atdca", n_targets=4)
        cand = _traced(diff_scene, "atdca", n_targets=5)
        diff = diff_traces(base, cand)
        assert not diff.equivalent
        assert diff.first_divergence is not None
        assert diff.deltas == ()  # no deltas across diverged runs
        assert "diverge" in diff.to_text()


class TestSlowdownAttribution:
    def test_dominant_rank_is_the_injected_one(self, diff_scene):
        """An injected 4x slowdown of rank 1 (the loaded worker on the
        tiny platform) must surface as that rank's on-critical-path ops
        slowing, with a positive makespan delta."""
        empty = FaultPlan((), name="none")
        slow = FaultPlan(
            (RankComputeScale(rank=1, factor=4.0, start_s=0.0, end_s=1e9),),
            name="slow-r1",
        )
        base = _traced(diff_scene, plan=empty)
        cand = _traced(diff_scene, plan=slow)
        diff = diff_traces(base, cand)
        assert diff.equivalent, diff.to_text()
        assert diff.makespan_delta > 0.0
        assert diff.dominant_rank == 1
        slowed = [d for d in diff.deltas if d.delta_s > 0.0]
        assert slowed
        assert any(d.on_critical_path for d in slowed)
        assert "dominant slowdown: rank 1" in diff.to_text()

    def test_deltas_ranked_by_absolute_change(self, diff_scene):
        empty = FaultPlan((), name="none")
        slow = FaultPlan(
            (RankComputeScale(rank=1, factor=3.0, start_s=0.0, end_s=1e9),),
            name="slow-r1",
        )
        diff = diff_traces(
            _traced(diff_scene, plan=empty), _traced(diff_scene, plan=slow)
        )
        magnitudes = [abs(d.delta_s) for d in diff.deltas]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestSerializationAndCli:
    def test_json_document_shape(self, diff_scene):
        diff = diff_traces(_traced(diff_scene), _traced(diff_scene))
        doc = json.loads(diff.to_json())
        assert doc["schema"] == "repro.obs.diff/1"
        assert doc["equivalent"] is True
        assert doc["structural"] == []
        assert doc["makespan_delta"] == 0.0

    def test_cli_exit_codes_and_json(self, diff_scene, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl", _traced(diff_scene))
        b = write_jsonl(
            tmp_path / "b.jsonl", _traced(diff_scene, n_targets=5)
        )
        out = tmp_path / "diff.json"
        assert main([str(a), str(a), "--json", str(out)]) == 0
        assert "structurally equivalent" in capsys.readouterr().out
        assert json.loads(out.read_text(encoding="utf-8"))["equivalent"]
        assert main([str(a), str(b)]) == 1
        assert "diverge" in capsys.readouterr().out
        assert main([str(a), str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
