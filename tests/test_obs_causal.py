"""Causal (virtual-speedup) profiling and DAG slack."""

from __future__ import annotations

import json

import pytest

from repro.core.runner import run_parallel
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RankComputeScale
from repro.hsi import SceneConfig, make_wtc_scene
from repro.obs import ObsSession
from repro.obs.causal import CAUSAL_SCHEMA, causal_profile
from repro.obs.dag import build_dag, critical_path_nodes, node_slack

_CFG = ExperimentConfig(
    # at least as many bands as the default 18 targets: ATDCA finds no
    # more distinct targets than the scene has spectral dimensions
    scene=SceneConfig(rows=32, cols=8, bands=24, seed=7)
)


@pytest.fixture(scope="module")
def causal_scene():
    return make_wtc_scene(_CFG.scene)


@pytest.fixture(scope="module")
def clean_obs(causal_scene, het_platform):
    obs = ObsSession.create()
    run_parallel(
        "atdca", causal_scene.image, het_platform,
        params=_CFG.params_for("atdca"), obs=obs,
    )
    return obs


@pytest.fixture(scope="module")
def hot_rank_obs(causal_scene, het_platform):
    """A run where rank 5 is slowed enough to dominate end to end."""
    injector = FaultInjector(FaultPlan(
        faults=(RankComputeScale(rank=5, factor=80.0, start_s=0.0, end_s=1e9),),
        name="hot",
    ))
    obs = ObsSession.create()
    injector.attach(platform=het_platform, obs=obs)
    run_parallel(
        "atdca", causal_scene.image, het_platform,
        params=_CFG.params_for("atdca"), obs=obs, faults=injector,
    )
    return obs


class TestCausalProfile:
    def test_injected_bottleneck_ranks_first(
        self, hot_rank_obs, het_platform
    ):
        profile = causal_profile(hot_rank_obs, het_platform)
        top = profile.top("rank")
        assert top is not None and top.subject == "rank:5"
        assert top.gain_pct > 0

    def test_gains_are_bounded_by_the_speedup(
        self, clean_obs, het_platform
    ):
        profile = causal_profile(clean_obs, het_platform, speedup_pct=10.0)
        for entry in profile.entries:
            # A k% speedup of one subject can remove at most k% of the
            # makespan; slack can make it (slightly) negative-free.
            assert -1e-9 <= entry.gain_pct <= 10.0 + 1e-9

    def test_entries_sorted_by_gain_then_subject(
        self, clean_obs, het_platform
    ):
        profile = causal_profile(clean_obs, het_platform)
        keys = [(-e.gain_pct, e.subject) for e in profile.entries]
        assert keys == sorted(keys)

    def test_flat_time_disagrees_with_causal_gain(
        self, hot_rank_obs, het_platform
    ):
        """The point of causal profiling: subjects with real self-time
        but no critical-path presence predict ~no gain."""
        profile = causal_profile(hot_rank_obs, het_platform)
        off_path = [
            e for e in profile.entries
            if e.subject.startswith("rank:") and e.subject != "rank:5"
            and e.self_s > 0
        ]
        assert off_path, "expected other ranks with self-time"
        assert all(e.gain_pct < 1.0 for e in off_path)

    def test_repeated_profiles_byte_identical(
        self, clean_obs, het_platform
    ):
        one = causal_profile(clean_obs, het_platform).to_json()
        two = causal_profile(clean_obs, het_platform).to_json()
        assert one == two

    def test_document_schema(self, clean_obs, het_platform):
        doc = causal_profile(clean_obs, het_platform).to_dict()
        assert doc["schema"] == CAUSAL_SCHEMA
        assert doc["entries"]
        assert 0.0 < doc["critical_fraction"] <= 1.0
        assert set(doc["provenance"]) == {
            "git_sha", "numpy", "platform", "python",
        }
        assert json.loads(json.dumps(doc)) == doc

    def test_to_text_lists_top_subjects(self, clean_obs, het_platform):
        text = causal_profile(clean_obs, het_platform).to_text(top=5)
        assert "causal profile" in text
        assert len(text.splitlines()) <= 2 + 5

    def test_speedup_pct_validated(self, clean_obs, het_platform):
        with pytest.raises(ConfigurationError):
            causal_profile(clean_obs, het_platform, speedup_pct=0.0)
        with pytest.raises(ConfigurationError):
            causal_profile(clean_obs, het_platform, speedup_pct=100.0)


class TestNodeSlack:
    def test_slack_nonnegative_and_zero_on_critical_path(self, clean_obs):
        dag = build_dag(clean_obs)
        slack = node_slack(dag)
        assert set(slack) == set(dag.nodes)
        assert all(value >= 0.0 for value in slack.values())
        path, _ = critical_path_nodes(dag)
        # The binding chain is a zero-slack chain on the engine.
        for node in path:
            assert slack[node.key] <= 1e-9

    def test_sink_has_zero_slack(self, clean_obs):
        dag = build_dag(clean_obs)
        slack = node_slack(dag)
        sink = dag.sink()
        assert sink is not None
        assert slack[sink.key] == 0.0

    def test_slack_bounds_respect_makespan(self, clean_obs):
        dag = build_dag(clean_obs)
        slack = node_slack(dag)
        makespan = dag.makespan
        for key, node in dag.nodes.items():
            assert node.end + slack[key] <= makespan + 1e-9
