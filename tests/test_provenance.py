"""The provenance header contract: an artifact writer stamps the same
schema-versioned block."""

from __future__ import annotations

import pytest

from repro.obs.provenance import provenance

PROVENANCE_KEYS = {"git_sha", "numpy", "platform", "python"}


@pytest.fixture(scope="module")
def analysis_doc():
    from repro.cluster.presets import fully_heterogeneous
    from repro.core.runner import run_parallel
    from repro.hsi.scene import SceneConfig, make_wtc_scene
    from repro.obs import ObsSession, analyze_trace

    obs = ObsSession.create()
    scene = make_wtc_scene(SceneConfig(rows=64, cols=32, bands=24, seed=7))
    run_parallel("atdca", scene.image, fully_heterogeneous(), obs=obs)
    return analyze_trace(obs).to_dict()


class TestWritersStampProvenance:
    @pytest.mark.parametrize("writer", [
        pytest.param("analysis", id="analysis.json"),
    ])
    def test_same_schema_versioned_block(self, writer, analysis_doc):
        block = analysis_doc.get("provenance")
        assert block is not None, f"{writer} artifact lacks provenance"
        assert set(block) == PROVENANCE_KEYS
        assert block == provenance()
