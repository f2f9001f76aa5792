"""The provenance header contract: every machine-readable artifact
writer stamps the same schema-versioned block, and readers tolerate a
missing block with a warning instead of a crash."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.provenance import (
    describe_mismatch,
    provenance,
    provenance_matches,
    warn_if_unstamped,
)

PROVENANCE_KEYS = {"git_sha", "numpy", "platform", "python"}


@pytest.fixture(scope="module")
def bench_artifact():
    from repro.obs.bench import BenchConfig, run_bench

    config = BenchConfig(
        algorithms=("atdca",), variants=("hetero",),
        networks=("fully heterogeneous",), rows=96,
    )
    return run_bench(config, date="2026-01-01")


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
    """One parametrized assertion over every artifact writer."""

    @pytest.mark.parametrize("writer", [
        pytest.param("bench", id="BENCH_artifact"),
        pytest.param("analysis", id="analysis.json"),
        pytest.param("ledger", id="history_ledger_entries"),
    ])
    def test_same_schema_versioned_block(
        self, writer, bench_artifact, analysis_doc
    ):
        if writer == "bench":
            docs = [bench_artifact]
        elif writer == "analysis":
            docs = [analysis_doc]
        else:
            from repro.obs.history import entries_from_bench

            docs = [e.to_dict() for e in entries_from_bench(bench_artifact)]
        expected = provenance()
        assert docs, "writer produced nothing"
        for doc in docs:
            block = doc.get("provenance")
            assert block is not None, f"{writer} artifact lacks provenance"
            assert set(block) == PROVENANCE_KEYS
            assert block == expected
            assert provenance_matches(block, expected) is True


class TestReadersTolerateMissingBlock:
    def test_bench_load_warns_not_crashes(self, bench_artifact, tmp_path):
        from repro.obs.bench import load_artifact, write_artifact

        stripped = dict(bench_artifact)
        stripped.pop("provenance")
        path = tmp_path / "BENCH_stripped.json"
        write_artifact(stripped, path)
        with pytest.warns(UserWarning, match="no provenance block"):
            loaded = load_artifact(path)
        assert "provenance" not in loaded
        assert loaded["cells"]

    def test_ledger_read_warns_not_crashes(self, bench_artifact, tmp_path):
        from repro.obs.history import (
            append_entries,
            entries_from_bench,
            read_ledger,
        )

        entries = [
            dataclasses.replace(e, provenance=None)
            for e in entries_from_bench(bench_artifact)
        ]
        path = tmp_path / "ledger.jsonl"
        append_entries(path, entries)
        with pytest.warns(UserWarning, match="no provenance block"):
            ledger = read_ledger(path)
        assert len(ledger) == len(entries)

    def test_matches_is_none_when_absent(self):
        assert provenance_matches(None, provenance()) is None
        assert provenance_matches(provenance(), {}) is None

    def test_warn_helper_contract(self):
        assert warn_if_unstamped({"provenance": provenance()}) is True
        with pytest.warns(UserWarning, match="no provenance block"):
            assert warn_if_unstamped({}, "x.json") is False

    def test_describe_mismatch_names_fields(self):
        a = provenance()
        b = dict(a, git_sha="0" * 40)
        lines = describe_mismatch(a, b)
        assert len(lines) == 1 and lines[0].startswith("git_sha:")
