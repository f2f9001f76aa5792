"""The continuous-benchmarking CLI: pinned-grid runs, artifact
determinism, and gating one artifact against another through a
one-run ledger (`history record` A, then `history gate` B)."""

from __future__ import annotations

import json

import pytest

from repro.obs import history
from repro.obs.bench import (
    SCHEMA,
    BenchConfig,
    main,
    report_text,
    run_bench,
    write_artifact,
)

#: A 2-cell grid: fast enough for every test, heterogeneous enough that
#: a comm-cost regression moves both cells.
TINY = BenchConfig(
    algorithms=("atdca",),
    variants=("hetero", "homo"),
    networks=("fully heterogeneous",),
    rows=96,
)


@pytest.fixture(scope="module")
def tiny_artifact():
    return run_bench(TINY, date="2026-01-01")


def gate_pair(base, candidate, *extra):
    """`history gate --bench candidate` against a fresh ledger holding
    only ``base`` (both artifact paths); returns the exit status."""
    ledger = str(base.parent / f"one_run_{base.stem}.jsonl")
    assert history.main(["--ledger", ledger, "record",
                         "--bench", str(base)]) == 0
    return history.main(["--ledger", ledger, "gate",
                         "--bench", str(candidate), *extra])


def one_run_report(base, candidate):
    """The gate report of ``candidate`` over the one-run history
    ``base`` (both artifact documents)."""
    return history.gate_entries(
        history.Ledger(path=None,
                       entries=tuple(history.entries_from_bench(base))),
        history.entries_from_bench(candidate),
    )


class TestRunBench:
    def test_artifact_shape(self, tiny_artifact):
        assert tiny_artifact["schema"] == SCHEMA
        assert tiny_artifact["date"] == "2026-01-01"
        cells = tiny_artifact["cells"]
        assert set(cells) == {
            "atdca/hetero/fully heterogeneous/sim",
            "atdca/homo/fully heterogeneous/sim",
        }
        for cell in cells.values():
            virtual = cell["virtual"]
            assert virtual["makespan"] > 0
            assert virtual["d_all"] >= virtual["d_minus"] >= 1.0

    def test_sim_runs_are_byte_identical(self, tiny_artifact):
        again = run_bench(TINY, date="2026-01-01")
        kw = {"sort_keys": True, "separators": (",", ":")}
        assert json.dumps(again, **kw) == json.dumps(tiny_artifact, **kw)

    def test_self_compare_is_clean(self, tiny_artifact):
        report = one_run_report(tiny_artifact, tiny_artifact)
        assert [r.status for r in report.results] == ["ok", "ok"]

    def test_comm_regression_is_flagged(self, tiny_artifact):
        import dataclasses

        slow = run_bench(
            dataclasses.replace(TINY, comm_factor=2.0), date="2026-01-01"
        )
        regressed = one_run_report(tiny_artifact, slow).failing
        assert regressed, "doubling comm cost must regress at least one cell"
        for result in regressed:
            assert result.series.endswith("/sim/makespan")
            assert result.candidate > result.band.center
            assert result.series in result.describe()

    def test_improvement_does_not_gate(self, tiny_artifact):
        import copy

        faster = copy.deepcopy(tiny_artifact)
        cid = "atdca/hetero/fully heterogeneous/sim"
        faster["cells"][cid]["virtual"]["makespan"] *= 0.5
        report = one_run_report(tiny_artifact, faster)
        status = {r.series: r.status for r in report.results}
        assert status == {
            f"bench/{cid}/makespan": "improvement",
            "bench/atdca/homo/fully heterogeneous/sim/makespan": "ok",
        }
        assert report.exit_status == 0

    def test_report_renders_every_cell(self, tiny_artifact):
        text = report_text(tiny_artifact)
        for cid in tiny_artifact["cells"]:
            assert cid in text
        assert "D_all" in text


class TestCli:
    def _run(self, out, extra=()):
        return main([
            "run", "--out", str(out), "--date", "2026-01-01",
            "--algorithms", "atdca", "--variants", "hetero",
            "--networks", "fully heterogeneous", "--rows", "96",
            *extra,
        ])

    def test_run_then_self_compare_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert self._run(out) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        assert gate_pair(out, out) == 0
        assert "1 series gated: 1 ok" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero_and_names_cell(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        assert self._run(base) == 0
        assert self._run(slow, extra=("--comm-factor", "2.0")) == 0
        assert gate_pair(base, slow) == 1
        captured = capsys.readouterr()
        assert "atdca/hetero/fully heterogeneous/sim" in captured.out
        assert "first offending entry" in captured.out
        assert "REGRESSION" in captured.err

    def test_default_artifact_name_uses_date(self, tmp_path):
        assert main([
            "run", "--outdir", str(tmp_path), "--date", "2026-01-01",
            "--algorithms", "atdca", "--variants", "hetero,dlt",
            "--networks", "fully heterogeneous", "--rows", "96",
        ]) == 0
        assert (tmp_path / "BENCH_2026-01-01.json").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert self._run(out) == 0
        assert main(["report", str(out)]) == 0
        assert "atdca/hetero" in capsys.readouterr().out

    def test_bad_schema_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/9", "cells": {}}))
        assert main(["report", str(bad)]) == 2
        assert "unsupported benchmark schema" in capsys.readouterr().err
        ledger = str(tmp_path / "l.jsonl")
        for command in ("record", "gate"):
            assert history.main(["--ledger", ledger, command,
                                 "--bench", str(bad)]) == 2
            assert "unsupported benchmark schema" in capsys.readouterr().err
        assert not (tmp_path / "l.jsonl").exists()

    def test_unknown_network_is_an_error(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_bench(
                BenchConfig(networks=("no such network",)), date="2026-01-01"
            )


class TestTraceAutoDiff:
    """`run --trace-dir`: one JSONL trace per sim cell, and tracing
    leaves the artifact unchanged."""

    ARGS = (
        "--algorithms", "atdca", "--variants", "hetero",
        "--networks", "fully heterogeneous", "--rows", "96",
        "--date", "2026-01-01",
    )

    def test_run_writes_one_trace_per_sim_cell(self, tmp_path):
        traces = tmp_path / "traces"
        assert main([
            "run", "--out", str(tmp_path / "b.json"),
            "--trace-dir", str(traces), *self.ARGS,
        ]) == 0
        files = sorted(p.name for p in traces.glob("*.jsonl"))
        assert files == ["atdca_hetero_fully_heterogeneous_sim.jsonl"]

    def test_tracing_does_not_change_the_artifact(self, tmp_path):
        plain = run_bench(TINY, date="2026-01-01")
        traced = run_bench(
            TINY, date="2026-01-01", trace_dir=tmp_path / "traces"
        )
        kw = {"sort_keys": True, "separators": (",", ":")}
        assert json.dumps(traced, **kw) == json.dumps(plain, **kw)


class TestCompareJson:
    """The machine-readable `history gate --json` document of one
    artifact gated against another."""

    def _artifacts(self, tmp_path, tiny_artifact):
        import copy

        base = tmp_path / "base.json"
        slow_doc = copy.deepcopy(tiny_artifact)
        for cell in slow_doc["cells"].values():
            cell["virtual"]["makespan"] *= 2.0
        slow = tmp_path / "slow.json"
        write_artifact(tiny_artifact, base)
        write_artifact(slow_doc, slow)
        return base, slow

    def test_self_compare_document(self, tmp_path, tiny_artifact, capsys):
        from repro.obs.history import GATE_SCHEMA

        base, _ = self._artifacts(tmp_path, tiny_artifact)
        out = tmp_path / "cmp.json"
        assert gate_pair(base, base, "--json", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == GATE_SCHEMA
        assert doc["exit_status"] == 0
        assert doc["failing"] == []
        assert doc["summary"]["ok"] == 2
        assert {r["status"] for r in doc["results"]} == {"ok"}

    def test_regression_document_matches_exit_status(
        self, tmp_path, tiny_artifact
    ):
        base, slow = self._artifacts(tmp_path, tiny_artifact)
        out = tmp_path / "cmp.json"
        assert gate_pair(base, slow, "--json", str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["exit_status"] == 1
        assert doc["summary"]["regression"] == 2
        assert len(doc["failing"]) == 2
        for result in doc["results"]:
            assert result["series"] in doc["failing"]
            assert result["delta_pct"] == pytest.approx(100.0)
            assert result["offender"]["where"] == "candidate"

    def test_json_to_stdout(self, tmp_path, tiny_artifact, capsys):
        base, _ = self._artifacts(tmp_path, tiny_artifact)
        assert gate_pair(base, base, "--json", "-") == 0
        out = capsys.readouterr().out
        payload = out[out.index('{"'):]
        assert json.loads(payload)["exit_status"] == 0

    def test_document_builder_counts(self, tiny_artifact):
        import copy

        partial = copy.deepcopy(tiny_artifact)
        partial["cells"]["atdca/homo/fully heterogeneous/sim"][
            "virtual"]["makespan"] *= 1.5
        doc = one_run_report(tiny_artifact, partial).to_dict()
        assert doc["summary"]["ok"] == doc["summary"]["regression"] == 1
        assert sum(doc["summary"].values()) == len(doc["results"]) == 2
        assert doc["failing"] == [
            "bench/atdca/homo/fully heterogeneous/sim/makespan"
        ]
        assert doc["exit_status"] == 1
