"""The run ledger and the regression gate over it: ledger I/O, the
bench extractor, the last-recorded-value band and its trailing run,
the gate's statuses and pinned documents, the three-leaf CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.bench import BenchConfig, run_bench, write_artifact
from repro.obs.history import (
    DEFAULT_LEDGER,
    HISTORY_SCHEMA,
    Ledger,
    LedgerEntry,
    append_entries,
    control_band,
    entries_from_bench,
    gate_entries,
    gate_last,
    main,
    read_ledger,
    record_entries,
)

TINY = BenchConfig(
    algorithms=("atdca",),
    variants=("hetero", "homo"),
    networks=("fully heterogeneous",),
    rows=96,
)


@pytest.fixture(scope="module")
def tiny_artifact():
    return run_bench(TINY, date="2026-01-01")


def _entry(series="s", value=1.0, date="d0", sha="a" * 40, **kw):
    defaults = dict(
        series=series, value=value, run={"date": date, "source": "test"},
        provenance={"git_sha": sha, "numpy": "0", "platform": "t",
                    "python": "0"},
    )
    defaults.update(kw)
    return LedgerEntry(**defaults)


def _ledger_of(*entries):
    return Ledger(path=None, entries=tuple(entries))


class TestLedgerIO:
    def test_append_creates_header_and_roundtrips(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        entries = [_entry(value=1.0), _entry(value=2.0, date="d1")]
        assert append_entries(path, entries) == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "type": "header", "schema": HISTORY_SCHEMA,
        }
        ledger = read_ledger(path)
        assert len(ledger) == 2
        assert ledger.entries[0].value == 1.0
        assert ledger.entries[1].run["date"] == "d1"

    def test_second_append_does_not_duplicate_header(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_entries(path, [_entry()])
        append_entries(path, [_entry(date="d1")])
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if json.loads(l)["type"] == "header") == 1
        assert len(read_ledger(path)) == 2

    def test_entry_dict_roundtrip_preserves_detail(self):
        entry = _entry(value=3.5, detail={"label": "x"})
        doc = entry.to_dict()
        assert LedgerEntry.from_dict(doc) == entry
        # the repro.obs.history/1 keys that no longer vary, as constants
        assert {k: doc[k] for k in (
            "kind", "unit", "direction", "deterministic"
        )} == {"kind": "bench", "unit": "virtual_s", "direction": "lower",
               "deterministic": True}

    def test_recording_is_byte_stable(self, tmp_path, tiny_artifact):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        append_entries(a, entries_from_bench(tiny_artifact))
        append_entries(b, entries_from_bench(tiny_artifact))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"type":"mystery"}\n')
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown ledger record"):
            read_ledger(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"type":"header","schema":"bogus/9"}\n')
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unsupported ledger schema"):
            read_ledger(path)

    @pytest.mark.parametrize("value", ["null", '"3.5"', "NaN", "Infinity",
                                       "true"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        """The one check on outside input: a value that is not a finite
        number is refused and named by `file:line`."""
        from repro.errors import ReproError

        path = tmp_path / "ledger.jsonl"
        append_entries(path, [_entry()])
        good = path.read_text().splitlines()[1]
        bad = good.replace('"value":1.0', f'"value":{value}')
        assert bad != good
        path.write_text(path.read_text() + bad + "\n")
        with pytest.raises(ReproError, match=f"{path}:3: entry value"):
            read_ledger(path)

    def test_headerless_file_warns_but_loads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        line = json.dumps(_entry().to_dict())
        path.write_text(line + "\n")
        with pytest.warns(UserWarning, match="no schema header"):
            ledger = read_ledger(path)
        assert len(ledger) == 1


class TestExtractors:
    def test_bench_sim_cells_are_gated_virtual_series(self, tiny_artifact):
        entries = entries_from_bench(tiny_artifact)
        assert len(entries) == 2
        for entry in entries:
            assert entry.series.startswith("bench/atdca/")
            assert entry.series.endswith("/makespan")
            assert entry.value > 0
            assert entry.run["date"] == "2026-01-01"
            assert set(entry.detail) >= {"com", "seq", "par", "d_all"}

    @staticmethod
    def refuses_thresholds_file(name, tmp_path, capsys):
        """Thresholds live in baselines/, measured values in the
        ledger: a thresholds file is not a bench artifact, and neither
        `record` nor `gate` takes it."""
        ledger = tmp_path / "l.jsonl"
        for command in ("record", "gate"):
            assert main(["--ledger", str(ledger), command, "--bench",
                         f"benchmarks/baselines/{name}"]) == 2
            assert "unsupported benchmark schema" in capsys.readouterr().err
        assert not ledger.exists()

    def test_calibration_thresholds_file_is_rejected(self, tmp_path, capsys):
        self.refuses_thresholds_file("calibration.json", tmp_path, capsys)

    def test_sweep_thresholds_file_is_rejected(self, tmp_path, capsys):
        self.refuses_thresholds_file("sweep_gate.json", tmp_path, capsys)

    def test_bench_entries_carry_a_workload_digest(self, tiny_artifact):
        import copy

        (digest,) = {e.run["config"] for e in entries_from_bench(tiny_artifact)}
        # cell selectors and the regression-injection knob stay comparable
        same = copy.deepcopy(tiny_artifact)
        same["config"].update(algorithms=["pct"], comm_factor=2.0)
        assert entries_from_bench(same)[0].run["config"] == digest
        other = copy.deepcopy(tiny_artifact)
        other["config"]["rows"] = 48
        assert entries_from_bench(other)[0].run["config"] != digest


class TestControlBand:
    def test_deterministic_band_is_tight(self):
        band = control_band([50.0] * 3)
        assert band.center == 50.0 and band.n == 3
        assert band.hi - band.lo == pytest.approx(2 * 1e-9 * 50.0)

    def test_band_recenters_after_step(self):
        band = control_band([1.0] * 4 + [9.0] * 4)
        assert band.center == 9.0 and band.segment_start == 4

    def test_deterministic_band_is_the_last_recorded_value(self):
        band = control_band([83.7, 110.7])
        assert band.center == 110.7 and band.segment_start == 1

    def test_trailing_run_of_a_reverted_step(self):
        """A pulse `[5, 5, 7, 5]` ends the first run: the trailing run
        is the last entry alone, not the whole A-B-A series."""
        band = control_band([5.0, 5.0, 7.0, 5.0])
        assert band.center == 5.0
        assert band.segment_start == 3 and band.n == 1

    @pytest.mark.parametrize("b", [83.74500092762888, 0.1, 3.0, 1e6 / 7])
    def test_exact_tolerance_edges(self, b):
        """`c > b·(1+1e-9)` regresses, `c < b·(1-1e-9)` improves: the
        comparisons the gate has always made, ulp for ulp."""
        import math

        ledger = _ledger_of(_entry(value=b))
        hi, lo = b * (1.0 + 1e-9), b * (1.0 - 1e-9)
        cases = [
            (hi, "ok"), (math.nextafter(hi, math.inf), "regression"),
            (lo, "ok"), (math.nextafter(lo, -math.inf), "improvement"),
        ]
        for value, status in cases:
            (result,) = gate_entries(ledger, [_entry(value=value)]).results
            assert result.status == status, (value, status)


class TestGate:
    def test_clean_candidate_passes(self, tiny_artifact):
        history = entries_from_bench(tiny_artifact)
        report = gate_entries(_ledger_of(*history), history)
        assert report.exit_status == 0
        assert {r.status for r in report.results} == {"ok"}

    def test_injected_regression_caught_and_named(self, tiny_artifact):
        history = entries_from_bench(tiny_artifact)
        regressed = dataclasses.replace(
            history[0],
            value=history[0].value * 1.5,
            provenance=dict(history[0].provenance, git_sha="f" * 40),
            run=dict(history[0].run, date="2026-02-01"),
        )
        report = gate_entries(
            _ledger_of(*history), [regressed, *history[1:]]
        )
        assert report.exit_status == 1
        (fail,) = report.failing
        assert fail.series == history[0].series
        # the step arrived with the candidate → candidate is offender
        assert fail.offender["where"] == "candidate"
        assert "ffffffffffff" in fail.offender["origin"]
        others = [r for r in report.results if r.status == "ok"]
        assert len(others) == len(history) - 1

    def test_offender_in_ledger_is_named(self):
        # regression entered the ledger 3 runs ago; the candidate
        # continues the bad regime → the gate names the FIRST bad entry.
        good = [_entry(value=10.0, date=f"d{i}") for i in range(5)]
        bad = [
            _entry(value=13.0, date=f"d{5 + i}", sha="b" * 40)
            for i in range(3)
        ]
        # The band derives from the last (bad) segment, so a candidate
        # extending it passes; one regressing *further* is caught and
        # blamed on the first entry of its regime.
        candidate = _entry(value=16.0, date="d9", sha="c" * 40)
        report = gate_entries(_ledger_of(*good, *bad), [candidate])
        (fail,) = report.failing
        assert fail.status == "regression"
        assert fail.offender["where"] == "candidate"
        # now a candidate equal to the bad plateau: passes (band
        # re-centred), which is the adaptive-gate contract
        ok = gate_entries(
            _ledger_of(*good, *bad), [_entry(value=13.0, date="d9")]
        )
        assert ok.exit_status == 0

    def test_offender_after_many_recorded_steps(self):
        """Eleven recorded steps, then a twelfth value: the step arrived
        with the candidate, however many steps the ledger holds."""
        history = [
            _entry(value=float(v), date=f"d{v}") for v in range(1, 12)
        ]
        candidate = _entry(value=12.0, date="d12", sha="c" * 40)
        (fail,) = gate_entries(_ledger_of(*history), [candidate]).failing
        assert fail.band.n == 1 and fail.band.segment_start == 10
        assert fail.offender == {
            "index": 11, "where": "candidate",
            "origin": "git cccccccccccc (d12)", "value": 12.0,
        }

    def test_gate_last_catches_doctored_trailing_entry(self):
        good = [_entry(value=10.0, date=f"d{i}") for i in range(4)]
        doctored = _entry(value=12.5, date="doctored", sha="d" * 40)
        report = gate_last(_ledger_of(*good, doctored))
        (fail,) = report.failing
        assert fail.offender["origin"].startswith("git dddddddddddd")
        assert "doctored" in fail.offender["origin"]

    def test_gate_last_clean_ledger_passes(self):
        entries = [_entry(value=10.0, date=f"d{i}") for i in range(4)]
        assert gate_last(_ledger_of(*entries)).exit_status == 0

    def test_recorded_step_rebaselines_an_exact_series(self, tiny_artifact):
        """A step recorded once re-centres the band: the artifact just
        recorded gates clean, and the old value is now the outlier."""
        import copy

        base = entries_from_bench(tiny_artifact)
        slow_doc = copy.deepcopy(tiny_artifact)
        for cell in slow_doc["cells"].values():
            cell["virtual"]["makespan"] *= 1.3
        slow = entries_from_bench(slow_doc)
        assert gate_entries(_ledger_of(*base), slow).exit_status == 1
        stepped = _ledger_of(*base, *slow)
        report = gate_entries(stepped, slow)
        assert {r.status for r in report.results} == {"ok"}
        assert {r.status for r in gate_entries(stepped, base).results} == {
            "improvement"
        }

    def test_other_bench_config_is_skipped_not_gated(self, tiny_artifact):
        import copy

        small = copy.deepcopy(tiny_artifact)
        small["config"]["rows"] = 48
        for cell in small["cells"].values():
            cell["virtual"]["makespan"] *= 3.5
        ledger = _ledger_of(*entries_from_bench(tiny_artifact))
        report = gate_entries(ledger, entries_from_bench(small))
        assert report.exit_status == 0
        for result in report.results:
            assert result.status == "skipped"
            assert "rows=48" in result.reason and "rows=96" in result.reason
            assert result.reason in result.describe()
        # once recorded, the series' regime is the new config
        mixed = _ledger_of(*ledger.entries, *entries_from_bench(small))
        assert {
            r.status for r in gate_entries(
                mixed, entries_from_bench(tiny_artifact)
            ).results
        } == {"skipped"}
        assert {
            r.status
            for r in gate_entries(mixed, entries_from_bench(small)).results
        } == {"ok"}

    def test_new_and_skipped(self, tiny_artifact):
        """A series the ledger has never seen is `new`, one measured on
        another workload is `skipped`; neither fails the gate."""
        import copy

        small = copy.deepcopy(tiny_artifact)
        small["config"]["rows"] = 48
        known = entries_from_bench(tiny_artifact)[0]
        (other_config,) = [
            e for e in entries_from_bench(small) if e.series == known.series
        ]
        fresh = dataclasses.replace(known, series="fresh")
        report = gate_entries(_ledger_of(known), [other_config, fresh])
        assert [r.status for r in report.results] == ["skipped", "new"]
        assert report.exit_status == 0

    def test_skips_carry_their_reason(self, tiny_artifact):
        import copy

        small = copy.deepcopy(tiny_artifact)
        small["config"]["rows"] = 48
        ledger = _ledger_of(*entries_from_bench(tiny_artifact))
        for result in gate_entries(ledger, entries_from_bench(small)).results:
            assert result.reason == (
                "measured on config [rows=48 cols=8 bands=32 seed=7 "
                "n_targets=18 n_classes=24], the series is on [rows=96 "
                "cols=8 bands=32 seed=7 n_targets=18 n_classes=24]"
            )
            assert result.describe().endswith(f"({result.reason})")

    def test_report_document_shape(self):
        history = [_entry(value=1.0)] * 2
        doc = gate_entries(_ledger_of(*history), [_entry(value=1.0)]).to_dict()
        assert doc["schema"] == "repro.obs.history.gate/1"
        assert doc["summary"]["ok"] == 1
        assert doc["exit_status"] == 0
        assert set(doc["provenance"]) == {
            "git_sha", "numpy", "platform", "python",
        }


class TestOneRunHistory:
    """Comparing two artifacts: record A into an empty ledger, then
    `history --ledger <A> gate --bench <B> --json`."""

    @pytest.fixture(scope="class")
    def candidates(self, tiny_artifact):
        import copy

        hetero = "atdca/hetero/fully heterogeneous/sim"
        improved = copy.deepcopy(tiny_artifact)
        improved["cells"][hetero]["virtual"]["makespan"] *= 0.5
        new = copy.deepcopy(tiny_artifact)
        new["cells"]["atdca/dlt/fully heterogeneous/sim"] = copy.deepcopy(
            new["cells"][hetero]
        )
        return {
            "self": tiny_artifact,
            "comm_factor_twin": run_bench(
                dataclasses.replace(TINY, comm_factor=2.0), date="2026-01-01"
            ),
            "improved": improved,
            "new": new,
        }

    EXPECTED = {
        "self": {"ok"},
        "comm_factor_twin": {"regression"},
        "improved": {"ok", "improvement"},
        "new": {"ok", "new"},
    }

    @staticmethod
    def gate_document(tiny_artifact, candidate, tmp_path):
        """`(exit status, gate document)` of the candidate gated against
        a ledger holding only ``tiny_artifact``."""
        base, cand = tmp_path / "base.json", tmp_path / "cand.json"
        write_artifact(tiny_artifact, base)
        write_artifact(candidate, cand)
        ledger, gate_json = tmp_path / "one_run.jsonl", tmp_path / "gate.json"
        assert main(["--ledger", str(ledger), "record",
                     "--bench", str(base)]) == 0
        rc = main(["--ledger", str(ledger), "gate", "--bench", str(cand),
                   "--json", str(gate_json)])
        return rc, json.loads(gate_json.read_text())

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_statuses(self, case, candidates, tiny_artifact, tmp_path):
        rc, doc = self.gate_document(
            tiny_artifact, candidates[case], tmp_path
        )
        assert {r["status"] for r in doc["results"]} == self.EXPECTED[case]
        assert rc == doc["exit_status"] == (case == "comm_factor_twin")

    # -- the gate documents, pinned ---------------------------------------
    # `GateReport.to_dict()` less `provenance`: every number below is
    # the output of the commit before the gate became a backward scan
    # over the entry list, so the rewrite is held to the old documents
    # (less `band.deterministic` and `summary.missing`, which went with
    # the wall quarantine and the two-file front end).

    HET, HOMO, DLT = (
        f"bench/atdca/{variant}/fully heterogeneous/sim/makespan"
        for variant in ("hetero", "homo", "dlt")
    )
    BANDS = {
        HET: {"center": 127.84063159034908, "lo": 127.84063146250845,
              "hi": 127.84063171818971, "n": 1, "segment_start": 0},
        HOMO: {"center": 333.5526813005317, "lo": 333.552680966979,
               "hi": 333.55268163408437, "n": 1, "segment_start": 0},
        "s": {"center": 2.0, "lo": 1.999999998, "hi": 2.000000002, "n": 3,
              "segment_start": 2},
    }
    #: case -> rows of (series, status, candidate, delta_pct, offender index)
    PINNED = {
        "self": [(HET, "ok", 127.84063159034908, 0.0, None),
                 (HOMO, "ok", 333.5526813005317, 0.0, None)],
        "comm_factor_twin": [
            (HET, "regression", 175.73380541409267, 37.46318617793745, 1),
            (HOMO, "regression", 387.1484224922627, 16.06814881018484, 1),
        ],
        "improved": [(HET, "improvement", 63.92031579517454, -50.0, None),
                     (HOMO, "ok", 333.5526813005317, 0.0, None)],
        "new": [(DLT, "new", None, 0.0, None),
                (HET, "ok", 127.84063159034908, 0.0, None),
                (HOMO, "ok", 333.5526813005317, 0.0, None)],
        "stepped": [("s", "regression", 2.5, 25.0, 5)],
    }

    @classmethod
    def pinned_document(cls, case, origin):
        """The parent commit's gate document for ``case``; a regression
        there always named the candidate (at ``origin``) as offender."""
        rows = cls.PINNED[case]
        statuses = [status for _series, status, *_rest in rows]
        failing = [series for series, status, *_rest in rows
                   if status == "regression"]
        return {
            "schema": "repro.obs.history.gate/1",
            "results": [{
                "series": series, "status": status, "candidate": candidate,
                "band": None if candidate is None else cls.BANDS[series],
                "delta_pct": delta_pct,
                "offender": None if index is None else {
                    "index": index, "where": "candidate", "origin": origin,
                    "value": candidate,
                },
                "reason": "",
            } for series, status, candidate, delta_pct, index in rows],
            "summary": {
                status: statuses.count(status)
                for status in ("ok", "regression", "improvement", "new",
                               "skipped")
            },
            "failing": failing,
            "exit_status": 1 if failing else 0,
        }

    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_documents_are_the_pinned_ones(
        self, case, candidates, tiny_artifact, tmp_path
    ):
        _rc, doc = self.gate_document(
            tiny_artifact, candidates[case], tmp_path
        )
        sha = doc.pop("provenance")["git_sha"]
        assert doc == self.pinned_document(
            case, f"git {sha[:12]} (2026-01-01)"
        )

    def test_stepped_series_document_is_the_pinned_one(self):
        history = [
            _entry(value=v, date=f"d{i}")
            for i, v in enumerate([1.0, 1.0, 2.0, 2.0, 2.0])
        ]
        candidate = _entry(value=2.5, date="d5", sha="c" * 40)
        doc = gate_entries(_ledger_of(*history), [candidate]).to_dict()
        del doc["provenance"]
        assert doc == self.pinned_document("stepped", "git cccccccccccc (d5)")


class TestCLI:
    def test_record_list_gate(self, tmp_path, capsys, tiny_artifact):
        ledger = str(tmp_path / "ledger.jsonl")
        bench = tmp_path / "BENCH_x.json"
        write_artifact(tiny_artifact, bench)
        assert main(["--ledger", ledger, "record",
                     "--bench", str(bench), "--bench", str(bench)]) == 0
        assert "4 entries (2 new series)" in capsys.readouterr().out

        assert main(["--ledger", ledger, "list"]) == 0
        out = capsys.readouterr().out
        assert "2 series, 4 entries" in out
        assert "bench/atdca/homo/fully heterogeneous/sim/makespan" in out

        assert main(["--ledger", ledger, "list", "bench/atdca/hetero",
                     "nope"]) == 0
        out = capsys.readouterr().out
        assert "1 series, 2 entries" in out and "/homo/" not in out
        assert main(["--ledger", ledger, "list", "nope/"]) == 2
        assert "no series matched" in capsys.readouterr().err

        assert main(["--ledger", ledger, "gate", "--bench", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "2 series gated: 2 ok" in out

    def test_list_shows_the_previous_value_and_the_change(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger.jsonl"
        append_entries(ledger, [
            _entry(series="once", value=3.0),
            _entry(series="twice", value=80.0), _entry(series="twice", value=100.0),
            _entry(series="down", value=2.0), _entry(series="down", value=1.5),
        ])
        assert main(["--ledger", str(ledger), "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["series", "n", "last", "prev", "Δ%"]
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
        assert rows == {
            "once": ["1", "3", "-", "-"],
            "twice": ["2", "100", "80", "+25.00"],
            "down": ["2", "1.5", "2", "-25.00"],
        }

    def test_gate_doctored_ledger_exits_nonzero(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        append_entries(
            ledger, [_entry(value=10.0, date=f"d{i}") for i in range(3)]
        )
        append_entries(
            ledger, [_entry(value=12.0, date="doctored", sha="d" * 40)]
        )
        assert main(["--ledger", str(ledger), "gate", "--last"]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "doctored" in out

    def test_record_says_when_a_series_changes_config(
        self, tmp_path, tiny_artifact
    ):
        import copy

        ledger = tmp_path / "ledger.jsonl"
        first = record_entries(ledger, entries_from_bench(tiny_artifact))
        assert "2 entries (2 new series)" in first and "note:" not in first
        small = copy.deepcopy(tiny_artifact)
        small["config"]["rows"] = 48
        second = record_entries(ledger, entries_from_bench(small))
        assert "2 entries (0 new series)" in second
        assert "different benchmark config" in second
        assert "bench/atdca/homo/fully heterogeneous/sim/makespan" in second

    def test_seed_ledger_holds_measurements_only(self):
        """Values in the ledger, thresholds in baselines/: every seed
        entry a `bench/*/makespan` with a finite value, every
        baselines/ file a thresholds file, and the seed's own last
        entries pass its gate."""
        import math
        from pathlib import Path

        seed = read_ledger(DEFAULT_LEDGER)
        assert len(seed) == 8
        for entry in seed.entries:
            assert entry.series.startswith("bench/")
            assert entry.series.endswith("/makespan")
            assert math.isfinite(entry.value) and entry.value > 0
        assert sorted(
            p.name for p in Path("benchmarks/baselines").iterdir()
        ) == ["MICROBENCH_floors.json", "calibration.json",
              "sweep_gate.json", "tuning.json", "whatif.json"]
        assert gate_last(seed).exit_status == 0

    def test_record_requires_artifacts(self, tmp_path, capsys):
        assert main(["--ledger", str(tmp_path / "l.jsonl"), "record"]) == 2
        assert "nothing to record" in capsys.readouterr().err

    def test_missing_ledger_is_graceful(self, tmp_path, capsys):
        assert main(["--ledger", str(tmp_path / "nope.jsonl"), "list"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_umbrella_cli_knows_history(self):
        from repro.__main__ import TOOLS

        assert TOOLS["history"][0] == "repro.obs.history"

    def test_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "record" in capsys.readouterr().out


class TestBenchRecordFlag:
    def test_run_record_appends_gated_series(self, tmp_path):
        """`bench run` writes the artifact, `history record --bench`
        is the one way into the ledger."""
        from repro.obs.bench import main as bench_main

        ledger = tmp_path / "ledger.jsonl"
        out = tmp_path / "BENCH_x.json"
        assert bench_main([
            "run", "--out", str(out), "--date", "2026-01-01",
            "--algorithms", "atdca", "--variants", "hetero",
            "--networks", "fully heterogeneous", "--rows", "96",
        ]) == 0
        assert main(["--ledger", str(ledger), "record",
                     "--bench", str(out)]) == 0
        ledger_doc = read_ledger(ledger)
        assert len(ledger_doc) == 1
        (entry,) = ledger_doc.entries
        assert entry.series.endswith("/makespan")
        assert entry.run == {
            "config": "rows=96 cols=8 bands=32 seed=7 n_targets=18 "
                      "n_classes=24",
            "date": "2026-01-01", "source": "repro.obs.bench/1",
        }
