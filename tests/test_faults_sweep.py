"""Chaos-sweep harness: grid validation, deterministic enumeration,
replayable cell plans, gating, and byte-identical parallel artifacts."""

import json
from pathlib import Path

import pytest

from repro.errors import FaultPlanError
from repro.faults.sweep import (
    AXES,
    GATE_SCHEMA,
    SWEEP_SCHEMA,
    _prepare_state,
    enumerate_cells,
    load_sweep_grid,
    main,
    plan_of_cell,
    run_cell,
    run_sweep,
    sweep_gate,
    sweep_table,
    validate_grid,
    write_sweep,
)

REPO = Path(__file__).resolve().parent.parent
SMOKE_GRID = REPO / "benchmarks" / "plans" / "sweep_smoke.json"
GATE_FILE = REPO / "benchmarks" / "baselines" / "sweep_gate.json"


def tiny_grid(**overrides):
    """A 2-cell grid small enough to run inside a test."""
    doc = {
        "schema": SWEEP_SCHEMA,
        "name": "tiny",
        "scene": {"rows": 32, "cols": 16, "bands": 16, "seed": 7},
        "params": {"n_targets": 6},
        "algorithms": ["atdca"],
        "backends": ["sim"],
        "adaptive": {"min_factor": 1.2, "max_adaptations": 4},
        "axes": {
            "slowdown": [
                None,
                {"rank": 1, "factor": 4.0, "start_s": 0.0, "end_s": 1e9},
            ],
        },
    }
    doc.update(overrides)
    return doc


class TestGridValidation:
    def test_committed_smoke_grid_is_valid(self):
        doc = load_sweep_grid(SMOKE_GRID)
        assert doc["name"] == "sweep_smoke"
        cells = enumerate_cells(doc)
        assert len(cells) == 32  # atdca x {sim,inproc} x 2^4 axes

    def test_committed_gate_file_is_current_schema(self):
        thresholds = json.loads(GATE_FILE.read_text())
        assert thresholds["schema"] == GATE_SCHEMA
        assert thresholds["max_adaptive_over_predicted"] < 1.0

    @pytest.mark.parametrize("mutation,needle", [
        ({"schema": "bogus/9"}, "schema"),
        ({"algorithms": ["pct"]}, "adaptive-capable"),
        ({"backends": ["mpi4py"]}, "backend"),
        ({"axes": {"meteor": [None]}}, "axis"),
        ({"axes": {"slowdown": "x4"}}, "list"),
        ({"axes": {"slowdown": [42]}}, "objects or null"),
    ])
    def test_rejects_malformed_grids(self, mutation, needle):
        with pytest.raises(FaultPlanError, match=needle):
            validate_grid(tiny_grid(**mutation))

    def test_unknown_top_level_keys_are_ignored(self):
        # A grid written when grids carried a "policy" block still
        # validates and runs the same cells.
        doc = validate_grid(tiny_grid(policy={"bogus": 1}))
        assert enumerate_cells(doc) == enumerate_cells(validate_grid(tiny_grid()))
        assert plan_of_cell(enumerate_cells(doc)[0]) is None

    def test_rejects_non_object_document(self):
        with pytest.raises(FaultPlanError, match="object"):
            validate_grid([1, 2, 3])

    def test_validation_exercises_every_cell_plan(self):
        # A structurally fine list whose option is missing a required
        # key fails at validation time, not mid-sweep.
        bad = tiny_grid(axes={"slowdown": [{"factor": 4.0}]})
        with pytest.raises((FaultPlanError, KeyError)):
            validate_grid(bad)


class TestEnumeration:
    def test_order_is_algorithms_backends_then_axes(self):
        doc = validate_grid(tiny_grid(backends=["sim", "inproc"]))
        cells = enumerate_cells(doc)
        assert [(c["backend"], c["slowdown"] is None) for c in cells] == [
            ("sim", True), ("sim", False),
            ("inproc", True), ("inproc", False),
        ]
        for cell in cells:
            assert set(cell) == {"algorithm", "backend", *AXES}

    def test_empty_axes_yield_single_clean_cell(self):
        cells = enumerate_cells(validate_grid(tiny_grid(axes={})))
        assert len(cells) == 1
        assert all(cells[0][axis] is None for axis in AXES)


class TestPlanOfCell:
    def test_clean_cell_without_policy_is_none(self):
        clean, slow = enumerate_cells(validate_grid(tiny_grid()))
        assert plan_of_cell(clean) is None
        slow_plan = plan_of_cell(slow)
        assert [slow_plan.kind_of(f) for f in slow_plan] == ["rank_slowdown"]

    def test_four_axis_cell_builds_all_faults(self):
        doc = load_sweep_grid(SMOKE_GRID)
        full = [
            c for c in enumerate_cells(doc)
            if all(c[axis] is not None for axis in AXES)
        ]
        assert len(full) == 2  # one per backend
        plan = plan_of_cell(full[0])
        assert sorted(plan.kind_of(f) for f in plan) == [
            "link_degrade", "message_delay", "rank_crash", "rank_slowdown",
        ]


class TestReplayableCells:
    def test_crash_and_delay_cells_are_not_replayable(self):
        doc = load_sweep_grid(SMOKE_GRID)
        for axis in ("crash", "delay"):
            cell = next(
                c for c in enumerate_cells(doc)
                if c[axis] is not None
                and all(c[a] is None for a in AXES if a != axis)
            )
            assert plan_of_cell(cell).timing_perturbations is None


class TestRunSweepAndGate:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_sweep(validate_grid(tiny_grid()))

    def test_every_cell_ok_and_equal(self, tiny_result):
        assert tiny_result["summary"] == {
            "n_cells": 2, "n_ok": 2, "n_result_equal": 2, "n_adapted": 1,
        }
        clean, slow = tiny_result["cells"]
        assert not clean["adaptations"]
        assert slow["adaptations"][0]["rank"] == 1

    def test_predictions_are_exact(self, tiny_result):
        for record in tiny_result["cells"]:
            assert record["prediction_rel_error"] == pytest.approx(
                0.0, abs=1e-12
            )

    def test_parallel_artifact_is_byte_identical(self, tiny_result, tmp_path):
        parallel = run_sweep(validate_grid(tiny_grid()), jobs=2)
        a = write_sweep(tiny_result, tmp_path / "serial.json")
        b = write_sweep(parallel, tmp_path / "jobs2.json")
        assert a.read_bytes() == b.read_bytes()

    def test_gate_passes_on_honest_result(self, tiny_result):
        assert sweep_gate(tiny_result, {
            "schema": GATE_SCHEMA,
            "max_prediction_rel_error": 1e-9,
            "max_adaptive_over_predicted": 2.0,
            "min_adapted_cells": 1,
        }) == []

    def test_gate_flags_tampering_and_shortfalls(self, tiny_result):
        tampered = json.loads(json.dumps(tiny_result))
        tampered["cells"][1]["result_equal"] = False
        tampered["cells"][1]["prediction_rel_error"] = 0.5
        violations = sweep_gate(tampered, {
            "max_prediction_rel_error": 1e-9,
            "min_adapted_cells": 5,
        })
        assert any("sequential reference" in v for v in violations)
        assert any("what-if prediction" in v for v in violations)
        assert any("min 5" in v for v in violations)

    def test_gate_rejects_unknown_schema(self, tiny_result):
        with pytest.raises(FaultPlanError, match="gate schema"):
            sweep_gate(tiny_result, {"schema": "nope/0"})

    def test_table_renders_every_cell(self, tiny_result):
        table = sweep_table(tiny_result)
        assert table.count("\n") == len(tiny_result["cells"]) + 1
        assert "slowdown=on" in table


class TestCrashCells:
    def test_sim_crash_cell_records_both_makespans(self):
        """Under run-to-block a crash and its recovery are a fixed
        sequence of virtual times, so a crash cell's makespans are as
        reproducible as any other sim cell's and are recorded."""
        doc = validate_grid(tiny_grid(
            axes={"crash": [{"rank": 3, "at_op_index": 20}]}
        ))
        state = _prepare_state(doc)
        (cell,) = enumerate_cells(doc)
        first, second = run_cell(state, cell), run_cell(state, cell)
        assert first["ok"] and first["result_equal"]
        assert first["crashed_ranks"] == [3]
        assert first["makespan"] > 0 and first["makespan_noadapt"] > 0
        assert first == second


class TestSweepCLI:
    def test_run_out_and_gate_round_trip(self, tmp_path, capsys):
        grid = tmp_path / "tiny.json"
        grid.write_text(json.dumps(tiny_grid()))
        out = tmp_path / "result.json"
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({
            "schema": GATE_SCHEMA,
            "max_prediction_rel_error": 1e-9,
            "max_adaptive_over_predicted": 2.0,
            "min_adapted_cells": 1,
        }))
        assert main(["run", str(grid), "--out", str(out),
                     "--gate", str(gate)]) == 0
        assert "gate: PASS" in capsys.readouterr().out
        assert out.exists()
        assert main(["gate", str(out), str(gate)]) == 0
        capsys.readouterr()
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"min_adapted_cells": 99}))
        assert main(["gate", str(out), str(strict)]) == 1
        capsys.readouterr()

    def test_bad_inputs_fail_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        assert "invalid sweep input" in capsys.readouterr().err
        not_json = tmp_path / "grid.json"
        not_json.write_text("not json")
        assert main(["cells", str(not_json)]) == 1
        assert "invalid sweep input" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, jobs, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("repro.faults.sweep.run_sweep", no_sweep)
        with pytest.raises(SystemExit) as info:
            main(["run", str(SMOKE_GRID), "--jobs", jobs])
        assert info.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_umbrella_cli_lists_and_dispatches(self, capsys):
        from repro.__main__ import main as umbrella

        assert umbrella([]) == 0
        out = capsys.readouterr().out
        for tool in ("plan", "sweep"):
            assert f"  {tool}" in out
        assert "  policy" not in out
        assert umbrella(["sweep", "cells", str(SMOKE_GRID)]) == 0
        capsys.readouterr()
        for unknown in ("policy", "nope"):
            assert umbrella([unknown]) == 2
            capsys.readouterr()

    def test_cells_lists_labels(self, capsys):
        assert main(["cells", str(SMOKE_GRID)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 32
        assert out[0] == (
            "atdca/sim/crash=off/slowdown=off/link_degrade=off/delay=off"
        )
