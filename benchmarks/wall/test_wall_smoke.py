"""Smoke test of the wall benchmark (``pytest benchmarks/wall -q``).

Not part of tier-1: ``setup.cfg`` collects ``tests/`` only.
"""

import ast
import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def test_quick_run_emits_exactly_the_declared_names():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # 22-25 s when the host is quiet; its speed varies by 40 %.
    assert time.perf_counter() - start < 60
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == len(SPEC["workloads"])
    for line in lines:
        assert line["correct"] and line["failed"] == 0 < line["attempted"]
        assert set(line["metrics"]) == DECLARED
    for workload in SPEC["workloads"]:
        assert f"== {workload['name']} " in proc.stdout
    assert json.loads((HERE / "out" / "trace.json").read_text())["traceEvents"]


def test_benchmark_json_is_within_the_contract_limits():
    names = [w["name"] for w in SPEC["workloads"]] + sorted(DECLARED)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/wall"]


def test_layers_are_measured_through_public_names_only():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                imported = node.module.split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [part for a in node.names
                            if a.name.startswith("repro")
                            for part in a.name.split(".")]
            else:
                continue
            private = [name for name in imported if name.startswith("_")]
            assert not private, f"{path.name} imports {private}"
